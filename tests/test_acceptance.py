"""End-to-end acceptance gate.

Each test certifies one release criterion and prints a single pass/fail line
with the measured worst case, so a test run doubles as a numerical report.
"""

import itertools
import time

import numpy as np

import bridgehead as bh
from bridgehead.bridge import additive_separability_gap
from bridgehead.core import mutual_information
from bridgehead.diagnostics import (
    cumulant_errors,
    free_energy_check,
    gateaux_f,
    gateaux_value_direction,
    ilr_check,
)
from bridgehead.solver import (
    _Ascent,
    action_potential,
    foc_residuals,
    jensen_f,
    log_partition,
)

from conftest import TIGHT, make_state_independent, make_symmetric_2x2, random_simplex
from reference import ba_step, envelope_raw


def _certify(num: int, ok: bool, label: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {label} ({detail})")
    assert ok, f"criterion {num:02d} failed: {label} ({detail})"


def test_criterion_01_symmetric_matching_anchor():
    problem = make_symmetric_2x2()
    start = time.perf_counter()
    solution = bh.solve(problem, TIGHT)
    elapsed = time.perf_counter() - start

    marginal_err = float(np.abs(solution.marginal.weights - 0.5).max())
    joint = solution.coupling.joint
    correct = np.array([joint[0, 0] / problem.prior[0], joint[1, 1] / problem.prior[1]])
    posterior_err = float(np.abs(correct - np.e / (1.0 + np.e)).max())
    f_err = abs(solution.f_value - np.log((np.e + 1.0) / 2.0))
    ok = marginal_err <= 1e-8 and posterior_err <= 1e-8 and f_err <= 1e-10 and elapsed < 0.1
    _certify(
        1,
        ok,
        "symmetric matching anchor",
        f"marginal {marginal_err:.2e}, choice prob {posterior_err:.2e}, "
        f"f {f_err:.2e}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_state_independent_anchor():
    problem = make_state_independent()
    solution = bh.solve(problem, TIGHT)

    top_mass = float(solution.marginal.weights[0])
    info = mutual_information(solution.coupling)
    f_err = abs(solution.f_value - 2.0)
    off_err = abs(float(solution.foc_residuals[1]) - np.expm1(-1.0))
    ok = top_mass >= 1.0 - 1e-8 and info <= 1e-10 and f_err <= 1e-10 and off_err <= 1e-8
    _certify(
        2,
        ok,
        "state-independent utility collapses to the dominant action",
        f"mass {top_mass:.12f}, info {info:.2e}, f {f_err:.2e}, off-support {off_err:.2e}",
    )


def test_criterion_03_monotone_outer_iteration():
    start = time.perf_counter()
    worst_drop = -np.inf
    shortfall = -np.inf
    worst_ba_drop = -np.inf
    cfg = bh.SolverConfig()
    for problem in bh.standard_suite():
        solution = bh.solve(problem, cfg)
        # replay the solver's own iterates through the step it takes
        ascent = _Ascent(problem, cfg)
        f_prev = -np.inf
        f_best = -np.inf
        for _ in range(solution.iterations + 5):
            f = jensen_f(problem, bh.ActionMarginal(ascent.w))
            worst_drop = max(worst_drop, f_prev - f)
            f_best = max(f_best, f)
            f_prev = f
            ascent.step()
        shortfall = max(shortfall, solution.f_value - f_best)
        # the plain multiplicative update is monotone on its own
        nu = bh.ActionMarginal.uniform(problem.num_actions)
        f_prev = jensen_f(problem, nu)
        for _ in range(50):
            nu = ba_step(problem, nu)
            f = jensen_f(problem, nu)
            worst_ba_drop = max(worst_ba_drop, f_prev - f)
            f_prev = f
    elapsed = time.perf_counter() - start
    ok = (
        worst_drop <= 1e-12
        and worst_ba_drop <= 1e-12
        and shortfall <= 1e-9
        and elapsed < 30.0
    )
    _certify(
        3,
        ok,
        "f never decreases along the outer iteration on the 20-instance suite",
        f"worst drop {worst_drop:.2e} (ba_step alone {worst_ba_drop:.2e}), "
        f"value shortfall {shortfall:.2e}, {elapsed:.1f} s",
    )


def test_criterion_04_grid_oracle_agreement():
    start = time.perf_counter()
    worst_gap = 0.0
    worst_ratio = 0.0
    for problem in bh.small_suite(count=20):
        solution = bh.solve(problem, TIGHT)
        oracle = bh.grid_search_f(problem)
        gap = abs(solution.f_value - oracle.f_best)
        bound = oracle.margin
        worst_gap = max(worst_gap, gap)
        worst_ratio = max(worst_ratio, gap / bound if bound > 0 else np.inf)
        if gap > bound:
            break
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 60.0
    _certify(
        4,
        ok,
        "solver value within the grid oracle's certified bracket on 20 instances",
        f"worst gap {worst_gap:.2e}, worst gap/bound {worst_ratio:.3f}, {elapsed:.1f} s",
    )


def test_criterion_05_transport_certificates(solved_suite):
    worst = {"residual": 0.0, "gap": 0.0, "separability": 0.0, "schrodinger": 0.0}
    cfg = bh.SinkhornConfig(tolerance=1e-12)
    for problem, solution in solved_suite:
        fresh = bh.sinkhorn_bridge(problem, solution.marginal, cfg)
        worst["residual"] = max(worst["residual"], fresh.residual)
        worst["gap"] = max(worst["gap"], fresh.duality_gap)
        worst["separability"] = max(
            worst["separability"],
            additive_separability_gap(fresh, solution.marginal, problem.prior),
        )
        res_a, res_b = bh.schrodinger_residual(problem, solution.marginal, fresh.potentials)
        worst["schrodinger"] = max(worst["schrodinger"], res_a, res_b)
    ok = (
        worst["residual"] <= 1e-10
        and worst["gap"] <= 1e-8
        and worst["separability"] <= 1e-8
        and worst["schrodinger"] <= 1e-9
    )
    _certify(
        5,
        ok,
        "inner transport certificates hold at every solved marginal",
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_06_plateau_certification(solved_suite):
    worst_on = 0.0
    worst_off = 0.0
    signs_agree = True
    for problem, solution in solved_suite:
        r = solution.foc_residuals
        sup = solution.marginal.weights > 1e-9
        worst_on = max(worst_on, float(np.abs(r[sup]).max()))
        if np.any(~sup):
            worst_off = max(worst_off, float(r[~sup].max()))
        a = action_potential(problem, solution.marginal)
        r_fresh = foc_residuals(problem, solution.marginal)
        signs_agree = signs_agree and bool(np.all(np.sign(a) == np.sign(r_fresh)))
    ok = worst_on <= 1e-7 and worst_off <= 1e-7 and signs_agree
    _certify(
        6,
        ok,
        "first-order plateau with exact sign agreement at every optimum",
        f"on-support {worst_on:.2e}, off-support {worst_off:.2e}, signs {signs_agree}",
    )


def test_criterion_07_directional_derivative_identities(solved_suite):
    rng = np.random.default_rng(20240817)
    h = 1e-5
    worst_f = 0.0
    worst_v = 0.0
    for problem, solution in solved_suite:
        m = problem.num_actions
        nu_star = solution.marginal.weights
        # the envelope derivative is checked at the optimum itself; the inner
        # value needs an interior base point for central differences
        interior = bh.ActionMarginal(0.9 * nu_star + 0.1 / m)
        for _ in range(10):
            psi = bh.ActionMarginal(rng.dirichlet(np.ones(m)))
            analytic = gateaux_f(problem, solution.marginal, psi)
            step = h * (psi.weights - nu_star)
            numeric = (
                envelope_raw(problem, nu_star + step)
                - envelope_raw(problem, nu_star - step)
            ) / (2.0 * h)
            worst_f = max(worst_f, abs(analytic - numeric))

            a_dir, n_dir = gateaux_value_direction(problem, interior, psi, h=h)
            worst_v = max(worst_v, abs(a_dir - n_dir))
    ok = worst_f <= 1e-3 and worst_v <= 1e-3
    _certify(
        7,
        ok,
        "analytic directional derivatives match central differences",
        f"envelope {worst_f:.2e}, inner value {worst_v:.2e}, h={h:g}, 10 directions each",
    )


def test_criterion_08_likelihood_ratio_structure(solved_suite):
    worst = 0.0
    for problem, solution in solved_suite:
        check = ilr_check(problem, solution)
        worst = max(worst, check.max_violation)
    ok = worst <= 1e-7
    _certify(
        8,
        ok,
        "posterior likelihood-ratio equalities and inequalities across the suite",
        f"worst violation {worst:.2e}",
    )


def test_criterion_09_cumulant_identities(solved_suite):
    worst_mean = 0.0
    worst_var = 0.0
    worst_gain = 0.0
    for problem, solution in solved_suite:
        mean_err, var_err, gain_err = cumulant_errors(problem, solution)
        worst_mean = max(worst_mean, mean_err)
        worst_var = max(worst_var, var_err)
        worst_gain = max(worst_gain, gain_err)
    ok = worst_mean <= 1e-7 and worst_var <= 5e-6 and worst_gain <= 1e-5
    _certify(
        9,
        ok,
        "partition-function cumulants match conditional moments and KL gain",
        f"mean {worst_mean:.2e}, variance {worst_var:.2e}, gain {worst_gain:.2e}",
    )


def test_criterion_10_partition_function_invariance():
    problem = bh.duplicated_action_problem()
    partitions = []
    spreads = []
    for seed in range(5):
        cfg = bh.SolverConfig(
            foc_tolerance=1e-9,
            init="random",
            seed=seed,
            sinkhorn=bh.SinkhornConfig(tolerance=1e-12),
        )
        solution = bh.solve(problem, cfg)
        partitions.append(np.exp(log_partition(problem, solution.marginal)))
        spreads.append(solution.marginal.weights)
    worst = 0.0
    for za, zb in itertools.combinations(partitions, 2):
        worst = max(worst, float(np.abs(za - zb).max()))
    marginal_spread = float(
        max(np.abs(a - b).max() for a, b in itertools.combinations(spreads, 2))
    )
    ok = worst <= 1e-7
    _certify(
        10,
        ok,
        "duplicated actions leave the partition function invariant across seeds",
        f"max pairwise Z gap {worst:.2e}, marginal spread {marginal_spread:.2e}",
    )


def test_criterion_11_free_energy_minimality(solved_suite):
    worst = 0.0
    for problem, solution in solved_suite:
        check = free_energy_check(problem, solution)
        worst = max(worst, check.max_violation)
    ok = worst <= 1e-10
    _certify(
        11,
        ok,
        "no conditional policy beats the solved policy's average free energy",
        f"worst KL gap to the Gibbs policy {worst:.2e} nats over {len(solved_suite)} instances",
    )

"""Outer problem: envelope functionals, multiplicative updates, solve loop."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead import solver
from bridgehead.core import Potentials, gibbs_kernel, mutual_information, ri_objective, shifted_gain
from bridgehead.solver import (
    action_potential,
    foc_residuals,
    jensen_f,
    log_partition,
    logit_policy,
)
from bridgehead.core import plateau_defect

from conftest import TIGHT, _recording_platform, make_tracking, random_simplex
from reference import ba_step, kkt_direction


class TestLogPartition:
    def test_state_independent_uniform(self, state_independent):
        nu = bh.ActionMarginal.uniform(2)
        lz = log_partition(state_independent, nu)
        expected = np.log((np.e**2 + np.e) / 2.0)
        assert_allclose(lz, expected, atol=1e-14)

    def test_symmetric_uniform(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        assert_allclose(
            log_partition(symmetric_2x2, nu), np.log((np.e + 1.0) / 2.0), atol=1e-14
        )

    def test_matches_plain_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = bh.random_problem(int(rng.integers(1, 10_000)), 4, 5, lam=0.5)
            nu = bh.ActionMarginal(random_simplex(rng, 4))
            z_plain = np.exp(gibbs_kernel(p)).T @ nu.weights
            assert_allclose(np.exp(log_partition(p, nu)), z_plain, rtol=1e-12)

    def test_length_mismatch_rejected(self, symmetric_2x2):
        with pytest.raises(bh.InvalidInput):
            log_partition(symmetric_2x2, bh.ActionMarginal.uniform(5))


class TestJensenF:
    def test_is_prior_average_of_log_partition(self):
        p = bh.random_problem(11, 3, 4, lam=0.8)
        nu = bh.ActionMarginal(np.array([0.5, 0.3, 0.2]))
        assert_allclose(
            jensen_f(p, nu), float(p.prior @ log_partition(p, nu)), atol=0
        )

    def test_symmetric_uniform_closed_form(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        assert_allclose(jensen_f(symmetric_2x2, nu), np.log((np.e + 1.0) / 2.0))

    def test_concavity_on_segments(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            p = bh.random_problem(int(rng.integers(1, 10_000)), 5, 4, lam=0.6)
            w1, w2 = random_simplex(rng, 5), random_simplex(rng, 5)
            t = float(rng.uniform(0.1, 0.9))
            mix = bh.ActionMarginal(t * w1 + (1.0 - t) * w2)
            chord = t * jensen_f(p, bh.ActionMarginal(w1)) + (1.0 - t) * jensen_f(
                p, bh.ActionMarginal(w2)
            )
            assert jensen_f(p, mix) >= chord - 1e-10


class TestActionPotential:
    def test_dirac_on_dominant_action(self, state_independent):
        nu = bh.ActionMarginal.dirac(2, 0)
        assert_allclose(action_potential(state_independent, nu), [0.0, -1.0], atol=1e-14)

    def test_uniform_is_critical_for_symmetric(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        assert_allclose(action_potential(symmetric_2x2, nu), 0.0, atol=1e-14)

    def test_residual_is_expm1_of_potential(self):
        p = bh.random_problem(13, 4, 3, lam=1.3)
        nu = bh.ActionMarginal(np.array([0.4, 0.3, 0.2, 0.1]))
        a = action_potential(p, nu)
        r = foc_residuals(p, nu)
        assert np.array_equal(r, np.expm1(a))
        assert np.array_equal(np.sign(r), np.sign(a))


class TestBaStep:
    def test_uniform_start_closed_form(self, state_independent):
        nxt = ba_step(state_independent, bh.ActionMarginal.uniform(2))
        assert_allclose(nxt.weights, [np.e / (np.e + 1.0), 1.0 / (np.e + 1.0)], atol=1e-14)

    def test_fixed_point_at_symmetric_optimum(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        assert_allclose(ba_step(symmetric_2x2, nu).weights, nu.weights, atol=1e-14)

    def test_update_algebra_identity(self):
        # nu' - nu == nu (r - rbar) / (1 + rbar): the update direction is the
        # residual profile recentered by its own average, so plateaus and
        # fixed points coincide exactly
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = bh.random_problem(int(rng.integers(1, 10_000)), 4, 4, lam=0.7)
            w = random_simplex(rng, 4)
            nu = bh.ActionMarginal(w)
            r = foc_residuals(p, nu)
            rbar = float(w @ r)
            predicted = w * (r - rbar) / (1.0 + rbar)
            actual = ba_step(p, nu).weights - w
            assert np.abs(actual - predicted).max() <= 1e-14

    def test_monotone_ascent(self):
        for seed in (1, 2, 3):
            p = bh.random_problem(seed, 6, 5, lam=0.5)
            nu = bh.ActionMarginal.uniform(6)
            prev = jensen_f(p, nu)
            for _ in range(50):
                nu = ba_step(p, nu)
                cur = jensen_f(p, nu)
                assert cur >= prev - 1e-12
                prev = cur


class TestLogitPolicy:
    def test_columns_are_distributions(self):
        p = bh.random_problem(21, 4, 6, lam=0.9)
        nu = bh.ActionMarginal(np.array([0.1, 0.4, 0.3, 0.2]))
        policy = logit_policy(p, nu)
        assert_allclose(policy.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(policy >= 0)

    def test_prior_average_recovers_optimal_marginal(self, symmetric_2x2, solved_symmetric):
        problem, solution = symmetric_2x2, solved_symmetric
        policy = logit_policy(problem, solution.marginal)
        averaged = policy @ problem.prior
        assert np.abs(averaged - solution.marginal.weights).max() <= 1e-7

    def test_matches_stored_coupling_conditionals(self, state_independent, solved_state_independent):
        problem, solution = state_independent, solved_state_independent
        policy = logit_policy(problem, solution.marginal)
        assert np.abs(policy * problem.prior[None, :] - solution.coupling.joint).max() <= 1e-9


class TestSolverConfig:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(bh.InvalidInput):
            bh.SolverConfig(foc_tolerance=-1.0)

    def test_rejects_unknown_init(self):
        with pytest.raises(bh.InvalidInput):
            bh.SolverConfig(init="warmstart")
        with pytest.raises(bh.InvalidInput):
            bh.SolverConfig(init=np.array([0.5, 0.5]))

    def test_rejects_negative_seed(self):
        with pytest.raises(bh.InvalidInput, match="seed"):
            bh.SolverConfig(init="random", seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("foc_tolerance", "1e-7"),
            ("foc_tolerance", None),
            ("seed", 1.5),
            ("seed", False),
            ("seed", "7"),
            ("sinkhorn", {"tolerance": 1e-12}),
            ("sinkhorn", None),
            ("sinkhorn", 7),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(bh.InvalidInput, match=field):
            bh.SolverConfig(init="random", **{field: value})

    def test_accepts_numpy_integers(self):
        cfg = bh.SolverConfig(init="random", seed=np.int64(4), max_iterations=np.int32(9))
        assert (cfg.seed, cfg.max_iterations) == (4, 9)

    def test_marginal_init_must_match_action_count(self, symmetric_2x2):
        cfg = bh.SolverConfig(init=bh.ActionMarginal.uniform(3))
        with pytest.raises(bh.InvalidInput):
            bh.solve(symmetric_2x2, cfg)


class TestSolve:
    @pytest.mark.parametrize(
        "part, value",
        [
            ("marginal", bh.ActionMarginal.uniform(3)),
            ("foc_residuals", np.zeros(3)),
            ("potentials", Potentials(np.zeros(2), np.zeros(3))),
        ],
    )
    def test_parts_must_fit_the_coupling(self, solved_symmetric, part, value):
        with pytest.raises(bh.InvalidInput):
            dataclasses.replace(solved_symmetric, **{part: value})

    def test_consideration_set_is_read_off_the_marginal(self, solved_symmetric):
        assert solved_symmetric.consideration_set == (0, 1)
        point_mass = bh.ActionMarginal(np.array([1.0, 0.0]))
        moved = dataclasses.replace(solved_symmetric, marginal=point_mass)
        assert moved.consideration_set == (0,)
        parts = {f.name: getattr(moved, f.name) for f in dataclasses.fields(moved) if f.init}
        with pytest.raises(TypeError):
            bh.Solution(**parts, consideration_set=(0, 1))

    def test_symmetric_anchor(self, solved_symmetric):
        solution = solved_symmetric
        assert solution.converged
        assert_allclose(solution.marginal.weights, [0.5, 0.5], atol=1e-8)
        assert_allclose(solution.f_value, np.log((np.e + 1.0) / 2.0), atol=1e-10)
        diag = np.e / (2.0 * (1.0 + np.e))
        expected = np.array([[diag, 0.5 - diag], [0.5 - diag, diag]])
        assert np.abs(solution.coupling.joint - expected).max() <= 1e-8
        assert solution.consideration_set == (0, 1)

    def test_state_independent_anchor(self, solved_state_independent):
        solution = solved_state_independent
        assert solution.converged
        assert solution.marginal.weights[0] >= 1.0 - 1e-8
        assert_allclose(solution.f_value, 2.0, atol=1e-10)
        assert mutual_information(solution.coupling) <= 1e-10
        assert solution.consideration_set == (0,)
        assert_allclose(solution.foc_residuals[1], np.expm1(-1.0), atol=1e-8)

    def test_objective_equals_envelope_at_optimum(self, solved_suite):
        for problem, solution in solved_suite[:5]:
            obj = ri_objective(problem, solution.coupling)
            assert abs(obj - solution.f_value) <= 1e-8

    def test_initialization_independence(self):
        p = bh.random_problem(101, 5, 5, lam=0.8)
        base = bh.solve(p, TIGHT)
        for seed in (1, 2, 3):
            cfg = bh.SolverConfig(
                foc_tolerance=1e-9,
                init="random",
                seed=seed,
                sinkhorn=bh.SinkhornConfig(tolerance=1e-12),
            )
            other = bh.solve(p, cfg)
            assert np.abs(other.marginal.weights - base.marginal.weights).max() <= 1e-6
            assert abs(other.f_value - base.f_value) <= 1e-10

    def test_custom_initialization(self, symmetric_2x2):
        start = bh.ActionMarginal(np.array([0.9, 0.1]))
        cfg = bh.SolverConfig(foc_tolerance=1e-9, init=start)
        solution = bh.solve(symmetric_2x2, cfg)
        assert_allclose(solution.marginal.weights, [0.5, 0.5], atol=1e-7)

    def test_global_optimality_against_random_marginals(self, solved_suite):
        rng = np.random.default_rng(99)
        for problem, solution in solved_suite[:6]:
            m = problem.num_actions
            for _ in range(30):
                f_rand = jensen_f(problem, bh.ActionMarginal(random_simplex(rng, m)))
                assert solution.f_value >= f_rand - 1e-9

    def test_exhausted_budget_raises_with_solution(self):
        p = bh.random_problem(55, 6, 6, lam=0.2)
        cfg = bh.SolverConfig(max_iterations=1)
        with pytest.raises(bh.SolverNotConverged) as exc:
            bh.solve(p, cfg)
        partial = exc.value.solution
        assert not partial.converged
        assert partial.iterations == 1
        assert len(partial.marginal) == 6
        assert np.isfinite(partial.f_value)

    def test_failed_final_inner_solve_raises_with_solution(self):
        # the bridge at a solved marginal settles in one sweep, near 5e-17
        p = bh.random_problem(3, 6, 6, lam=1.0)
        cfg = bh.SolverConfig(
            foc_tolerance=1e-9,
            sinkhorn=bh.SinkhornConfig(tolerance=1e-17, max_iterations=2),
        )
        with pytest.raises(bh.SolverNotConverged, match="final inner solve") as exc:
            bh.solve(p, cfg)
        partial = exc.value.solution
        assert not partial.converged
        # the outer loop itself reached the plateau; only the bridge fell short
        assert partial.foc_residuals.max() <= 1e-9
        assert partial.coupling.joint.shape == (6, 6)
        assert partial.f_value == bh.solve(p, TIGHT).f_value

    @pytest.mark.parametrize(
        "args",
        [
            (846428920, 4, 10, 0.0509548473469122),
            (562348692, 11, 2, 0.054359349539630605),
            (944559259, 6, 5, 0.054287422122664734),
        ],
    )
    def test_log_domain_miss_raises_with_solution(self, args):
        # the plain-domain plateau passes at 1e-15; the log-domain residuals
        # that the solution reports miss it by rounding
        cfg = bh.SolverConfig(foc_tolerance=1e-15)
        with pytest.raises(bh.SolverNotConverged, match="log-domain plateau violation") as exc:
            bh.solve(bh.random_problem(*args), cfg)
        partial = exc.value.solution
        assert not partial.converged
        assert plateau_defect(partial.foc_residuals, partial.marginal.weights).max() > 1e-15

    def test_plateau_holds_at_reported_solution(self, solved_suite):
        for problem, solution in solved_suite:
            r = solution.foc_residuals
            sup = solution.marginal.weights > 1e-9
            assert np.abs(r[sup]).max() <= 1e-9
            assert r.max() <= 1e-9

    def test_duplicate_actions_share_log_partition(self):
        p = bh.duplicated_action_problem(seed=7)
        base = bh.solve(p, TIGHT)
        reference = log_partition(p, base.marginal)
        for seed in range(5):
            cfg = bh.SolverConfig(
                foc_tolerance=1e-9,
                init="random",
                seed=seed,
                sinkhorn=bh.SinkhornConfig(tolerance=1e-12),
            )
            solution = bh.solve(p, cfg)
            lz = log_partition(p, solution.marginal)
            assert np.abs(lz - reference).max() <= 1e-7
            assert abs(solution.f_value - base.f_value) <= 1e-10


def _assert_certified(solution):
    assert solution.converged
    sup = solution.marginal.weights > 1e-9
    assert np.abs(solution.foc_residuals[sup]).max() <= 1e-9
    assert solution.foc_residuals.max() <= 1e-9


# Instances of standard_suite(300, base_seed=5000), all at lam=4, on which the
# plain multiplicative update crawls along a flat support for over 100k steps.
@pytest.mark.parametrize("seed", [5039, 5048, 5165, 5240])
def test_flat_support_instances_converge(seed):
    problem = bh.standard_suite(300, base_seed=5000)[seed - 5001]
    _assert_certified(bh.solve(problem, TIGHT))


@pytest.mark.parametrize(
    "shape, lam",
    [((6, 6), 1e4), ((50, 2000), 1.0), ((300, 300), 0.25)],
    ids=["lam1e4", "50x2000", "300x300"],
)
def test_stress_instances_converge(shape, lam):
    _assert_certified(bh.solve(bh.random_problem(3, *shape, lam), TIGHT))


@pytest.mark.parametrize("args", [(509468365, 6, 16, 2e-4), (506423875, 7, 11, 1.18e-4)])
def test_underflowed_newton_candidate_warns_nothing(args):
    # a projected Newton candidate of _Ascent whose z underflows to 0 has
    # log(z_cand / z) = -inf, which the acceptance test rejects; NumPy's
    # divide-by-zero warning must not leak out of solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bh.solve(bh.random_problem(*args)).converged


@pytest.mark.parametrize("index", [3, 4, 6, 9])
def test_failed_line_search_takes_the_multiplicative_update(monkeypatch, index):
    # with no halving left every Newton line search fails, so each step of
    # _Ascent.step is the fallback w <- w * ratio: it crawls, to the same optimum
    problem = bh.standard_suite()[index]
    newton = bh.solve(problem, TIGHT)
    monkeypatch.setattr(solver, "_HALVINGS", 0)
    fallback = bh.solve(problem, TIGHT)
    assert newton.iterations <= 15 and fallback.iterations >= 150
    assert fallback.converged
    assert abs(fallback.f_value - newton.f_value) <= 1e-14


def test_free_set_larger_than_state_count_takes_newton():
    # 200 actions on 50 states: the free set exceeds n from the start; taking
    # the multiplicative update while |F| > n, solve needs 253 iterations
    solution = bh.solve(bh.random_problem(3, 200, 50, 1.0), TIGHT)
    _assert_certified(solution)
    assert solution.iterations <= 20


def test_random_batch_never_exhausts_the_budget():
    # 300 draws with m, n in [2, 30) and lam log-uniform in [0.01, 100]; taking
    # the multiplicative update wherever |F| > n, 9 of them exhaust 5,000
    rng = np.random.default_rng(7)
    cfg = bh.SolverConfig(foc_tolerance=1e-7, max_iterations=5_000)
    for _ in range(300):
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        lam = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        assert bh.solve(bh.random_problem(int(rng.integers(0, 2**31)), m, n, lam), cfg).converged


def _direction_inputs(problem: bh.Problem, w: np.ndarray):
    """R = G diag(sqrt(p) / z), the ratio R sqrt(p) and sqrt(p) at weights w."""
    gain = shifted_gain(problem)[0]
    z = w @ gain
    root_p = np.sqrt(problem.prior)
    return gain * (root_p / z)[None, :], gain @ (problem.prior / z), root_p


def test_direction_on_more_actions_than_states_matches_the_kkt():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(n + 1, 60))
        p = bh.random_problem(int(rng.integers(0, 10_000)), m, n, float(rng.uniform(0.2, 3.0)))
        rows, ratio, root_p = _direction_inputs(p, random_simplex(rng, m))
        d = solver._newton_direction(rows, ratio, root_p)
        reference = kkt_direction(rows, root_p)
        assert np.abs(d - reference).max() <= 1e-6 * np.abs(reference).max()


def test_direction_on_more_actions_than_states_is_equal_on_duplicated_rows():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(n + 1, 60))
        p = bh.random_problem(int(rng.integers(0, 10_000)), m, n, float(rng.uniform(0.2, 3.0)))
        copies = rng.integers(0, m, size=(2, 3))
        utility = p.utility.copy()
        utility[copies[1]] = utility[copies[0]]
        p = dataclasses.replace(p, utility=utility)
        d = solver._newton_direction(*_direction_inputs(p, random_simplex(rng, m)))
        for i, j in zip(*np.nonzero((utility[:, None, :] == utility[None, :, :]).all(axis=2))):
            assert d[i] == d[j]


def test_tracking_grids_converge_and_refine():
    # fine grids of near-duplicate actions, where the multiplicative update
    # alone exhausts 20,000 iterations at 41 and 81 actions
    cfg = dataclasses.replace(TIGHT, max_iterations=20_000)
    values = []
    for m in (21, 41, 81):
        solution = bh.solve(make_tracking(m, 0.01), cfg)
        _assert_certified(solution)
        values.append(solution.f_value)
    # the grids are nested, so refining cannot lower f
    assert values[0] <= values[1] <= values[2]


def _plain_ba_value(problem: bh.Problem, steps: int) -> float:
    """f after ``steps`` multiplicative updates from uniform (ba_step's arithmetic,
    on the shifted plain-domain kernel so that long runs stay cheap)."""
    kernel = gibbs_kernel(problem)
    shift = kernel.max(axis=0)
    gain = np.exp(kernel - shift)
    w = np.full(problem.num_actions, 1.0 / problem.num_actions)
    for _ in range(steps):
        w = w * (gain @ (problem.prior / (w @ gain)))
        w /= w.sum()
    return jensen_f(problem, bh.ActionMarginal(w))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_idle_action_elimination_is_sound(seed, m, n, lam):
    # eliminating an action on the optimal support would cap f below what
    # the plain update reaches; the grid brackets f* outright for m <= 3
    p = bh.random_problem(seed, m, n, lam)
    solution = bh.solve(p, TIGHT)
    assert solution.f_value >= _plain_ba_value(p, 20_000) - 1e-12
    if m <= 3:
        oracle = bh.grid_search_f(p)
        assert abs(solution.f_value - oracle.f_best) <= oracle.margin


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solve_always_reaches_certified_plateau(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    p = bh.random_problem(seed, m, n, lam=float(rng.uniform(0.3, 3.0)))
    solution = bh.solve(p, TIGHT)
    assert solution.converged
    sup = solution.marginal.weights > 1e-9
    assert np.abs(solution.foc_residuals[sup]).max() <= 1e-9
    assert solution.foc_residuals.max() <= 1e-9
    assert ri_objective(p, solution.coupling) <= solution.f_value + 1e-8


def _suite_pin(problem, solution, seed):
    """What a byte-moving change of ``standard_suite()`` at TIGHT must list:
    iterations, float.hex of f, one sha256 over the bytes of the marginal,
    the coupling, the action and state potentials and the foc residuals, and
    one over the 15 CheckResults of run_diagnostics(seed=seed) (name,
    float.hex of the violation, verdict and details)."""
    report = bh.run_diagnostics(problem, solution, seed=seed)
    checks = [(c.name, float(c.max_violation).hex(), c.passed, c.details) for c in report.checks]
    assert len(checks) == 15
    arrays = (
        solution.marginal.weights,
        solution.coupling.joint,
        solution.potentials.action,
        solution.potentials.state,
        solution.foc_residuals,
    )
    return (
        solution.iterations,
        float(solution.f_value).hex(),
        hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest(),
        hashlib.sha256(repr(checks).encode()).hexdigest(),
    )


# Recorded on the platform of the golden bridge pins (NumPy 2.4, x86-64 with
# AVX-512): the k-th problem of standard_suite() solved at TIGHT and audited
# by run_diagnostics(seed=k).  A change that moves one re-records it and
# lists what moved.
GOLDEN_SUITE = {
    0: (2, "0x1.7d8f7fe7f43b0p+1",
        "192b89bec50a06623328f039787869af9b03dc958e215d4853a4e47cc642f9a9",
        "9cdd74ffc40500c6e188ef817ce921e44b272f56e1f9a3e92dbef2382023d6cd"),
    1: (4, "0x1.b26b84c3ae6e8p-2",
        "f11a26524d1595aa7d3af587ada91044598d16c3f80e56811999d5f22b14d13c",
        "0fce087a89d647cb1aecc270678a339e9b9cf02eed6dbb2c69d046be46395029"),
    2: (3, "0x1.2088c26d6411bp-3",
        "647063e81d96d5ee0cf71c3a58078e169c10a0da3d822fd1187147f8c8c7c588",
        "8adcd2507b48040a3eea1bf740339e36baba2125c7ce748e8a5374aa6e3fa22d"),
    3: (9, "0x1.9a2ad4aaa5168p+1",
        "50c66f83402f34a4e279225536b507029f7ec68b41f46c82f9e98c7de2c12754",
        "ae5c2a6c47c06adf06b3dce38376dd75c4fd6eaf877f6fc39851da3a190ec3af"),
    4: (8, "0x1.47b2457fbbfcep-1",
        "9e110a537dbd5d80713bae27e8270409d0ea94da479353214ee5721b9deb0ca2",
        "5abd9ad5362d3ed1faa8b3e45c0b4780cad538bf57fc25f96917faf66e71cdd2"),
    5: (6, "0x1.3c6ceb84f3526p-3",
        "31c2f2074543bfc235a4836f6929ba1ae52feddc40ed62da816e169b1d27cd46",
        "b25ed77ac4804002f2f76c8dc0d228923b4001d2e73c445ebc709c388ab089dc"),
    6: (10, "0x1.72965fe0cdd27p+1",
        "1746eb0e2a51a3beea43830dec2e8c20c28a985fca7a71e90713154bd0ee5785",
        "c7d09bf85c5d9e6a0475660faf1becb3862febedeb48fa7c69a263b397478de5"),
    7: (8, "0x1.229338d604ffep-1",
        "5e36484ac5db0a5e60dd3e7eace190295675241410a23935e9e535b7eb54f079",
        "c27bcd7f777e44e2ead0dbdc1b3bb83eecee29d55078254b948ca5b614843b70"),
    8: (5, "0x1.4f36b22ee0eb6p-3",
        "7befa5afb37f5a8b6be7edca08acd97710c9a98302caac080c96e6abe8b0ffb8",
        "511c71fbc44394e1ca04cbcfe3009eb41f96d37aaa1cb8c2c7eae563e4795fc4"),
    9: (12, "0x1.75d96dda5e830p+1",
        "4f81f58aa54b45efd1f591fa8ee2cce24ab72ca3528021406f016671dc764b4a",
        "fb00cb55470f88e72be058f71cd6d5e671212978218b55fa237f27b821e8a761"),
    10: (2, "0x1.88cae53b0702cp-2",
         "57b4c8bbd2ebeb875a87993ef7211bb9ae60cf1124d3c83ba06758fe6aae9eaf",
         "78142804e3326779203bec2bdf490a24ac42490d0d593d90e765fccf27268777"),
    11: (3, "0x1.4f80914bfd801p-3",
         "3fd6f8e040072e542af79fc7c89c740c060d2ff90bf0e36516bb7c85146e03b7",
         "205d5313705f6dad1eb6d0c1979a1f912a7b81f8aa8c9de58126b7b8e9a3b869"),
    12: (7, "0x1.86a6a974f6d47p+1",
         "e459e57eef1ba4347fc73b954daab3504261c9c6e86d1c55263481bbd9c5b511",
         "c09c6a3e2ec4483ac10d737802f1c6b95a09d83ca98fb343a08ad7859ee45afc"),
    13: (7, "0x1.5164f61c15c05p-1",
         "da74e29852d260fc206afbb521309fa8f43f83c2152530615ebf88bfead2ad58",
         "61e56992506e4ce7cd3a12e62149f5e5481ad5d764b30664181c3170b75ca1e2"),
    14: (8, "0x1.6eedad80475dep-3",
         "908ad66b85b3035ae69bc7ac7a6623e43e5b5a48d742456ed0dd51f206c50eb6",
         "d4b4830b7018891eedcf46269f4b1f484049a32a67285ce4afd6a19cada40f04"),
    15: (11, "0x1.917d53f658be5p+1",
         "ffbd748cd3d3914bfbd7da99795f204722e10d72520bc9ef4eedd856ab6c7a8b",
         "0a518005bfb37122fd98c5a7212bcd2067fdaaee89dff7041e97709b7fcc45a6"),
    16: (9, "0x1.2d6702a23ad65p-1",
         "52c3bbb9e52ef5fcee16b1f73e1ea808dcdccd02886f2a5ec649d2697fd98ca7",
         "3751f16e8238f670f2deac4871dd53122ceefbf346b2950047247d87ae1a2a23"),
    17: (8, "0x1.3f8ceb8043a47p-3",
         "06d8366d9dcb62b8e697fa844a8aa3b6504a71ec25eb176e627e817a58417817",
         "b0b44e6400a44a9be1d206615c06d514c1d0eefdfeb69bf819a9b64ae284a3f4"),
    18: (12, "0x1.5b142f7e37ab6p+1",
         "e32fd8d508e5357a6ae622d99657134687bfee9436ddb2412d9770409d2306f0",
         "8f5ea54517454fb7b3a1370bd04f3d58c5e7e604ac3dc377a6c9096353e2eebd"),
    19: (8, "0x1.3e7a0b4bd4cb2p-1",
         "17df208e665a72e62b5e2a1c532fa833705bb85300772dc3096d595ca88689c7",
         "593623a98c5fb1a896def738556cfe526e63e06a1d1fe775a6a705039bfaa2b5"),
}


@pytest.mark.skipif(not _recording_platform(), reason="pins hold on the recording platform only")
@pytest.mark.parametrize("index", sorted(GOLDEN_SUITE))
def test_golden_suite_pins(solved_suite, index):
    problem, solution = solved_suite[index]
    assert _suite_pin(problem, solution, index) == GOLDEN_SUITE[index]

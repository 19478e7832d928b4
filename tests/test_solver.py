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
# lists what moved.  Last re-recorded when the Sinkhorn half-steps became
# plain matrix-vector products: the array and report digests moved, no
# iteration count or f byte.
GOLDEN_SUITE = {
    0: (2, "0x1.7d8f7fe7f43b0p+1",
         "0c9ac3bad8ce51ac6472828123e97bb43a662061f794c00371cb5983ff311320",
         "248b149437f9bd6e516f09928707816eaae3330f348a31e3311b0449348ecabb"),
    1: (4, "0x1.b26b84c3ae6e8p-2",
         "f674e41398b759d55805b60d0221f6c8e38880ad6c04751f27f7fa5e4bdec4dd",
         "0030b5d1e75e8a28cb66896ca5b5b3319abafb93959673719490f2212a16cf22"),
    2: (3, "0x1.2088c26d6411bp-3",
         "3a63ea401ab251a827f5fb4d04b8d69635caebf0f86873fe161eb31b6386f099",
         "92564b4477020874f024382f989a2e54d576ef252acbc61add3ea63d89adcc05"),
    3: (9, "0x1.9a2ad4aaa5168p+1",
         "2539c989ddab9072a6770cf54aadf4bd70cf10c7c74137777d28cc9d015eabe6",
         "1d762a36b67b37045458814649528bec0e7fa22f06fdc83cb45cb43a1446266f"),
    4: (8, "0x1.47b2457fbbfcep-1",
         "95ef195fadbe182f0fca6aaee742ef2fdbdaaff0336bddc820709e9236511c3f",
         "5a84e7cca3bd9f6ddee8a5d0720c862c9db70ca8281633001c1a180fa5d681dd"),
    5: (6, "0x1.3c6ceb84f3526p-3",
         "a83e118b6ead573c35ec5a6500d62fec0e71179b770deafa2a69485df7b68532",
         "336175a57c188d7225fa3af281a08b1c66a4931f014742da0b0ba8d8f3fa8081"),
    6: (10, "0x1.72965fe0cdd27p+1",
         "3b56164a730f00b4ed6bc3abce5058e73210b4ad89b70de6d88c663873071d25",
         "ce69d573900a853de2d86bc6c89b9da520fcb958c345dd811945c151eb114ccc"),
    7: (8, "0x1.229338d604ffep-1",
         "8f8e8ed2ccc4f8f73a31158d8d3f411cf18bb743302a5ada383e0f930e3daac6",
         "62b125adcb9da292020543e2b3e527a9d372dd0bb08e185aa3c3eec929a751e2"),
    8: (5, "0x1.4f36b22ee0eb6p-3",
         "8c4f6a100639d88965f571996354437c71d8e0bfd4dd45897477166e04fecb35",
         "0e43b32b28ca55829ea6cf6fb93ddcd2f88f30c6395f560ae604f560bc93ff7f"),
    9: (12, "0x1.75d96dda5e830p+1",
         "3b0e9d59c6173395ea27c29539df6befd554fbc374dd7dcf73d2b8b599950306",
         "96366ea1a6c2f492cf2594a3b8a29b97ce0b97b0032f7409cff60a48f42d4792"),
    10: (2, "0x1.88cae53b0702cp-2",
         "4f733b2e003141c1fc9c7f13670ff68c3dabe858aa9609495547a1ab2c0a2bbd",
         "687af1b22ee481117efd32c5509ecb0caa0d9cc9dbba2423560e5b1dc47bf0fb"),
    11: (3, "0x1.4f80914bfd801p-3",
         "e344448ef2abe194158cc65bbe7a374fd1904fb92a3b89670d14abcb2a5d9d75",
         "f8b15dab858ebbbdd7b9fd7f69c6435237e4f85f1632c2397c42e7378f973422"),
    12: (7, "0x1.86a6a974f6d47p+1",
         "c799bd15f17671e315def0ed9fe0134a431f3dd41b9522709cebc9e482b4a1c3",
         "b861903a4e86a90b6bd1ea421b3f6cc2fa0846bd203a5677742713bad0ce53a2"),
    13: (7, "0x1.5164f61c15c05p-1",
         "dfa1b9987aa5c0fb3ca1235ec5f743983fc1e5c7956c935bed83ff5e55424d28",
         "2332be669003bf779777d25a031e1a4d64fc909e9dbc6ad951e2bb23b41786ab"),
    14: (8, "0x1.6eedad80475dep-3",
         "0ce06cc6f2f4a66dbdc4fcd6507ff2eed824ff226d638d0c36299fedd854b90d",
         "64d2c49eb25cb0ec7bc21fd05aba1100e44290c50aa629f4709f796f5eb01611"),
    15: (11, "0x1.917d53f658be5p+1",
         "f89b1d2e25cc30e609cb8a5309a9672df633b0fcd8bcf31496de2c5d08e34578",
         "3fe2c9e5073e83fd08ec0edab352d5ada4d232fbf119003933d0be6905cd2c09"),
    16: (9, "0x1.2d6702a23ad65p-1",
         "607348f39c1fc1bb5474ca4a906d78a2dccd00f15c10ed415eb77bc7bf2335a6",
         "464043296209e4ea3c9ee703fbe9555b0eb58e4eab3a9b9a0d97375a03bd4a1a"),
    17: (8, "0x1.3f8ceb8043a47p-3",
         "881beb50d22fc469c6ea9c273f20897a876ac5d69c5328d3f7a7b4378b91289d",
         "ec9db354e62f388ee1ac92e0b4c8fdf50a405f024da2e124e7ec75b8c0f0e25b"),
    18: (12, "0x1.5b142f7e37ab6p+1",
         "3b2061e62d68e873d486fbcb3b726c5206f09d8d818009aa59794cd6bdbcfa8b",
         "038dd0757d0ceaed52394ae50f6977d513555dbaee7fc6d9a750d3ba3e2aedbe"),
    19: (8, "0x1.3e7a0b4bd4cb2p-1",
         "71f57fed858820845659caaab52ffdf3bffb855915506153183aea62d8f942ed",
         "a4c945d52e6497aa1711a74f79a1f2560519e822baf938c4d6ef2a06fd1a513f"),
}


@pytest.mark.skipif(not _recording_platform(), reason="pins hold on the recording platform only")
@pytest.mark.parametrize("index", sorted(GOLDEN_SUITE))
def test_golden_suite_pins(solved_suite, index):
    problem, solution = solved_suite[index]
    assert _suite_pin(problem, solution, index) == GOLDEN_SUITE[index]

"""Outer problem: envelope functionals, multiplicative updates, solve loop."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead import solver
from bridgehead.core import Potentials, gibbs_kernel, mutual_information, ri_objective
from bridgehead.solver import (
    action_potential,
    foc_residuals,
    jensen_f,
    log_partition,
    logit_policy,
)

from conftest import TIGHT, random_simplex
from reference import ba_step


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

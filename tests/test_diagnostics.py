"""Certificates: plateaus, derivative identities, posteriors, free energy."""

import dataclasses
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead import bridge, diagnostics
from bridgehead.core import Coupling, Potentials, gibbs_kernel, weighted_logsumexp
from bridgehead.diagnostics import (
    PosteriorNotNormalizable,
    average_free_energy,
    cumulant_errors,
    free_energy_check,
    gateaux_f,
    gateaux_value_direction,
    gibbs_plateau_check,
    ilr_check,
)
from bridgehead.solver import jensen_f, log_partition, logit_policy

from conftest import TIGHT, random_simplex
from reference import envelope_raw, gateaux_value_state

SINKHORN = bh.SinkhornConfig(tolerance=1e-12)


class TestEnvelopeDerivatives:
    def test_gateaux_f_matches_central_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = bh.random_problem(int(rng.integers(1, 10_000)), 4, 3, lam=0.9)
            nu = bh.ActionMarginal(random_simplex(rng, 4) * 0.8 + 0.05)
            psi = bh.ActionMarginal(random_simplex(rng, 4))
            analytic = gateaux_f(p, nu, psi)
            h = 1e-6
            hi = envelope_raw(p, nu.weights + h * (psi.weights - nu.weights))
            lo = envelope_raw(p, nu.weights - h * (psi.weights - nu.weights))
            assert abs(analytic - (hi - lo) / (2.0 * h)) <= 1e-8

    def test_gateaux_f_nonpositive_at_optimum(self, solved_suite):
        rng = np.random.default_rng(8)
        for problem, solution in solved_suite[:4]:
            for _ in range(10):
                psi = bh.ActionMarginal(random_simplex(rng, problem.num_actions))
                assert gateaux_f(problem, solution.marginal, psi) <= 1e-8

    def test_envelope_raw_agrees_with_jensen_f_on_simplex(self):
        p = bh.random_problem(42, 3, 3, lam=0.5)
        w = np.array([0.2, 0.5, 0.3])
        assert_allclose(
            envelope_raw(p, w), jensen_f(p, bh.ActionMarginal(w)), atol=1e-15
        )


class TestStackedGateauxCheck:
    """run_diagnostics evaluates its gateaux_f directions as one stack."""

    @pytest.mark.parametrize("m", [2, 6, 16])
    @pytest.mark.parametrize("seed", [0, 1, 99, 20240817])
    def test_stacked_draws_are_successive_draws(self, seed, m):
        stacked = np.random.default_rng(seed).dirichlet(np.ones(m), size=10)
        rng = np.random.default_rng(seed)
        successive = np.array([rng.dirichlet(np.ones(m)) for _ in range(10)])
        assert np.array_equal(stacked, successive)

    @staticmethod
    def _assert_rows_match_one_direction_calls(problem, nu, seed):
        psi = np.random.default_rng(seed).dirichlet(np.ones(problem.num_actions), size=10)
        analytic = diagnostics._gateaux_rows(problem, log_partition(problem, nu), psi)
        one = [gateaux_f(problem, nu, bh.ActionMarginal(w)) for w in psi]
        assert_allclose(analytic, one, rtol=1e-15, atol=0)
        envelope = diagnostics._plain_envelope(problem)
        for t in (-1e-5, 1e-5):
            weights = nu.weights + t * (psi - nu.weights)
            one = [envelope_raw(problem, w) for w in weights]
            assert_allclose(envelope(weights), one, rtol=1e-15, atol=0)

    def test_rows_match_one_direction_calls_on_suite(self, solved_suite):
        for seed, (problem, solution) in enumerate(solved_suite):
            self._assert_rows_match_one_direction_calls(problem, solution.marginal, seed)

    def test_rows_match_one_direction_calls_at_200x50(self):
        problem = bh.random_problem(200, 200, 50, lam=1.0)
        nu = bh.ActionMarginal(random_simplex(np.random.default_rng(5), 200))
        self._assert_rows_match_one_direction_calls(problem, nu, 5)

    def test_check_reads_the_one_direction_calls(self, solved_suite):
        # the violation the report holds, rebuilt from the public one-direction
        # calls along the directions that successive draws of the seed give
        h = 1e-5
        for seed, (problem, solution) in enumerate(solved_suite[:5]):
            nu = solution.marginal
            rng = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(10):
                psi = rng.dirichlet(np.ones(problem.num_actions))
                step = h * (psi - nu.weights)
                numeric = (envelope_raw(problem, nu.weights + step)
                           - envelope_raw(problem, nu.weights - step)) / (2.0 * h)
                worst = max(worst, abs(gateaux_f(problem, nu, bh.ActionMarginal(psi)) - numeric))
            check = bh.run_diagnostics(problem, solution, seed=seed).by_name("gateaux_f")
            assert check.max_violation == pytest.approx(worst, rel=0, abs=1e-10)


class TestInnerValueDerivatives:
    def test_central_beats_forward(self):
        p = bh.random_problem(6, 3, 3, lam=0.8)
        nu = bh.ActionMarginal(np.array([0.5, 0.3, 0.2]))
        analytic, cen = gateaux_value_direction(p, nu, bh.ActionMarginal.dirac(3, 1), h=1e-4)
        assert abs(analytic - cen) <= 1e-7

    def test_small_lambda_probe_solves_converge(self):
        # the six probe solves of run_diagnostics at lam=0.01, which Sinkhorn
        # alone leaves near residual 2e-6 after the default 10,000 sweeps
        p = bh.random_problem(3, 6, 6, lam=0.01)
        nu = bh.solve(p, TIGHT).marginal.weights
        for alpha in (0, 1, 3):
            direction = bh.ActionMarginal.dirac(6, alpha).weights - nu
            for t in (-1e-5, 1e-5):
                res = bh.sinkhorn_bridge(p, bh.ActionMarginal(nu + t * direction), SINKHORN)
                assert res.residual <= 1e-12

    def test_marginal_with_exact_zero(self):
        # run_diagnostics differentiates at solved marginals, which carry
        # exact zeros off the consideration set
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = bh.random_problem(int(rng.integers(1, 10_000)), 4, 4, lam=0.8)
            weights = random_simplex(rng, 4) * 0.8 + 0.05
            weights[rng.integers(4)] = 0.0
            nu = bh.ActionMarginal(weights / weights.sum())
            for action in np.flatnonzero(nu.weights):
                psi = bh.ActionMarginal.dirac(4, action)
                analytic, numeric = gateaux_value_direction(p, nu, psi)
                assert abs(analytic - numeric) <= 1e-6

    def test_direction_form_matches_point_mass_form(self):
        p = bh.random_problem(14, 3, 4, lam=0.7)
        nu = bh.ActionMarginal(np.array([0.4, 0.35, 0.25]))
        psi = bh.ActionMarginal.dirac(3, 2)
        a_dir, n_dir = gateaux_value_direction(p, nu, psi, h=1e-5)
        potential = bh.sinkhorn_bridge(p, nu, SINKHORN).potentials.action
        a_pt = potential[2] - nu.weights @ potential
        assert_allclose(a_dir, a_pt, atol=1e-12)
        assert abs(a_dir - n_dir) <= 1e-4

    def test_back_step_error_is_raised_first(self, monkeypatch):
        # the back and forward steps are solved as one stack; where both
        # fail, the back step's BridgeNotConverged is the one raised
        p = bh.random_problem(6, 3, 3, lam=0.8)
        nu = bh.ActionMarginal(np.array([0.5, 0.3, 0.2]))
        result = bh.sinkhorn_bridge(p, nu, SINKHORN)
        back, forward = (bh.BridgeNotConverged(k, 1.0, result) for k in (1, 2))
        for errors, raised in [([back, forward], back), ([None, forward], forward)]:
            monkeypatch.setattr(diagnostics, "_primal_values", lambda *args: (np.zeros(2), errors))
            with pytest.raises(bh.BridgeNotConverged) as err:
                gateaux_value_direction(p, nu, bh.ActionMarginal.dirac(3, 1))
            assert err.value is raised

    def test_state_side_identity(self):
        p = bh.random_problem(25, 3, 4, lam=1.1)
        nu = bh.ActionMarginal(np.array([0.3, 0.4, 0.3]))
        for state in range(4):
            analytic, numeric = gateaux_value_state(p, nu, state, h=1e-6)
            assert abs(analytic - numeric) <= 1e-6

    def test_state_index_validated(self):
        p = bh.random_problem(25, 3, 4)
        for state in (7, -1, 1.0, True):
            with pytest.raises(bh.InvalidInput, match="state"):
                gateaux_value_state(p, bh.ActionMarginal.uniform(3), state)


_DERIVATIVES = {
    "point_mass": lambda p, nu, **kw: gateaux_value_direction(
        p, nu, bh.ActionMarginal.dirac(3, 0), **kw
    ),
    "direction": lambda p, nu, **kw: gateaux_value_direction(
        p, nu, bh.ActionMarginal.dirac(3, 2), **kw
    ),
    "state": lambda p, nu, **kw: gateaux_value_state(p, nu, 1, **kw),
}


class TestDifferenceScheme:
    @pytest.mark.parametrize("derivative", _DERIVATIVES.values(), ids=_DERIVATIVES.keys())
    def test_central_step_outside_simplex_rejected(self, derivative):
        # the back step of h = 0.9 turns a target weight below 0.9 / 1.9 negative
        p = bh.random_problem(25, 3, 4, lam=1.1)
        assert p.prior[1] < 0.9 / 1.9
        nu = bh.ActionMarginal(np.array([0.3, 0.4, 0.3]))
        with pytest.raises(bh.InvalidInput, match="leaves the simplex"):
            derivative(p, nu, h=0.9)
        # a step that is not a finite real > 0 is rejected before any solve
        for h in (0, -1e-5, float("inf"), float("nan"), True, "1e-5"):
            with pytest.raises(bh.InvalidInput, match="h must be"):
                derivative(p, nu, h=h)


class TestIlrCheck:
    def test_passes_on_solved_anchors(self, symmetric_2x2, solved_symmetric):
        res = ilr_check(symmetric_2x2, solved_symmetric)
        assert res.passed
        assert res.max_violation <= 1e-9

    def test_passes_across_suite(self, solved_suite):
        for problem, solution in solved_suite[:5]:
            assert ilr_check(problem, solution).passed


class TestBeliefFeasibility:
    def test_full_support_recovers_marginal(self, solved_suite):
        problem, solution = solved_suite[0]
        sup = list(solution.consideration_set)
        anchor = sup[int(np.argmax(solution.marginal.weights[sup]))]
        posterior = solution.coupling.joint[anchor] / solution.marginal.weights[anchor]
        res = bh.belief_feasibility(problem, sup, anchor, posterior)
        assert res.feasible
        assert res.residual <= 1e-8
        assert_allclose(res.weights, solution.marginal.weights[sup], atol=1e-6)

    def test_singleton_with_prior_posterior_is_feasible(self, symmetric_2x2):
        res = bh.belief_feasibility(symmetric_2x2, [0], 0, symmetric_2x2.prior)
        assert res.feasible
        assert_allclose(res.weights, [1.0], atol=1e-10)

    def test_singleton_with_informative_posterior_is_infeasible(self, symmetric_2x2):
        post = np.array([np.e / (1 + np.e), 1 / (1 + np.e)])
        res = bh.belief_feasibility(symmetric_2x2, [0], 0, post)
        assert not res.feasible
        assert res.weights is None
        assert res.residual > 0.1

    def test_truncated_pair_missing_the_prior_is_infeasible(self):
        utility = np.array([[1.0, 0.0], [0.0, 1.0], [-5.0, -5.0]])
        p = bh.Problem(("a", "b", "c"), ("x", "y"), utility, 1.0, np.array([0.5, 0.5]))
        post = np.array([np.e / (1 + np.e), 1 / (1 + np.e)])
        res = bh.belief_feasibility(p, [0, 2], 0, post)
        assert not res.feasible

    def test_overflowing_image_raises(self):
        utility = np.array([[0.0, 0.0], [800.0, 800.0]])
        p = bh.Problem(("a", "b"), ("x", "y"), utility, 1.0, np.array([0.5, 0.5]))
        with pytest.raises(PosteriorNotNormalizable):
            bh.belief_feasibility(p, [0, 1], 0, np.array([0.5, 0.5]))

    def test_anchor_must_be_in_candidate_set(self, symmetric_2x2):
        with pytest.raises(bh.InvalidInput):
            bh.belief_feasibility(symmetric_2x2, [0], 1, symmetric_2x2.prior)
        # indices must be integers in [0, m): a bool, a float, an index past
        # m and a negative one are rejected, not used as NumPy would use them;
        # an empty candidate set cannot hold the anchor
        problem = bh.random_problem(1, 3, 4)
        posterior = np.full(4, 0.25)
        bad = [([0, 1], True), ([0, 1], 1.0), ([0, 5], 0), ([0, 1.7], 0), ([0, -1], 0), ([], 0)]
        for candidates, anchor in bad:
            with pytest.raises(bh.InvalidInput):
                bh.belief_feasibility(problem, candidates, anchor, posterior)


class TestCumulants:
    def test_symmetric_closed_form_moments(self, symmetric_2x2, solved_symmetric):
        cond = logit_policy(symmetric_2x2, solved_symmetric.marginal)
        mean = (cond * symmetric_2x2.utility).sum(axis=0)
        var = (cond * symmetric_2x2.utility**2).sum(axis=0) - mean**2
        assert_allclose(mean, np.e / (1 + np.e), atol=1e-9)
        assert_allclose(var, np.e / (1 + np.e) ** 2, atol=1e-9)

    def test_errors_small_at_default_step(self, symmetric_2x2, solved_symmetric):
        mean_err, var_err, gain_err = cumulant_errors(symmetric_2x2, solved_symmetric)
        assert mean_err <= 1e-7
        assert var_err <= 5e-6
        assert gain_err <= 1e-5

    def test_check_triple_names_and_tolerances(self, symmetric_2x2, solved_symmetric):
        report = bh.run_diagnostics(symmetric_2x2, solved_symmetric)
        triple = [c for c in report if c.name.startswith("cumulant_")]
        names = [c.name for c in triple]
        assert names == ["cumulant_mean", "cumulant_variance", "cumulant_gain"]
        assert [c.tolerance for c in triple] == [1e-7, 5e-6, 1e-5]
        assert all(c.passed for c in triple)

    def test_stacked_temperatures_keep_the_bits(self, solved_suite):
        # b(t) at the three temperatures is one stacked log-sum-exp; each of
        # its rows must carry the bits of a call at that temperature alone
        h = diagnostics._CUMULANT_STEP
        t = np.array([1.0, 1.0 + h, 1.0 - h])
        for problem, solution in solved_suite:
            weights = solution.marginal.weights
            kernel = gibbs_kernel(problem)
            kernel = kernel - kernel[weights > 0].max(axis=0)
            stacked = weighted_logsumexp(t[:, None, None] * kernel, weights, axis=1)
            for row, temperature in zip(stacked, t):
                alone = weighted_logsumexp(temperature * kernel, weights, axis=0)
                assert [x.hex() for x in row] == [x.hex() for x in alone]

    def test_passes_across_suite(self, solved_suite):
        for problem, solution in solved_suite[:5]:
            report = bh.run_diagnostics(problem, solution)
            for name in ("cumulant_mean", "cumulant_variance", "cumulant_gain"):
                assert report.by_name(name).passed, report.by_name(name)


def _mass_off_support(joint):
    joint[1] = 0.01  # action lo, outside the support of nu


def _tilt_off_gibbs(joint):
    joint[0, 0] *= 1.01


class TestFreeEnergy:
    def test_solved_conditionals_score_minus_lambda_f(self, solved_suite):
        for problem, solution in solved_suite[:5]:
            joint = solution.coupling.joint
            cond = joint / joint.sum(axis=0, keepdims=True)
            value = average_free_energy(problem, cond, solution.marginal.weights)
            assert abs(value + problem.lam * solution.f_value) <= 1e-8

    def test_product_gap_identity(self, solved_suite):
        # swapping the solved conditionals for the marginal itself raises the
        # average free energy by exactly lam * f - E_product[u]
        for problem, solution in solved_suite[:5]:
            joint = solution.coupling.joint
            cond = joint / joint.sum(axis=0, keepdims=True)
            w = solution.marginal.weights
            base = average_free_energy(problem, cond, w)
            prod = average_free_energy(problem, np.tile(w[:, None], problem.num_states), w)
            e_prod = float(w @ problem.utility @ problem.prior)
            assert abs((prod - base) - (problem.lam * solution.f_value - e_prod)) <= 1e-8

    def test_escaping_support_scores_infinite(self, state_independent):
        cond = np.array([[0.0, 0.0], [1.0, 1.0]])
        value = average_free_energy(state_independent, cond, np.array([1.0, 0.0]))
        assert value == np.inf

    def test_check_passes_on_suite(self, solved_suite):
        for problem, solution in solved_suite[:5]:
            res = free_energy_check(problem, solution)
            assert res.passed
            assert res.max_violation <= 1e-9

    @pytest.mark.parametrize(
        "anchor, edit, gap",
        [("state_independent", _mass_off_support, np.inf), ("symmetric_2x2", _tilt_off_gibbs, 4.9e-6)],
    )
    def test_edited_couplings_fail(self, request, anchor, edit, gap):
        problem = request.getfixturevalue(anchor)
        solution = bh.solve(problem, TIGHT)
        joint = solution.coupling.joint.copy()
        edit(joint)
        joint /= joint.sum()
        tampered = dataclasses.replace(solution, coupling=Coupling(joint))
        res = free_energy_check(problem, tampered)
        assert not res.passed
        assert res.max_violation == pytest.approx(gap, rel=0.02)


class TestGibbsPlateau:
    def test_passes_on_solved_suite(self, solved_suite):
        for problem, solution in solved_suite[:5]:
            assert gibbs_plateau_check(problem, solution).passed

    def test_empty_state_column_reads_infinite(self, symmetric_2x2, solved_symmetric):
        # conditionals do not exist for a state the coupling gives no mass;
        # both coupling-level checks fail on it instead of dividing by zero
        joint = np.array([[0.5, 0.0], [0.5, 0.0]])
        emptied = dataclasses.replace(solved_symmetric, coupling=Coupling(joint))
        for check in (free_energy_check, gibbs_plateau_check):
            res = check(symmetric_2x2, emptied)
            assert not res.passed
            assert res.max_violation == np.inf
            assert res.details == "coupling has empty states"

    def test_detects_coupling_edits(self, symmetric_2x2, solved_symmetric):
        # a singleton consideration set would be scale-invariant, so tamper a
        # coupling with two supported actions
        joint = solved_symmetric.coupling.joint.copy()
        joint[0, 0] *= 1.5
        joint /= joint.sum()
        tampered = dataclasses.replace(solved_symmetric, coupling=Coupling(joint))
        assert not gibbs_plateau_check(symmetric_2x2, tampered).passed


class TestUnderflowedCouplings:
    """At lam = 1e-3 a converged solve stores supported coupling entries as 0
    or as subnormals, which the Gibbs formula also puts below the smallest
    normal double; gibbs_plateau and ilr set exactly those entries aside."""

    @pytest.mark.parametrize("lam", [1e-3, 2e-3, 5e-3])
    def test_small_lambda_solves_pass(self, lam):
        for seed in range(3, 23):
            problem = bh.random_problem(seed, 6, 6, lam)
            solution = bh.solve(problem, TIGHT)
            assert gibbs_plateau_check(problem, solution).passed, seed
            assert ilr_check(problem, solution).passed, seed

    @pytest.mark.parametrize("seed, zeros, subnormals", [(3, 3, 0), (5, 4, 2)])
    def test_underflowed_entries_are_set_aside(self, seed, zeros, subnormals):
        problem = bh.random_problem(seed, 6, 6, 1e-3)
        solution = bh.solve(problem, TIGHT)
        joint = solution.coupling.joint[list(solution.consideration_set)]
        assert (joint == 0).sum() == zeros
        assert ((joint > 0) & (joint < np.finfo(float).tiny)).sum() == subnormals
        assert gibbs_plateau_check(problem, solution).max_violation <= 1e-12
        assert ilr_check(problem, solution).max_violation <= 1e-12

    @pytest.mark.parametrize("seed", [3, 5])
    def test_zeroed_largest_entry_fails(self, seed):
        problem = bh.random_problem(seed, 6, 6, 1e-3)
        solution = bh.solve(problem, TIGHT)
        joint = solution.coupling.joint.copy()
        sup = list(solution.consideration_set)
        largest = np.unravel_index(np.argmax(joint[sup]), joint[sup].shape)
        joint[sup[largest[0]], largest[1]] = 0.0
        joint /= joint.sum()
        tampered = dataclasses.replace(solution, coupling=Coupling(joint))
        assert not gibbs_plateau_check(problem, tampered).passed
        assert not ilr_check(problem, tampered).passed

    @pytest.mark.parametrize("seed", range(3, 23))
    def test_report_entries_are_the_public_checks(self, seed):
        problem = bh.random_problem(seed, 6, 6, 1e-3)
        _assert_report_reads_the_public_checks(problem, bh.solve(problem, TIGHT))

    def test_every_check_passes_on_a_one_sided_bracket(self):
        # the probe solves converge, but the inner value curves on a scale
        # far below h: the central difference missed the analytic derivative
        # by 83.2, and the one-sided quotients bracket it 270 nats wide
        problem = bh.random_problem(3, 6, 6, 1e-3)
        report = bh.run_diagnostics(problem, bh.solve(problem, TIGHT))
        assert report.all_pass, [c for c in report if not c.passed]
        check = report.by_name("gateaux_value")
        assert check.max_violation == 0.0
        assert check.details == "one-sided brackets at [0, 1, 2], widest 2.705e+02"


class TestGateauxValueBracket:
    """Where the one-sided quotients q+ = (V(h) - V(0)) / h and
    q- = (V(0) - V(-h)) / h lie more than 1e-3 apart, gateaux_value holds
    the analytic derivative to the bracket [q+, q-] in place of the central
    difference; narrower brackets keep the central comparison."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("lam", [1e-2, 5e-3, 1e-3])
    def test_small_lambda_instances_pass_and_state_the_width(self, seed, lam):
        problem = bh.random_problem(seed, 6, 6, lam)
        report = bh.run_diagnostics(problem, bh.solve(problem, TIGHT))
        assert report.all_pass, [c for c in report if not c.passed]
        assert re.fullmatch(
            r"one-sided brackets at \[\d, \d, \d\], widest \d\.\d{3}e\+0[0-2]",
            report.by_name("gateaux_value").details,
        )

    def test_quotients_bracket_the_analytic_derivative_from_below_and_above(self):
        # V is concave along a probe line, so q+ <= V' <= q-: at lam = 0.01
        # q+ reads about -4.1 and q- about +3.9 around an analytic value of 0
        problem = bh.random_problem(3, 6, 6, 0.01)
        nu = bh.solve(problem, TIGHT).marginal
        fresh = bh.sinkhorn_bridge(problem, nu, SINKHORN)
        points = np.eye(6)[[0, 1, 3]]
        h = diagnostics._FD_STEP
        analytic, back, forward, failed = diagnostics._toward(problem, nu, points, h, fresh)
        assert failed == [None, None, None]
        q_plus = (forward - fresh.value_primal) / h
        q_minus = (fresh.value_primal - back) / h
        assert np.all(q_plus < -3.0) and np.all(q_minus > 3.0)
        assert np.all((q_plus <= analytic) & (np.array(analytic) <= q_minus))

    def test_an_analytic_value_outside_the_bracket_fails(self):
        # moving the audit's potential of action 0 by 100 nats moves its
        # analytic derivative far outside the 8-nat bracket
        problem = bh.random_problem(3, 6, 6, 0.01)
        nu = bh.solve(problem, TIGHT).marginal
        fresh = bh.sinkhorn_bridge(problem, nu, SINKHORN)
        action = fresh.potentials.action.copy()
        action[0] += 100.0
        moved = dataclasses.replace(fresh, potentials=Potentials(action, fresh.potentials.state))
        worst, details = diagnostics._gateaux_value(problem, nu, [0, 1, 3], moved)
        assert worst > 50.0
        assert details.startswith("one-sided brackets at [0, 1, 3], widest ")

    def test_suite_brackets_are_narrow(self, solved_suite):
        # every standard_suite() probe brackets its derivative within 3e-5,
        # so the suite keeps the central comparison and its details
        for problem, solution in solved_suite:
            details = bh.run_diagnostics(problem, solution).by_name("gateaux_value").details
            assert details.startswith("central differences at ") and "bracket" not in details


def _assert_report_reads_the_public_checks(problem, solution):
    """The report's posterior, cumulant and free-energy entries are what the
    public checks return, bit for bit."""
    report = bh.run_diagnostics(problem, solution)
    public = [ilr_check(problem, solution), gibbs_plateau_check(problem, solution),
              free_energy_check(problem, solution)]
    for check in public:
        assert report.by_name(check.name) == check
        assert report.by_name(check.name).max_violation.hex() == check.max_violation.hex()
    errors = cumulant_errors(problem, solution)
    for name, error in zip(("cumulant_mean", "cumulant_variance", "cumulant_gain"), errors):
        assert report.by_name(name).max_violation.hex() == error.hex()


class TestRunDiagnostics:
    def test_rejects_another_problems_solution(self, solved_suite, symmetric_2x2):
        _, solution = solved_suite[1]
        with pytest.raises(bh.InvalidInput, match="solution coupling"):
            bh.run_diagnostics(symmetric_2x2, solution)
        # the seed, too, must be an integer >= 0
        problem, solution = solved_suite[1]
        for seed in (-1, 1.5, True):
            with pytest.raises(bh.InvalidInput, match="seed"):
                bh.run_diagnostics(problem, solution, seed=seed)

    def test_shifted_action_potentials_fail_coupling_consistency(self, solved_suite):
        # a constant added to a leaves the conditionals but scales the
        # rebuilt coupling's mass by exp(-1): PotentialsInconsistent, reported
        problem, solution = solved_suite[1]
        potentials = Potentials(solution.potentials.action + 1.0, solution.potentials.state)
        report = bh.run_diagnostics(problem, dataclasses.replace(solution, potentials=potentials))
        check = report.by_name("coupling_consistency")
        assert not check.passed
        assert check.max_violation == np.inf
        assert check.details.startswith("potentials give total mass")

    def test_full_report_passes(self, solved_suite):
        problem, solution = solved_suite[1]
        report = bh.run_diagnostics(problem, solution)
        assert report.all_pass, [c for c in report if not c.passed]
        assert len(list(report)) == 15

    def test_expected_check_names_present(self, solved_suite):
        problem, solution = solved_suite[0]
        report = bh.run_diagnostics(problem, solution)
        names = {c.name for c in report}
        assert {
            "marginal_residual",
            "duality_gap",
            "additive_separability",
            "schrodinger_equations",
            "coupling_consistency",
            "kt_plateau",
            "gibbs_plateau",
            "ilr",
            "cumulant_mean",
            "cumulant_variance",
            "cumulant_gain",
            "free_energy",
            "gateaux_f",
            "gateaux_value",
            "envelope_touch",
        } == names
        assert report.by_name("kt_plateau").passed

    def test_kt_plateau_names_the_worst_action(self, solved_suite):
        # the plateau defect is |r| on the support (mass above 1e-9), r off it
        for i, (problem, solution) in enumerate(solved_suite):
            check = bh.run_diagnostics(problem, solution).by_name("kt_plateau")
            k = int(re.search(r"worst_index=(\d+)", check.details).group(1))
            r = solution.foc_residuals
            defect = np.where(solution.marginal.weights > 1e-9, np.abs(r), r)
            assert defect[k] == check.max_violation == defect.max(), (i, k)

    def test_corrupted_coupling_fails_consistency_checks(self, symmetric_2x2, solved_symmetric):
        rng = np.random.default_rng(0)
        joint = solved_symmetric.coupling.joint * rng.uniform(
            0.7, 1.3, solved_symmetric.coupling.joint.shape
        )
        joint /= joint.sum()
        tampered = dataclasses.replace(solved_symmetric, coupling=Coupling(joint))
        report = bh.run_diagnostics(symmetric_2x2, tampered)
        assert not report.all_pass
        failed = {c.name for c in report if not c.passed}
        assert "coupling_consistency" in failed or "gibbs_plateau" in failed

    def test_gibbs_kernel_builds_stay_bounded(self, solved_suite, monkeypatch):
        # counted as perfbench's tracer counts them: wrapped in every module
        # that imports it, so shifted_gain's call inside core counts too
        calls = []
        for counted_name in ("gibbs_kernel", "log_partition"):
            function = getattr(bh.solver, counted_name)

            def counted(*args, _name=counted_name, _function=function):
                calls.append(_name)
                return _function(*args)

            for name, module in list(sys.modules.items()):
                if name == "bridgehead" or name.startswith("bridgehead."):
                    for attr, value in list(vars(module).items()):
                        if value is function:
                            monkeypatch.setattr(module, attr, counted)
        problem, solution = solved_suite[1]
        bh.run_diagnostics(problem, solution)
        assert 0 < calls.count("gibbs_kernel") <= 8
        assert calls.count("log_partition") == 1

    def test_point_mass_probe_is_not_solved(self, solved_suite):
        # delta_alpha - nu is exactly 0: only the fresh audit solve runs
        problem, solution = solved_suite[0]
        (alpha,) = solution.consideration_set
        with mock.patch.object(bridge, "_sweeps", wraps=bridge._sweeps) as sweeps:
            check = bh.run_diagnostics(problem, solution).by_name("gateaux_value")
        assert [len(call.args[1]) for call in sweeps.call_args_list] == [1]
        assert check.max_violation == 0.0 and check.passed
        assert check.details == f"central differences at [{alpha}]"

    def test_almost_point_mass_probe_is_solved(self, solved_suite):
        # nu = [1.0, 1e-20] has nu(alpha) == 1.0 but a nonzero direction
        problem, solution = solved_suite[0]
        (alpha,) = solution.consideration_set
        weights = np.zeros(problem.num_actions)
        weights[alpha], weights[alpha - 1] = 1.0, 1e-20
        moved = dataclasses.replace(solution, marginal=bh.ActionMarginal(weights))
        assert moved.consideration_set == (alpha,) and moved.marginal.weights[alpha] == 1.0
        with mock.patch.object(bridge, "_sweeps", wraps=bridge._sweeps) as sweeps:
            check = bh.run_diagnostics(problem, moved).by_name("gateaux_value")
        assert [len(call.args[1]) for call in sweeps.call_args_list] == [1, 2]
        assert check.details == f"central differences at [{alpha}]"

    def test_report_entries_are_the_public_checks(self, solved_suite):
        for problem, solution in solved_suite:
            _assert_report_reads_the_public_checks(problem, solution)

    def test_ilr_blocks_keep_the_bits(self, solved_suite, monkeypatch):
        # the ratio sums are stacked in blocks of _STACK entries; one row per
        # block must give the same bits as the one block the suite fits in
        whole = [ilr_check(p, s).max_violation.hex() for p, s in solved_suite]
        monkeypatch.setattr(diagnostics, "_STACK", 1)
        assert [ilr_check(p, s).max_violation.hex() for p, s in solved_suite] == whole

    def test_probe_steps_are_one_stacked_solve(self, solved_suite):
        # 4 supported actions, probes at [0, 3, 8]: the fresh audit solve is
        # one sweep loop and the 6 probe steps are another
        problem, solution = solved_suite[9]
        with mock.patch.object(bridge, "_sweeps", wraps=bridge._sweeps) as sweeps:
            report = bh.run_diagnostics(problem, solution)
        assert report.by_name("gateaux_value").details == "central differences at [0, 3, 8]"
        assert [len(call.args[1]) for call in sweeps.call_args_list] == [1, 6]

    def test_unconverged_inner_solves_become_failed_checks(self, solved_suite, monkeypatch):
        # away from the optimum 2 sweeps cannot reach 1e-12: the fresh solve
        # and every probe's solves raise BridgeNotConverged
        problem, solution = solved_suite[1]
        marginal = bh.ActionMarginal(random_simplex(np.random.default_rng(3), problem.num_actions))
        moved = dataclasses.replace(solution, marginal=marginal)
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=2)
        monkeypatch.setattr(diagnostics, "_INNER", cfg)
        report = bh.run_diagnostics(problem, moved)
        assert len(list(report)) == 15
        residual = report.by_name("marginal_residual")
        assert not residual.passed and "no convergence after 2 sweeps" in residual.details
        value = report.by_name("gateaux_value")
        assert not value.passed and value.max_violation == np.inf
        assert "no convergence after 2 sweeps" in value.details


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 8),
    st.integers(2, 8),
    st.floats(-2.0, 2.0),
    st.sampled_from([1e-3, 1e-1, 10.0, 1e3]),
)
def test_verdicts_do_not_depend_on_units(seed, m, n, x, c):
    # (u, lam) and (c u, c lam) are the same problem, so every check must
    # reach the same verdict on both
    problem = bh.random_problem(seed, m, n, 10.0**x)
    scaled = dataclasses.replace(problem, utility=c * problem.utility, lam=c * problem.lam)
    verdicts = []
    for p in (problem, scaled):
        try:
            solution = bh.solve(p, TIGHT)
        except bh.SolverNotConverged as err:
            solution = err.solution
        verdicts.append({check.name: check.passed for check in bh.run_diagnostics(p, solution)})
    assert verdicts[0] == verdicts[1]

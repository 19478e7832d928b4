"""Inner problem: Sinkhorn scaling, potentials, duality, certificates."""

import hashlib
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead import bridge
from bridgehead.bridge import (
    BridgeNotConverged,
    PotentialsInconsistent,
    coupling_from_potentials,
)
from bridgehead.core import _EPS, _TINY, Potentials, _logsumexp_kernel, gibbs_kernel, logsumexp

from conftest import _recording_platform
from reference import reference_half_step, reference_newton, separability_gap

TIGHT = bh.SinkhornConfig(tolerance=1e-12)


def zero_utility_problem(m=2, n=3):
    prior = np.linspace(1.0, 2.0, n)
    prior /= prior.sum()
    return bh.Problem(
        tuple(f"a{i}" for i in range(m)),
        tuple(f"s{j}" for j in range(n)),
        np.zeros((m, n)),
        1.0,
        prior,
    )


class TestSinkhornBridge:
    def test_zero_utility_gives_product_coupling(self):
        p = zero_utility_problem()
        nu = bh.ActionMarginal(np.array([0.3, 0.7]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        assert_allclose(res.coupling.joint, np.outer(nu.weights, p.prior), atol=1e-14)
        assert_allclose(res.potentials.action, 0.0, atol=1e-14)
        assert_allclose(res.potentials.state, 0.0, atol=1e-14)
        assert abs(res.value_primal) <= 1e-12
        assert abs(res.value_dual) <= 1e-12

    def test_symmetric_closed_form(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        res = bh.sinkhorn_bridge(symmetric_2x2, nu, TIGHT)
        diag = np.e / (2.0 * (1.0 + np.e))
        expected = np.array([[diag, 0.5 - diag], [0.5 - diag, diag]])
        assert_allclose(res.coupling.joint, expected, atol=1e-12)
        assert_allclose(res.value_primal, np.log((np.e + 1.0) / 2.0), atol=1e-12)
        # symmetry pins the potentials: a == 0, b == V at both states
        assert_allclose(res.potentials.action, 0.0, atol=1e-12)
        assert_allclose(res.potentials.state, np.log((np.e + 1.0) / 2.0), atol=1e-12)

    def test_random_instance_certificates(self):
        p = bh.random_problem(17, 3, 4, lam=0.7)
        nu = bh.ActionMarginal(np.array([0.2, 0.5, 0.3]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        assert res.residual <= 1e-10
        assert res.duality_gap <= 1e-8
        assert abs(float(nu.weights @ res.potentials.action)) <= 1e-10

    def test_residual_below_configured_tolerance(self):
        p = bh.random_problem(23, 4, 4, lam=0.4)
        nu = bh.ActionMarginal.uniform(4)
        cfg = bh.SinkhornConfig(tolerance=1e-8)
        res = bh.sinkhorn_bridge(p, nu, cfg)
        assert res.residual <= 1e-8

    def test_marginals_match_inputs(self):
        p = bh.random_problem(9, 5, 3, lam=0.5)
        nu = bh.ActionMarginal(np.array([0.1, 0.2, 0.3, 0.25, 0.15]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        assert_allclose(res.coupling.action_marginal, nu.weights, atol=1e-11)
        assert_allclose(res.coupling.state_marginal, p.prior, atol=1e-11)

    def test_zero_mass_action_gets_zero_row(self):
        p = bh.random_problem(31, 3, 3, lam=1.0)
        nu = bh.ActionMarginal(np.array([0.6, 0.0, 0.4]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        assert_allclose(res.coupling.joint[1], 0.0)
        assert np.all(np.isfinite(res.potentials.action))
        assert np.all(np.isfinite(res.potentials.state))
        assert res.duality_gap <= 1e-8

    def test_monotone_residual_per_sweep(self):
        p = bh.random_problem(41, 4, 4, lam=0.3)
        nu = bh.ActionMarginal.uniform(4)
        residuals = []
        for k in range(1, 25):
            try:
                res = bh.sinkhorn_bridge(p, nu, bh.SinkhornConfig(tolerance=1e-300, max_iterations=k))
                residuals.append(res.residual)
                break
            except BridgeNotConverged as err:
                residuals.append(err.result.residual)
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-12), residuals

    def test_not_converged_carries_partial_result(self):
        p = bh.random_problem(3, 4, 4, lam=0.25)
        nu = bh.ActionMarginal.uniform(4)
        with pytest.raises(BridgeNotConverged) as exc:
            bh.sinkhorn_bridge(p, nu, bh.SinkhornConfig(tolerance=1e-300, max_iterations=2))
        err = exc.value
        assert err.iterations == 2
        assert err.result.coupling.joint.shape == (4, 4)
        assert np.isfinite(err.result.value_primal)

    def test_small_lambda_marginal_past_the_warm_up(self):
        # drawn as perfbench's inner workload draws pass 22 at seed 11;
        # Sinkhorn alone stops at residual 9.6e-6 after 10,000 sweeps
        weights = np.array([
            0.13606123955065832, 0.40168157865805565, 0.04763536339079518,
            0.004528355094693776, 0.006347148810018429, 0.0, 0.0, 0.0943300526775562,
            0.00986696572738254, 0.00441176358482237, 0.008730729258695741, 0.0,
            0.042534298536635824, 0.0, 0.03204156967689857, 0.21183093503378744,
        ])
        p = bh.random_problem(1028712447, 16, 16, lam=0.01)
        nu = bh.ActionMarginal(weights)
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        # Sinkhorn stalls from sweep 2 on, so it hands over to Newton then,
        # and Newton's own pair stops the solve at sweep 2
        assert res.iterations <= 10
        assert res.residual <= 1e-12
        assert res.duality_gap <= 1e-8
        assert max(bh.schrodinger_residual(p, nu, res.potentials)) <= 1e-9

    def test_dimension_mismatch_rejected(self, symmetric_2x2):
        with pytest.raises(bh.InvalidInput):
            bh.sinkhorn_bridge(symmetric_2x2, bh.ActionMarginal.uniform(3), TIGHT)


class TestSinkhornConfig:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(bh.InvalidInput):
            bh.SinkhornConfig(tolerance=0.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(bh.InvalidInput):
            bh.SinkhornConfig(max_iterations=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 2.5),
            ("max_iterations", 100.0),
            ("max_iterations", True),
            ("max_iterations", "50"),
            ("tolerance", "1e-9"),
            ("tolerance", None),
            ("tolerance", True),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(bh.InvalidInput, match=field):
            bh.SinkhornConfig(**{field: value})

    def test_accepts_numpy_numbers(self):
        cfg = bh.SinkhornConfig(tolerance=np.float32(1e-6), max_iterations=np.int64(3))
        assert cfg.max_iterations == 3


class TestSchrodingerResidual:
    def test_converged_potentials_have_tiny_residuals(self):
        p = bh.random_problem(7, 3, 3, lam=0.8)
        nu = bh.ActionMarginal(np.array([0.2, 0.3, 0.5]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        ra, rb = bh.schrodinger_residual(p, nu, res.potentials)
        assert ra <= 1e-11
        assert rb <= 1e-11

    def test_perturbed_action_potential_detected(self):
        p = bh.random_problem(7, 3, 3, lam=0.8)
        nu = bh.ActionMarginal(np.array([0.2, 0.3, 0.5]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        bumped = np.array(res.potentials.action, copy=True)
        bumped[0] += 0.1
        perturbed = Potentials(bumped, res.potentials.state)
        ra, rb = bh.schrodinger_residual(p, nu, perturbed)
        assert_allclose(ra, 0.1, atol=1e-9)
        assert rb > 1e-10

    def test_zero_case(self):
        p = zero_utility_problem()
        nu = bh.ActionMarginal(np.array([0.3, 0.7]))
        pot = Potentials(np.zeros(2), np.zeros(3))
        ra, rb = bh.schrodinger_residual(p, nu, pot)
        assert ra <= 1e-15
        assert rb <= 1e-15


class TestCouplingFromPotentials:
    def test_zero_case_recovers_product(self):
        p = zero_utility_problem()
        nu = bh.ActionMarginal(np.array([0.3, 0.7]))
        coupling = coupling_from_potentials(p, nu, Potentials(np.zeros(2), np.zeros(3)))
        assert_allclose(coupling.joint, np.outer(nu.weights, p.prior), atol=1e-15)

    def test_symmetric_posterior_closed_form(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        res = bh.sinkhorn_bridge(symmetric_2x2, nu, TIGHT)
        coupling = coupling_from_potentials(symmetric_2x2, nu, res.potentials)
        posterior = coupling.joint[0, 0] / coupling.joint[:, 0].sum()
        assert_allclose(posterior, np.e / (1.0 + np.e), atol=1e-12)

    def test_reconstruction_matches_stored_coupling(self):
        p = bh.random_problem(19, 4, 3, lam=0.9)
        nu = bh.ActionMarginal(np.array([0.25, 0.25, 0.3, 0.2]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        rebuilt = coupling_from_potentials(p, nu, res.potentials)
        assert np.abs(rebuilt.joint - res.coupling.joint).max() <= 1e-12

    def test_inconsistent_potentials_rejected(self):
        p = bh.random_problem(19, 3, 3, lam=1.0)
        nu = bh.ActionMarginal.uniform(3)
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        broken = Potentials(res.potentials.action - 2.0, res.potentials.state)
        with pytest.raises(PotentialsInconsistent):
            coupling_from_potentials(p, nu, broken)

    def test_translation_invariance(self):
        p = bh.random_problem(37, 3, 4, lam=0.5)
        nu = bh.ActionMarginal(np.array([0.5, 0.2, 0.3]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        base = coupling_from_potentials(p, nu, res.potentials)
        for shift in (-0.7, 0.4):
            shifted = Potentials(
                res.potentials.action + shift, res.potentials.state - shift
            )
            moved = coupling_from_potentials(p, nu, shifted)
            assert np.abs(moved.joint - base.joint).max() <= 1e-12


class TestAdditiveSeparability:
    def test_zero_utility_exact(self):
        p = zero_utility_problem()
        nu = bh.ActionMarginal(np.array([0.3, 0.7]))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        assert separability_gap(res, nu, p.prior) <= 1e-14

    def test_symmetric_split(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        res = bh.sinkhorn_bridge(symmetric_2x2, nu, TIGHT)
        assert separability_gap(res, nu, symmetric_2x2.prior) <= 1e-10
        assert abs(float(nu.weights @ res.potentials.action)) <= 1e-12
        assert_allclose(
            float(symmetric_2x2.prior @ res.potentials.state),
            np.log((np.e + 1.0) / 2.0),
            atol=1e-10,
        )

    def test_random_instance(self):
        p = bh.random_problem(53, 5, 5, lam=0.6)
        nu = bh.ActionMarginal(np.full(5, 0.2))
        res = bh.sinkhorn_bridge(p, nu, TIGHT)
        assert separability_gap(res, nu, p.prior) <= 1e-8


def reference_measure(row_part, ws, prior, a, b):
    """(coupling, mass, exact residual) of the potential pair (a, b)."""
    raw = np.exp(row_part - a[:, None] + (np.log(prior) - b)[None, :])
    mass = float(raw.sum())
    coupling = raw / mass
    residual = max(
        float(np.abs(coupling.sum(axis=1) - ws).max()),
        float(np.abs(coupling.sum(axis=0) - prior).max()),
    )
    return coupling, mass, residual


def lse_half_step(x, gain, top, logits, axis):
    """The half-step of ``reference_half_step`` by log-sum-exp alone, the
    route every half-step took before the plain one."""
    return logsumexp(logits, axis=axis)


def reference_sweep_log(ks, ws, prior, a, cfg, half_step=reference_half_step):
    """Plain Sinkhorn sweeps from ``a``, each half-step by ``half_step``:
    every sweep builds the coupling and measures the exact residual; no
    Newton step."""
    log_ws, log_prior = np.log(ws), np.log(prior)
    row_part = ks + log_ws[:, None]
    col_part = ks + log_prior[None, :]
    top = float(ks.max())
    gain = np.exp(ks - top)
    for iterations in range(1, cfg.max_iterations + 1):
        b = half_step(log_ws - a, gain, top, row_part - a[:, None], 0)
        a = half_step(log_prior - b, gain.T, top, col_part - b[None, :], 1)
        coupling, mass, residual = reference_measure(row_part, ws, prior, a, b)
        if residual <= cfg.tolerance:
            break
    return a, b, coupling, mass, iterations, residual, residual <= cfg.tolerance


def reference_bridge(problem, nu, cfg):
    """sinkhorn_bridge as the plain loop: one ``reference_sweep_log`` sweep at
    a time, so every sweep measures the exact residual, and the Newton
    hand-over by the same drift rule, whose own pair is measured before the
    next sweep.  ``sinkhorn_bridge`` must return its bytes."""
    kernel = gibbs_kernel(problem)
    weights = nu.weights / nu.weights.sum()
    prior = problem.prior / problem.prior.sum()
    sup = weights > 0
    ks, ws = kernel[sup], weights[sup]
    row_part = ks + np.log(ws)[:, None]
    col_part = ks + np.log(prior)[None, :]
    top = float(ks.max())
    gain = np.exp(ks - top)
    one_sweep = replace(cfg, max_iterations=1)
    a = np.zeros(sup.sum())
    warm, last, steps = True, np.inf, (0, 0)
    for iterations in range(1, cfg.max_iterations + 1):
        a, b, coupling, mass, _, residual, converged = reference_sweep_log(
            ks, ws, prior, a, one_sweep
        )
        if converged or iterations == cfg.max_iterations:
            break
        # the column drift: how far the next b-update moves the columns
        b_next = reference_half_step(np.log(ws) - a, gain, top, row_part - a[:, None], 0)
        drift = float(np.abs(prior * np.expm1(b_next - b)).max())
        # hand over where Sinkhorn at its last rate would need more than two
        # more sweeps: drift (drift / last)^2 > tol
        stalls = drift * drift * drift > cfg.tolerance * last * last
        if warm and (stalls or iterations == bridge._WARM_UP):
            a, closed, steps = bridge._semi_dual_newton(
                row_part, col_part, ws, prior, a, b, b_next, cfg.tolerance
            )
            warm = False
            if closed is not None:
                measured = reference_measure(row_part, ws, prior, a, closed)
                if measured[2] <= cfg.tolerance:
                    b, (coupling, mass, residual), converged = closed, measured, True
                    break
        last = drift
    result = bridge._assemble(
        problem, weights, prior, kernel, sup, (a, b, coupling, mass, iterations, residual, steps)
    )
    if not converged:
        raise BridgeNotConverged(iterations, residual, result)
    return result


def plain_bridge(problem, nu, cfg, half_step=reference_half_step):
    """sinkhorn_bridge as ``reference_sweep_log`` alone: Sinkhorn sweeps with
    no Newton phase, every sweep measured."""
    kernel = gibbs_kernel(problem)
    weights = nu.weights / nu.weights.sum()
    prior = problem.prior / problem.prior.sum()
    sup = weights > 0
    *solved, converged = reference_sweep_log(
        kernel[sup], weights[sup], prior, np.zeros(sup.sum()), cfg, half_step
    )
    result = bridge._assemble(problem, weights, prior, kernel, sup, (*solved, (0, 0)))
    if not converged:
        raise BridgeNotConverged(result.iterations, result.residual, result)
    return result


def lse_bridge(problem, nu, cfg):
    """``plain_bridge`` with every half-step by log-sum-exp: the sweeps that
    the fallback alone runs."""
    return plain_bridge(problem, nu, cfg, lse_half_step)


def _bridge(problem, nu, cfg, solve=bh.sinkhorn_bridge):
    """(result, converged), the result of an exhausted budget included."""
    try:
        return solve(problem, nu, cfg), True
    except BridgeNotConverged as err:
        return err.result, False


def _bridge_bytes(problem, nu, cfg, solve=bh.sinkhorn_bridge):
    """Every returned field of sinkhorn_bridge, floats by float.hex."""
    res, converged = _bridge(problem, nu, cfg, solve)
    arrays = (res.coupling.joint, res.potentials.action, res.potentials.state)
    return (
        converged,
        res.iterations,
        *(float(x).hex() for x in (res.residual, res.value_primal, res.value_dual)),
        *(tuple(float(v).hex() for v in arr.ravel()) for arr in arrays),
    )


@st.composite
def bridge_instances(draw, max_lam=1e4, min_lam=5e-3):
    m = draw(st.integers(1, 29))
    n = draw(st.integers(1, 29))
    lam = math.exp(draw(st.floats(math.log(min_lam), math.log(max_lam))))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = np.array(
        draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=m, max_size=m))
    )
    if not weights.any():
        weights[draw(st.integers(0, m - 1))] = 1.0
    # nu and the prior may sum to 1 only within SIMPLEX_ATOL = 1e-12
    defect = st.sampled_from([0.0, 0.0, -9e-13, -3e-13, 3e-13, 9e-13])
    weights = weights / weights.sum() * (1.0 + draw(defect))
    p = bh.random_problem(seed, m, n, lam=lam)
    prior = p.prior
    heavy = draw(st.sampled_from([None, 0.9, 0.99]))
    if heavy is not None and n > 1:
        prior = np.concatenate([[heavy], prior[1:] * (1.0 - heavy) / prior[1:].sum()])
    prior = prior * (1.0 + draw(defect))
    return bh.Problem(p.actions, p.states, p.utility, lam, prior), bh.ActionMarginal(weights)


class TestLeanSweep:
    """The sweep loop skips the coupling while the residual cannot pass;
    that must change no returned byte against ``reference_bridge``, which
    measures every sweep, Newton hand-over included."""

    def _assert_matches_reference(self, instance, cfg):
        problem, nu = instance
        assert _bridge_bytes(problem, nu, cfg) == _bridge_bytes(problem, nu, cfg, reference_bridge)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        bridge_instances(),
        st.sampled_from([1, 2, 7, bridge._WARM_UP, bridge._WARM_UP + 1]),
        st.sampled_from([1e-16, 1e-15, 1e-14, 1e-12]),
    )
    def test_short_budgets_match_plain_loop(self, instance, budget, tolerance):
        cfg = bh.SinkhornConfig(tolerance=tolerance, max_iterations=budget)
        self._assert_matches_reference(instance, cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bridge_instances())
    def test_converged_runs_match_plain_loop(self, instance):
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=100_000)
        self._assert_matches_reference(instance, cfg)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bridge_instances(), st.sampled_from([1e-16, 1e-15, 1e-14, 1e-13, 2e-13, 1e-12]))
    def test_tight_tolerances_match_plain_loop(self, instance, tolerance):
        cfg = bh.SinkhornConfig(tolerance=tolerance, max_iterations=300)
        self._assert_matches_reference(instance, cfg)

    def test_mass_defect_does_not_delay_convergence(self):
        # nu or the prior sums to 1 - 1e-12 and is scaled to unit mass on
        # entry, so Sinkhorn alone (lam = 10: it never hands over) passes
        # 1e-13 and even 1e-14 at sweep 4; measured against the marginal as
        # given, the rows stayed 3.3e-14 off (nu) and the columns 9.0e-13 off
        # (prior) for all 2,000 sweeps
        uniform = np.full(30, 1 / 30)
        p = bh.random_problem(3, 30, 2, lam=10.0)
        for weights, prior in [
            (uniform * ((1 - 1e-12) / uniform.sum()), np.array([0.9, 0.1])),
            (uniform, np.array([0.9, 0.1]) * (1 - 1e-12)),
        ]:
            nu = bh.ActionMarginal(weights)
            problem = bh.Problem(p.actions, p.states, p.utility, p.lam, prior)
            for tolerance in (1e-13, 1e-14):
                cfg = bh.SinkhornConfig(tolerance=tolerance, max_iterations=2000)
                assert bh.sinkhorn_bridge(problem, nu, cfg).iterations == 4
                self._assert_matches_reference((problem, nu), cfg)

    @pytest.mark.parametrize("defect", [-9e-13, 9e-13])
    @pytest.mark.parametrize("heavy", [0.9, 0.99])
    @pytest.mark.parametrize("m", [10, 30])
    def test_mass_defects_match_plain_loop(self, m, heavy, defect):
        # nu off unit mass by |defect|, above tol: scaled on entry, it
        # must leave the lean and the plain loop stopping at the same sweep
        weights = np.full(m, 1 / m)
        weights *= (1 + defect) / weights.sum()
        nu = bh.ActionMarginal(weights)
        prior = np.array([heavy, (1 - heavy) / 2, (1 - heavy) / 2])
        for lam in (0.1, 1.0, 10.0):
            p = bh.random_problem(3, m, 3, lam=lam)
            problem = bh.Problem(p.actions, p.states, p.utility, lam, prior)
            for tolerance in (1e-13, 2e-13):
                cfg = bh.SinkhornConfig(tolerance=tolerance, max_iterations=2000)
                self._assert_matches_reference((problem, nu), cfg)


def assert_certificates(problem, nu, res):
    """What a solve at tolerance 1e-12 must show, Newton phase or not."""
    assert res.residual <= 1e-12
    assert res.duality_gap <= 1e-8
    # a column whose mass is off by r is off by r / prior in log, so the
    # state equation can miss 1e-9 by itself where the prior holds atoms
    # near 1e-4
    bound = max(1e-9, 2.0 * res.residual / problem.prior.min())
    assert max(bh.schrodinger_residual(problem, nu, res.potentials)) <= bound
    weights = nu.weights / nu.weights.sum()
    sup = weights > 0
    plain = reference_sweep_log(
        gibbs_kernel(problem)[sup], weights[sup], problem.prior, np.zeros(sup.sum()), TIGHT
    )
    if plain[-1]:
        assert np.abs(res.coupling.joint[sup] - plain[2]).max() <= 1e-9


class TestNewtonPhase:
    """Solves that the warm-up does not finish go through the Newton phase."""

    # at max_lam=0.05 many draws reach the Newton phase
    @pytest.mark.parametrize("max_lam", [1e4, 0.05])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_certificates_and_plain_loop_coupling(self, max_lam, data):
        problem, nu = data.draw(bridge_instances(max_lam=max_lam))
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=100_000)
        assert_certificates(problem, nu, bh.sinkhorn_bridge(problem, nu, cfg))

    def test_two_action_bridge_ends_within_ten_sweeps(self):
        # 12 x 2 with two supported actions at lam = 0.012: Newton runs on b,
        # whose reduced Hessian is 1 x 1, and its 13 LAPACK moves end the
        # solve at the hand-over sweep 2.  Sinkhorn alone takes 174 sweeps
        weights = np.zeros(12)
        weights[[5, 1]] = [0.6759147289132628, 0.3240852710867373]
        problem = bh.random_problem(4198799368, 12, 2, lam=0.012181494613539642)
        nu = bh.ActionMarginal(weights)
        res = bh.sinkhorn_bridge(problem, nu, TIGHT)
        assert res.iterations <= 10
        assert_certificates(problem, nu, res)

    @pytest.mark.parametrize("lam", [1e-2, 5e-3, 1e-3])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_probes_near_a_partition_converge(self, seed, lam):
        # the 88 Gateaux probes nu* +- 1e-5 (delta_alpha - nu*).  At small
        # lam, nu* splits the states into blocks, one per supported action,
        # and the Hessian's conductances between blocks sit near 1e-25.
        # Subtracted from the column sums they vanished: Newton then left 23
        # of the 58 probes at lam >= 5e-3 unconverged after 10,000 sweeps.
        # With the subtraction-free Hessian, 50 Newton steps and a hand-over
        # after sweep 8, 13 of the 30 at lam = 1e-3 still stalled at residuals
        # of 1e-6 to 1e-5
        problem = bh.random_problem(seed, 6, 6, lam)
        star = bh.solve(problem, bh.SolverConfig(foc_tolerance=1e-9, sinkhorn=TIGHT)).marginal.weights
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=20)
        probes = 0
        for alpha in range(6):
            for sign in (1.0, -1.0):
                weights = star + sign * 1e-5 * (np.eye(6)[alpha] - star)
                if np.all(weights >= 0):
                    res = bh.sinkhorn_bridge(problem, bh.ActionMarginal(weights), cfg)
                    assert res.duality_gap <= 1e-8
                    probes += 1
        assert probes == 12 - (star == 0).sum()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bridge_instances(max_lam=0.05))
    def test_newton_row_log_sums_are_exact(self, instance):
        _assert_newton_rows_exact(*instance)

    def test_newton_row_log_sums_stay_exact_over_many_steps(self):
        problem, nu, _ = _golden_problem("6x6 lam=0.01")
        assert _assert_newton_rows_exact(problem, nu) >= 5

    def test_conductances_match_the_plain_product(self):
        rng = np.random.default_rng(3)
        pi = rng.dirichlet(np.ones(7), size=40)
        p = rng.dirichlet(np.ones(40))
        plain = (pi.T * p) @ pi
        np.fill_diagonal(plain, 0.0)
        expected = -plain[1:, 1:]
        np.fill_diagonal(expected, plain.sum(axis=1)[1:])
        assert_allclose(_reduced_hessian(p, pi, np.arange(7) != 0), expected, rtol=1e-15)

    def test_conductances_keep_a_tiny_cross_block_link(self):
        # states {0, 1} and {2, 3} are separate blocks but for one entry of
        # 1e-25 / 0.175 in row 1, so C_12 = 0.25 * 0.7 * that = 1e-25
        pi = np.array([
            [0.6, 0.4, 0.0, 0.0],
            [0.3, 0.7, 1e-25 / 0.175, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.2, 0.8],
        ])
        hessian = _reduced_hessian(np.full(4, 0.25), pi, np.arange(4) != 0)
        assert -hessian[0, 1] > 0
        assert_allclose(-hessian[0, 1], 1e-25, rtol=1e-15)

    def test_gth_solve_matches_lapack_where_both_apply(self):
        rng = np.random.default_rng(5)
        conductance = rng.uniform(0.1, 1.0, (7, 7))
        conductance += conductance.T
        np.fill_diagonal(conductance, 0.0)
        free = np.arange(7) != 2
        grad = rng.normal(size=6)
        laplacian = np.diag(conductance.sum(axis=1)) - conductance
        lapack = np.linalg.solve(laplacian[np.ix_(free, free)], grad)
        assert_allclose(bridge._gth_solve(conductance, free, grad), lapack, rtol=1e-12)

    def test_gth_solve_keeps_a_tiny_conductance(self):
        # ground - 1 - node 1 - 1e-25 - node 2 - 1 - node 3: a unit current
        # into node 3 lifts nodes 2 and 3 by 1e25 + 1 and 1e25 + 2.  Summed
        # diagonals round the 1e-25 away, and LAPACK finds the matrix singular
        conductance = np.zeros((4, 4))
        for i, j, c in [(0, 1, 1.0), (1, 2, 1e-25), (2, 3, 1.0)]:
            conductance[i, j] = conductance[j, i] = c
        free = np.arange(4) != 0
        x = bridge._gth_solve(conductance, free, np.array([0.0, 0.0, 1.0]))
        assert_allclose(x, [1.0, 1e25, 1e25], rtol=1e-15)

    @pytest.mark.parametrize("tiny, stop", [(1e-20, 2), (1e-315, 3)])
    def test_tiny_weight_at_tiny_lambda(self, tiny, stop):
        # 4 x 8, so Newton runs on a, whose column sums carry nu.  With a
        # 1e-20 weight they stay normal floats, and Newton's closing
        # half-step ends the solve at the hand-over sweep 2.  With a
        # subnormal weight the tiny action's column sum is subnormal too, so
        # Newton takes no closing half-step and sweep 3 measures; a half-step
        # from that column sum missed the action equation by 2.6e-9
        problem = bh.random_problem(0, 4, 8, lam=1e-3)
        nu = bh.ActionMarginal(np.array([1.0, tiny, 1.0, 1.0]) / 3.0)
        res = bh.sinkhorn_bridge(problem, nu, TIGHT)
        assert (res.iterations, res.newton_steps > 0) == (stop, True)
        assert res.residual <= 1e-12
        assert res.duality_gap <= 1e-8
        assert max(bh.schrodinger_residual(problem, nu, res.potentials)) <= 1e-9

    def test_newton_steps_are_reported(self):
        # 0 where Newton never ran (200x50 at lam = 1 sweeps to sweep 4, its
        # drift predicting each time that two more sweeps settle it); else
        # its damped moves, one per _newton_move call, the closing
        # half-step aside
        assert _bridge(*_golden_problem("200x50"))[0].newton_steps == 0
        for case, steps in [("6x6 lam=0.01", 11), ("zeros", 3)]:
            problem, nu, _ = _golden_problem(case)
            assert _assert_newton_rows_exact(problem, nu) == steps

    @pytest.mark.parametrize(
        "case, counts",
        [
            # a golden case: LAPACK finds every move
            ("6x6 lam=0.01", (11, 0)),
            # the lam = 1e-3 Gateaux probe nu* + 1e-5 (delta_5 - nu*) of
            # random_problem(5, 6, 6, 1e-3): LAPACK gives no move on 33 steps
            ("probe", (51, 33)),
            # lam = 1e-5: every row conditional is 0 or 1, so the Hessian is
            # 0 and GTH has no pivot; Newton ends at its first step, moveless,
            # and Sinkhorn sweeps out the budget, every half-step by the
            # log-sum-exp, as the plain gain underflows
            ("lam=1e-5", (0, 0)),
        ],
    )
    def test_fallback_steps_are_reported(self, case, counts):
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=20)
        if case == "probe":
            problem = bh.random_problem(5, 6, 6, 1e-3)
            solved = bh.solve(problem, bh.SolverConfig(foc_tolerance=1e-9, sinkhorn=TIGHT))
            star = solved.marginal.weights
            nu = bh.ActionMarginal(star + 1e-5 * (np.eye(6)[5] - star))
        elif case == "lam=1e-5":
            problem, nu = bh.random_problem(0, 6, 4, 1e-5), bh.ActionMarginal.uniform(6)
        else:
            problem, nu, _ = _golden_problem(case)
        moves, newton_move = [], bridge._newton_move

        def move(*args):
            moves.append(found := newton_move(*args))
            return found

        with (
            mock.patch.object(bridge, "_newton_move", move),
            mock.patch.object(bridge, "_gth_solve", wraps=bridge._gth_solve) as gth,
        ):
            res, converged = _bridge(problem, nu, cfg)
        assert (res.newton_steps, res.gth_steps) == counts
        # GTH runs only where LAPACK gave no move, and a call where GTH gave
        # none either ends the Newton phase
        missed = sum(found is None for found in moves)
        assert res.gth_steps + missed == gth.call_count
        assert missed == int(case == "lam=1e-5")
        assert res.newton_steps == len(moves) - missed
        if case == "lam=1e-5":
            assert (converged, res.iterations) == (False, 20)
            assert _call_counts(problem, nu, cfg) == (1, 41, 41)
            # the bytes of the loop that took the log-sum-exp at every half-step
            assert _bridge_bytes(problem, nu, cfg) == _bridge_bytes(problem, nu, cfg, lse_bridge)
            if _recording_platform():
                digest = hashlib.sha256(repr(_bridge_bytes(problem, nu, cfg)).encode()).hexdigest()
                assert digest == "636f84e4c880327085ef7c4f5bd6fb551744909a0f883467fcc395a7b93b9996"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bridge_instances(max_lam=10.0, min_lam=1e-3))
    def test_moveless_newton_hands_back_to_the_sweeps(self, instance):
        # where neither LAPACK nor GTH finds a move, Newton ends at once, and
        # the sweeps go on from the hand-over sweep's own potentials: the
        # solve is plain Sinkhorn, bit for bit
        problem, nu = instance
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=300)
        with mock.patch.object(bridge, "_newton_move", return_value=None) as move:
            res, _ = _bridge(problem, nu, cfg)
            assert _bridge_bytes(problem, nu, cfg) == _bridge_bytes(problem, nu, cfg, plain_bridge)
        assert (res.newton_steps, res.gth_steps) == (0, 0)
        # the first moveless call ends the Newton phase of each of the two solves
        assert move.call_count <= 2

    def test_uniform_marginal_at_tiny_lambda(self):
        # 1,332 sweeps for seed 4 with the subtracted Hessian; 1,662 and
        # 1,112 for seeds 6 and 7 with 50 Newton steps and no GTH fallback
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=20)
        for seed in (4, 6, 7):
            problem = bh.random_problem(seed, 6, 6, lam=1e-3)
            res = bh.sinkhorn_bridge(problem, bh.ActionMarginal.uniform(6), cfg)
            assert res.duality_gap <= 1e-8


def _assert_newton_rows_exact(problem, nu):
    """Solve to 1e-12 and check that every ``_newton`` run returns the row
    log-sums of the logits at the y it returns, to rounding.  Each step's
    refresh, the closing half-step's included, is centred on row log-sums
    that it moves (the Armijo trial's, say) but takes its exp fresh from the
    logits; summing the trial shifts instead drifts by about eps e^10 per
    step.  Returns the number of Newton steps taken, which the result
    reports."""
    runs, solve = [], bridge._newton

    def newton(logits, p, q, y, rows, tolerance):
        runs.append((logits, solve(logits, p, q, y, rows, tolerance)))
        return runs[-1][1]

    cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=100_000)
    with (
        mock.patch.object(bridge, "_newton", newton),
        mock.patch.object(bridge, "_newton_move", wraps=bridge._newton_move) as move,
    ):
        res, _ = _bridge(problem, nu, cfg)
    assert res.newton_steps == move.call_count
    eps = np.finfo(float).eps
    for logits, (y, rows, _, _) in runs:
        fresh = logsumexp(logits - y, axis=1)
        assert np.all(np.abs(rows - fresh) <= 8 * eps * (1 + np.abs(rows)))
    return move.call_count


def _reduced_hessian(p, pi, free):
    """The reduced Hessian that ``_newton_move`` hands to LAPACK for the row
    weights p and row conditionals pi, grounded off the mask ``free``."""
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as spy:
        q = np.full(pi.shape[1], 1 / pi.shape[1])
        index, move = np.flatnonzero(free), np.zeros(len(q))
        bridge._newton_move(p, np.sqrt(p)[:, None], q, pi, np.ones(free.sum()), index, move)
    return spy.call_args_list[0].args[0]


def _newton_bytes(result):
    y, rows, counts, closed = result
    return y.tobytes(), rows.tobytes(), counts, closed


def _newton_against_reference(problem, nu, cfg):
    """Solve, running the frozen ``reference_newton`` on the arguments of
    every ``_newton`` call first.  Returns the result and, call by call, the
    bytes of the package's (y, rows, counts, closed) and of the reference's."""
    pairs, newton = [], bridge._newton

    def both(*args):
        expected = reference_newton(*args)
        got = newton(*args)
        pairs.append((_newton_bytes(got), _newton_bytes(expected)))
        return got

    with mock.patch.object(bridge, "_newton", both):
        res, _ = _bridge(problem, nu, cfg)
    return res, pairs


class TestFrozenNewton:
    """Every ``_newton`` run returns the bytes of ``reference_newton``, the
    Newton phase as it was before its per-step NumPy calls were cut.  The
    golden pins check Newton's arithmetic on six solves, and on the
    recording platform only."""

    @pytest.mark.parametrize("max_lam, min_lam", [(1e4, 5e-3), (0.05, 1e-3)])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_newton_matches_the_frozen_reference(self, max_lam, min_lam, data):
        problem, nu = data.draw(bridge_instances(max_lam=max_lam, min_lam=min_lam))
        tolerance = data.draw(st.sampled_from([1e-16, 1e-14, 1e-12]))
        cfg = bh.SinkhornConfig(tolerance=tolerance, max_iterations=300)
        _, pairs = _newton_against_reference(problem, nu, cfg)
        for got, expected in pairs:
            assert got == expected

    @pytest.mark.parametrize("case, counts", [("probe", (51, 33)), ("lam=1e-5", (0, 0))])
    def test_fallback_cases_match_the_frozen_reference(self, case, counts):
        # the GTH-heavy and the moveless case of test_fallback_steps_are_reported
        if case == "probe":
            problem = bh.random_problem(5, 6, 6, 1e-3)
            solved = bh.solve(problem, bh.SolverConfig(foc_tolerance=1e-9, sinkhorn=TIGHT))
            star = solved.marginal.weights
            nu = bh.ActionMarginal(star + 1e-5 * (np.eye(6)[5] - star))
        else:
            problem, nu = bh.random_problem(0, 6, 4, 1e-5), bh.ActionMarginal.uniform(6)
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=20)
        res, pairs = _newton_against_reference(problem, nu, cfg)
        assert (res.newton_steps, res.gth_steps) == counts
        assert len(pairs) == 1
        assert pairs[0][0] == pairs[0][1]


@st.composite
def bridge_stacks(draw, max_lam):
    """A ``bridge_instances`` draw and a (k, m) stack of 1 to 6 marginals on
    its support: nu first, then seeded Dirichlet rows floored at 1e-3, whose
    concentrations vary, so that rows stop at different sweeps."""
    problem, nu = draw(bridge_instances(max_lam=max_lam))
    sup = nu.weights > 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [nu.weights]
    for _ in range(draw(st.integers(0, 5))):
        row = np.zeros(len(nu))
        concentration = draw(st.sampled_from([0.1, 1.0, 10.0]))
        row[sup] = np.maximum(rng.dirichlet(np.full(sup.sum(), concentration)), 1e-3)
        rows.append(row / row.sum() * (1.0 + draw(st.sampled_from([0.0, -9e-13, 9e-13]))))
    return problem, np.array(rows)


def _single_bytes(problem, row, cfg):
    """(converged, iterations, residual, value_primal) of sinkhorn_bridge at one row."""
    res, converged = _bridge(problem, bh.ActionMarginal(row), cfg)
    return converged, res.iterations, float(res.residual).hex(), float(res.value_primal).hex()


def _raise(err):
    raise err


class TestStackedSweeps:
    """``_sweeps`` solves a stack of marginals on one support in one loop; every
    row must come out as ``sinkhorn_bridge`` returns it at that row alone."""

    @pytest.mark.parametrize("max_lam", [1e4, 0.05])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rows_match_single_solves(self, max_lam, data):
        problem, stack = data.draw(bridge_stacks(max_lam))
        warm_up = bridge._WARM_UP
        # 3: the budget ends on the sweep after the earliest hand-over
        budget = data.draw(st.sampled_from([1, 2, 3, warm_up, warm_up + 1, 20, 10_000]))
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=budget)
        weights = stack / stack.sum(axis=1, keepdims=True)
        sup = weights[0] > 0
        ks = gibbs_kernel(problem)[sup]
        prior = problem.prior / problem.prior.sum()
        rows = bridge._sweeps(ks, weights[:, sup], prior, cfg)
        values, errors = bridge._primal_values(problem, stack, cfg)
        for i, (_, _, coupling, _, iterations, residual, _) in enumerate(rows):
            nu = bh.ActionMarginal(stack[i])
            single = _single_bytes(problem, nu.weights, cfg)
            primal = bridge._value_primal(coupling, weights[i, sup], prior, ks)
            converged = residual <= cfg.tolerance
            assert (converged, iterations, residual.hex(), primal.hex()) == single
            assert values[i].hex() == single[3]
            assert (errors[i] is None) == converged
            if not converged:
                # the error carries the single solve's best-so-far result
                raised = _bridge_bytes(problem, nu, cfg, lambda *_: _raise(errors[i]))
                assert raised == _bridge_bytes(problem, nu, cfg)

    def test_frozen_rows_leave_the_stack(self):
        # at lam = 5 with a 3-sweep budget, three rows hand over to Newton
        # after sweep 2 and stop there on Newton's own pair, while the other
        # three, whose drift predicts that Sinkhorn settles them (at sweep 4
        # under a larger budget), go on and exhaust the budget
        problem = bh.random_problem(0, 6, 6, lam=5.0)
        rng = np.random.default_rng(0)
        stack = np.vstack([np.full(6, 1 / 6), rng.dirichlet(np.ones(6), size=5)])
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=3)
        values, errors = bridge._primal_values(problem, stack, cfg)
        assert [err is None for err in errors] == [False, False, True, True, False, True]
        stops = [3, 3, 2, 2, 3, 2]
        for row, value, err, stop in zip(stack, values, errors, stops):
            single = _single_bytes(problem, row, cfg)
            assert value.hex() == single[3]
            assert single[:2] == (err is None, stop)
            if err is not None:
                message = f"no convergence after 3 sweeps, marginal residual {err.residual:.3e}"
                assert str(err) == message
                assert float(err.residual).hex() == single[2]

    def test_rows_on_other_supports_are_solved_apart(self):
        # one stack per support: the rows on support {0, 1} and the row on
        # {0, 1, 2} each match their single solve
        problem = bh.random_problem(11, 3, 4, lam=0.3)
        stack = np.array([[0.6, 0.4, 0.0], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])
        with mock.patch.object(bridge, "_sweeps", wraps=bridge._sweeps) as sweeps:
            values, errors = bridge._primal_values(problem, stack, TIGHT)
        assert [len(call.args[1]) for call in sweeps.call_args_list] == [2, 1]
        assert errors == [None, None, None]
        for row, value in zip(stack, values):
            assert value.hex() == _single_bytes(problem, row, TIGHT)[3]


def _routes(x, gain, top, logits, axis):
    """``bridge._half_step`` on a (k, 1, p) stack of exponents ``x``, its
    fallback being the log-sum-exp of ``logits`` over ``axis``, as a
    (k, 1, q) stack.  Returns the result, the mask of the rows that took the
    fallback (all False where none did) and the log-sum-exp of every row."""
    refused = [np.zeros(len(x), dtype=bool)]

    def fallback(bad):
        refused[0] = bad
        return _logsumexp_kernel(logits[bad], axis).reshape(-1, 1, gain.shape[1])

    with np.errstate(divide="ignore", invalid="ignore"):
        got = bridge._half_step(x, gain, top, fallback)
        lse = _logsumexp_kernel(logits, axis).reshape(got.shape)
    return got, refused[0], lse


class TestPlainHalfStep:
    """Each Sinkhorn half-step of ``_sweeps`` is one matrix-vector product on
    the plain gain exp(u/lam - top); a row takes the log-sum-exp only where
    one of its sums lies below tiny / eps, where terms may have underflowed."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_the_log_sum_exp(self, data):
        # a b-update at potentials a drawn at scales up to 300 nats, then the
        # a-update at that b.  Both routes round each term's exponent to
        # eps/2 of its size, and a term that carries the sum has an exponent
        # within |out| + |t| + |top| + log p of its shift; the p-term sum adds
        # p eps/2, and adding t + top back eps/2 (|t| + |top| + |out|).  So
        # they differ by a few eps (p + |t| + |top| + |out|); the worst of
        # these draws reads 0.90 of eps (...), and the bound is 4 eps (...)
        problem, stack = data.draw(bridge_stacks(data.draw(st.sampled_from([1e4, 0.05]))))
        scale = data.draw(st.sampled_from([0.0, 1.0, 30.0, 300.0]))
        weights = stack / stack.sum(axis=1, keepdims=True)
        sup = weights[0] > 0
        ks, log_ws = gibbs_kernel(problem)[sup], np.log(weights[:, sup])[:, :, None]
        log_prior = np.log(problem.prior / problem.prior.sum())
        k, s = log_ws.shape[:2]
        a = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(0.0, scale, (k, s, 1))
        top = float(ks.max())
        gain = np.exp(ks - top)

        def check(x, gain, logits, axis):
            got, refused, lse = _routes(x, gain, top, logits, axis)
            # a refused row is the log-sum-exp's, byte for byte
            assert np.array_equal(got[refused], lse[refused])
            t = x.max(axis=2, keepdims=True)
            assert np.all(np.abs(got - lse) <= 4 * _EPS * (x.shape[2] + np.abs(t) + abs(top) + np.abs(lse)))
            return lse

        b = check((log_ws - a).reshape(k, 1, s), gain, ks + log_ws - a, 1)
        check(log_prior - b, gain.T, (ks + log_prior) - b, 2)

    @pytest.mark.parametrize("below", [True, False])
    def test_sums_below_the_gate_take_the_log_sum_exp(self, below):
        # a b-update of two actions whose gains are 1 on the diagonal and 0
        # off it (u = I at lam = 1e-3), so each column sums one term, the
        # weight: a weight just below tiny / eps is refused in its row alone
        gate = _TINY / _EPS
        tiny = gate * (1 - 1e-9 if below else 1 + 1e-9)
        ks = np.eye(2) / 1e-3
        log_ws = np.log([[1.0, 0.5], [1.0, tiny]])[:, :, None]
        top = float(ks.max())
        got, refused, lse = _routes(log_ws.reshape(2, 1, 2), np.exp(ks - top), top, ks + log_ws, 1)
        assert refused.tolist() == [False, below]
        if below:
            assert np.array_equal(got[1], lse[1])
        assert np.all(np.abs(got - lse) <= 4 * _EPS * (2 + 2 * np.abs(lse) + top))
        # each row rounds as it does alone
        for r in range(2):
            one, _, _ = _routes(log_ws[r:r + 1].reshape(1, 1, 2), np.exp(ks - top), top, ks + log_ws[r:r + 1], 1)
            assert one.tobytes() == got[r:r + 1].tobytes()

    def test_subnormal_weight_at_small_lambda(self):
        # nu = (1, 1e-315) on u = I at lam = 1e-3: the tiny action carries
        # the second column alone, and its term there is subnormal, so every
        # half-step takes the log-sum-exp, and the solve is the log-sum-exp
        # loop's, byte for byte, to its certificates at sweep 2
        problem = bh.Problem(("a", "b"), ("s", "t"), np.eye(2), 1e-3, np.array([0.5, 0.5]))
        nu = bh.ActionMarginal(np.array([1.0, 1e-315]))
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=100)
        assert _call_counts(problem, nu, cfg) == (1, 5, 5)
        assert _bridge_bytes(problem, nu, cfg) == _bridge_bytes(problem, nu, cfg, lse_bridge)
        res = bh.sinkhorn_bridge(problem, nu, cfg)
        assert (res.iterations, res.newton_steps) == (2, 0)
        assert res.residual <= 1e-12
        assert res.duality_gap <= 1e-10


def _gathered_value_primal(coupling, ws, prior, ks):
    """value_primal with the divergence summed over the positive entries
    only, gathered by a mask, whatever the coupling holds."""
    mask = coupling > 0
    log_product = np.log(ws)[:, None] + np.log(prior)[None, :]
    positive = coupling[mask]
    kl = float(np.sum(positive * (np.log(positive) - log_product[mask])))
    return float(np.sum(coupling * ks)) - kl


def _supported_solution(problem, nu):
    """(coupling, ws, prior, ks) on the support, as ``_assemble`` hands them
    to ``_value_primal``, and the solve's value_primal."""
    res, _ = _bridge(problem, nu, TIGHT)
    weights = nu.weights / nu.weights.sum()
    sup = weights > 0
    prior = problem.prior / problem.prior.sum()
    parts = (res.coupling.joint[sup], weights[sup], prior, gibbs_kernel(problem)[sup])
    return parts, res.value_primal


class TestValuePrimal:
    """``_value_primal`` sums the plain m x n arrays where the coupling has no
    zero entry, and gathers the positive entries where it has one; either
    way it returns the bits of the gathered form."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(bridge_instances())
    def test_matches_the_gathered_form(self, instance):
        parts, value = _supported_solution(*instance)
        assert value.hex() == _gathered_value_primal(*parts).hex()

    @pytest.mark.parametrize(
        "seed, m, n, lam",
        [(1, 6, 6, 1.0), (2, 64, 64, 0.25), (3, 200, 50, 1.0), (4, 50, 400, 0.1), (5, 16, 16, 0.01)],
    )
    def test_positive_couplings_sum_the_plain_arrays(self, seed, m, n, lam):
        problem = bh.random_problem(seed, m, n, lam)
        parts, value = _supported_solution(problem, bh.ActionMarginal.uniform(m))
        assert parts[0].min() > 0
        assert value.hex() == _gathered_value_primal(*parts).hex()

    def test_underflowed_zeros_take_the_gathered_form(self):
        # at lam = 1e-3 two entries of the coupling underflow to 0, where the
        # plain form's 0 log 0 reads NaN
        problem = bh.random_problem(3, 6, 6, 1e-3)
        parts, value = _supported_solution(problem, bh.ActionMarginal.uniform(6))
        coupling, ws, prior, _ = parts
        assert (coupling == 0).sum() == 2
        with np.errstate(divide="ignore", invalid="ignore"):
            log_product = np.log(ws)[:, None] + np.log(prior)[None, :]
            assert np.isnan(np.sum(coupling * (np.log(coupling) - log_product)))
        assert np.isfinite(value)
        assert value.hex() == _gathered_value_primal(*parts).hex()


def _golden_problem(case):
    if case == "zeros":
        nu = bh.ActionMarginal(np.array([0.4, 0.0, 0.35, 0.0, 0.25]))
        return bh.random_problem(5, 5, 4, lam=0.3), nu, TIGHT
    if case == "exhausted":
        # the budget ends at sweep 2, before the earliest hand-over
        cfg = bh.SinkhornConfig(tolerance=1e-12, max_iterations=2)
        return bh.random_problem(8, 6, 6, lam=0.01), bh.ActionMarginal.uniform(6), cfg
    if case == "200x50":
        return bh.random_problem(200, 200, 50, lam=1.0), bh.ActionMarginal.uniform(200), TIGHT
    lam = float(case.split("=")[1])
    return bh.random_problem(6, 6, 6, lam=lam), bh.ActionMarginal.uniform(6), TIGHT


# Recorded from the plain per-sweep loop (NumPy 2.4, x86-64 with AVX-512),
# every half-step a matrix-vector product on the plain gain, with the Newton
# phase after sweep 2 for 6x6 lam=0.01, 6x6 lam=1 and zeros, each ending
# there on Newton's own pair:
# iterations, float.hex of residual, value_primal and value_dual, sha256 of
# the coupling.
GOLDEN = {
    "6x6 lam=0.01": (2, "0x1.3000000000000p-50", "0x1.41b316b242914p+6", "0x1.41b316b242913p+6",
                     "c9bceafa5475b0e29b0655a2b7af2fec68be8dfcc2b0f7b3ddb70aa0d22cac78"),
    "6x6 lam=1": (2, "0x1.0000000000000p-54", "0x1.124450e86df6dp-1", "0x1.124450e86df6ep-1",
                  "c38fc052cf61e944d93bd604fed78ff4c4532c1d55388800b0e60a0bf3c63e32"),
    "6x6 lam=1e4": (2, "0x1.8000000000000p-54", "0x1.a49c54e3b1ab8p-15", "0x1.a49c54e3b8000p-15",
                    "dfb8fc7d3e3ba50a5c9992edeeb1f748795d1aee29559a7c9c74851d57406fe4"),
    "200x50": (4, "0x1.d61d800000000p-41", "0x1.133c14a5b600bp-1", "0x1.133c14a5b61b8p-1",
               "ea81e237ad0ff7a6a95102aaff1b952cf60718d5f57f677b3d1d5ce619635b59"),
    "zeros": (2, "0x1.0000000000000p-54", "0x1.f865302b7f68dp+0", "0x1.f865302b7f68cp+0",
              "da717be2a54fa2ea2d84d2276ffc2d915619f409d5627e4c88b9f1c768083cf6"),
    "exhausted": (2, "0x1.9f669da434b7ep-3", "0x1.f8a6c976b90ecp+5", "0x1.24450a5fa6560p+6",
                  "c612655d9b8eb4403aa7bffa903c8f5e4b9fb7880633b0513ea2de8e2cc843b5"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cases_match_plain_loop(case):
    problem, nu, cfg = _golden_problem(case)
    assert _bridge_bytes(problem, nu, cfg) == _bridge_bytes(problem, nu, cfg, reference_bridge)


@pytest.mark.skipif(not _recording_platform(), reason="pins hold on the recording platform only")
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_pins(case):
    res, converged = _bridge(*_golden_problem(case))
    assert converged == (case != "exhausted")
    got = (
        res.iterations,
        float(res.residual).hex(),
        float(res.value_primal).hex(),
        float(res.value_dual).hex(),
        hashlib.sha256(res.coupling.joint.tobytes()).hexdigest(),
    )
    assert got == GOLDEN[case]


# Exact residuals built per solve: at Newton's closing pair, the budget's
# last sweep, and the sweeps whose cheap bound passes the gate; then the
# Sinkhorn half-steps, and those of them that took the log-sum-exp
# (Newton's closing half-step is its own)
CALL_COUNTS = {
    "6x6 lam=0.01": (1, 5, 0),
    "6x6 lam=1": (1, 5, 0),
    "6x6 lam=1e4": (1, 5, 0),
    "200x50": (1, 9, 0),
    "zeros": (1, 5, 0),
    "exhausted": (1, 4, 0),
}


def _call_counts(problem, nu, cfg):
    """(exact residuals built, half-steps taken, half-steps that fell back
    to the log-sum-exp) by one sinkhorn_bridge."""
    with (
        mock.patch.object(bridge, "_measure", wraps=bridge._measure) as exact,
        mock.patch.object(bridge, "_half_step", wraps=bridge._half_step) as half,
        mock.patch.object(bridge, "_logsumexp_kernel", wraps=bridge._logsumexp_kernel) as lse,
    ):
        _bridge(problem, nu, cfg)
    return exact.call_count, half.call_count, lse.call_count


@pytest.mark.parametrize("case", sorted(CALL_COUNTS))
def test_golden_cases_build_few_exact_residuals(case):
    assert _call_counts(*_golden_problem(case)) == CALL_COUNTS[case]


def test_newton_pair_ends_a_wide_small_lambda_solve():
    # op inner[50x400,lam=0.01] of perfbench's inner workload, pass 21 at
    # seed 703, drawn in the order of its inner_ops.  Newton runs on a, and
    # its gradient test bounds |nu - colsum| absolutely, that is
    # (nu - colsum) / nu in log units: its raw pair (y and the row log-sums)
    # passed the marginal residual but missed the Schrodinger equations by
    # 2.55e-9.  The closing Sinkhorn half-step's pair ends the solve at the
    # hand-over sweep with every certificate
    rng = np.random.default_rng([703, 21])
    shapes = ((6, 6), (16, 16), (64, 64), (200, 50), (50, 400))
    for (m, n), lam in itertools.product(shapes, (0.01, 0.05, 0.1, 0.25, 1.0)):
        seed = int(rng.integers(2**31))
        weights = rng.dirichlet(np.ones(m))
        if rng.random() < 0.5:
            weights[rng.choice(m, size=max(1, m // 4), replace=False)] = 0.0
            weights /= weights.sum()
        if (m, n, lam) == (50, 400, 0.01):
            break
    problem, nu = bh.random_problem(seed, m, n, lam), bh.ActionMarginal(weights)
    res = bh.sinkhorn_bridge(problem, nu, bh.SinkhornConfig(tolerance=1e-12, max_iterations=100_000))
    assert res.residual <= 1e-12
    assert res.duality_gap <= 1e-8
    assert max(bh.schrodinger_residual(problem, nu, res.potentials)) <= 1e-9
    assert res.iterations == 2


def test_sweep_count_guard():
    # 100 seeded bridges to 1e-12.  Handing over where the drift shrinks by
    # less than 10x per sweep took 357 sweeps and 292 Newton steps; the
    # predicted-sweeps rule takes 251 and 340.  Handing over after sweep 2
    # always takes 200 and 374: at lam = 3 and 10 Sinkhorn settles in a few
    # cheap sweeps, and the Newton steps that replace them cost more (11%
    # more time over 112 draws at lam 2 to 30, up to 200x50 and 50x400).
    # At lam <= 1 both rules hand over after sweep 2 on every draw
    rng = np.random.default_rng(21)
    sweeps = steps = 0
    for m, n in [(6, 6), (16, 16), (64, 64), (64, 8), (8, 64)]:
        for lam in (0.01, 0.1, 1.0, 3.0, 10.0):
            for _ in range(4):
                problem = bh.random_problem(int(rng.integers(2**31)), m, n, lam)
                nu = bh.ActionMarginal(rng.dirichlet(np.ones(m)))
                res = bh.sinkhorn_bridge(problem, nu, TIGHT)
                sweeps += res.iterations
                steps += res.newton_steps
    assert sweeps <= 265
    assert steps <= 355


def test_solved_marginal_takes_one_sweep():
    # a = 0 solves zero utility, so sweep 1's cheap bound passes the gate
    # and the sweep stops on its exact residual
    nu = bh.ActionMarginal(np.array([0.3, 0.7]))
    assert _call_counts(zero_utility_problem(), nu, TIGHT) == (1, 3, 0)

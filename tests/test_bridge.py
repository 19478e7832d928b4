"""Inner problem: Sinkhorn scaling, potentials, duality, certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bridgehead as bh
from bridgehead.bridge import (
    BridgeNotConverged,
    PotentialsInconsistent,
    additive_separability_gap,
    coupling_from_potentials,
)
from bridgehead.core import Potentials

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

    def test_uniqueness_across_initializations(self):
        p = bh.random_problem(13, 4, 5, lam=0.6)
        nu = bh.ActionMarginal(np.array([0.4, 0.1, 0.3, 0.2]))
        base = bh.sinkhorn_bridge(p, nu, TIGHT)
        rng = np.random.default_rng(2)
        for _ in range(3):
            start = rng.normal(scale=2.0, size=4)
            other = bh.sinkhorn_bridge(p, nu, TIGHT, initial_action=start)
            assert np.abs(other.coupling.joint - base.coupling.joint).max() <= 1e-8
            assert np.abs(other.potentials.action - base.potentials.action).max() <= 1e-8

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
        assert additive_separability_gap(res, nu, p.prior) <= 1e-14

    def test_symmetric_split(self, symmetric_2x2):
        nu = bh.ActionMarginal.uniform(2)
        res = bh.sinkhorn_bridge(symmetric_2x2, nu, TIGHT)
        assert additive_separability_gap(res, nu, symmetric_2x2.prior) <= 1e-10
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
        assert additive_separability_gap(res, nu, p.prior) <= 1e-8

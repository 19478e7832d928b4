"""Types, validation, and the elementary functionals."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp as scipy_logsumexp

import bridgehead as bh
from bridgehead.bridge import coupling_from_potentials
from bridgehead.core import (
    BayesPlausibilityViolated,
    Coupling,
    Potentials,
    gibbs_kernel,
    logsumexp,
    mutual_information,
    ri_objective,
    weighted_logsumexp,
)
from bridgehead.diagnostics import (
    average_free_energy,
    belief_feasibility,
    cumulant_errors,
    free_energy_check,
    gateaux_value_direction,
    gibbs_plateau_check,
    ilr_check,
)
from bridgehead.io import _potentials, problem_from_dict
from bridgehead.solver import (
    action_potential,
    foc_residuals,
    jensen_f,
    log_partition,
    logit_policy,
)

from conftest import random_plausible_coupling
from reference import ba_step, exhaustive_mi


def _issue_codes(actions, states, utility, lam, prior):
    """The codes that the InvalidInput raised by building this Problem names."""
    with pytest.raises(bh.InvalidInput, match="^invalid problem: ") as err:
        bh.Problem(actions, states, utility, lam, prior)
    issues = str(err.value).removeprefix("invalid problem: ").split("; ")
    return {issue.split(": ")[0] for issue in issues}


class TestValidate:
    def test_well_formed_problem_is_ok(self, symmetric_2x2):
        p = symmetric_2x2
        rebuilt = bh.Problem(p.actions, p.states, p.utility, p.lam, p.prior)
        assert np.array_equal(rebuilt.utility, p.utility) and rebuilt.lam == p.lam

    def test_zero_lambda(self):
        codes = _issue_codes(("a",), ("s",), np.zeros((1, 1)), 0.0, np.array([1.0]))
        assert "NonPositiveLambda" in codes

    def test_negative_lambda(self):
        codes = _issue_codes(("a",), ("s",), np.zeros((1, 1)), -2.0, np.array([1.0]))
        assert "NonPositiveLambda" in codes

    def test_prior_not_simplex(self):
        codes = _issue_codes(("a",), ("s", "t"), np.zeros((1, 2)), 1.0, np.array([0.7, 0.2]))
        assert "PriorNotSimplex" in codes

    def test_negative_prior_entry(self):
        codes = _issue_codes(("a",), ("s", "t"), np.zeros((1, 2)), 1.0, np.array([1.2, -0.2]))
        assert "PriorNotSimplex" in codes

    def test_non_finite_utility(self):
        u = np.array([[np.nan, 0.0]])
        codes = _issue_codes(("a",), ("s", "t"), u, 1.0, np.array([0.5, 0.5]))
        assert "NonFiniteUtility" in codes

    @pytest.mark.parametrize("lam", [1e-310, 1e-320])
    def test_lambda_too_small_for_utility(self, lam):
        # finite and positive, but u / lam overflows
        codes = _issue_codes(("a",), ("s", "t"), np.array([[1.0, 0.0]]), lam, np.array([0.5, 0.5]))
        assert codes == {"LambdaTooSmall"}

    def test_tiny_lambda_with_finite_kernel_is_ok(self):
        p = bh.Problem(("a",), ("s", "t"), np.array([[1e-300, 0.0]]), 1e-300, np.array([0.5, 0.5]))
        assert p.lam == 1e-300

    def test_empty_action_set(self):
        codes = _issue_codes((), ("s",), np.zeros((0, 1)), 1.0, np.array([1.0]))
        assert "EmptyActionSet" in codes

    def test_multiple_issues_all_reported(self):
        codes = _issue_codes(("a",), ("s", "t"), np.array([[np.inf, 0.0]]), 0.0, np.array([0.9, 0.3]))
        assert {"NonPositiveLambda", "PriorNotSimplex", "NonFiniteUtility"} <= codes

    @pytest.mark.parametrize(
        "fields, code",
        [
            ((("a",), ("s",), np.zeros((1, 1)), 0.0, [1.0]), "NonPositiveLambda"),
            ((("a",), ("s",), np.zeros((1, 1)), -1.0, [1.0]), "NonPositiveLambda"),
            ((("a",), ("s",), np.zeros((1, 1)), np.nan, [1.0]), "NonPositiveLambda"),
            ((("a",), ("s", "t"), np.zeros((1, 2)), 1.0, [1.0, 1.0]), "PriorNotSimplex"),
            ((("a",), ("s", "t"), np.zeros((1, 2)), 1.0, [1.0, 0.0]), "PriorNotSimplex"),
            ((("a",), ("s", "t"), [[np.inf, 0.0]], 1.0, [0.5, 0.5]), "NonFiniteUtility"),
            (((), ("s", "t"), np.zeros((0, 2)), 1.0, [0.5, 0.5]), "EmptyActionSet"),
        ],
        ids=["lam0", "lam-1", "lam-nan", "prior-sums-to-2", "zero-prior", "inf-utility", "no-actions"],
    )
    def test_construction_rejects_the_problems_the_paper_excludes(self, fields, code):
        # every entry point takes a Problem, so none sees these problems
        assert code in _issue_codes(*fields)

    @pytest.mark.parametrize(
        "build",
        [lambda: bh.random_problem(1, 2, 2, float("nan")), lambda: bh.duplicated_action_problem(lam=-1)],
        ids=["random_problem", "duplicated_action_problem"],
    )
    def test_generators_reject_invalid_lambda(self, build):
        with pytest.raises(bh.InvalidInput, match="^invalid problem: NonPositiveLambda: "):
            build()


class TestTypes:
    def test_problem_arrays_are_read_only(self, symmetric_2x2):
        with pytest.raises(ValueError):
            symmetric_2x2.utility[0, 0] = 5.0
        with pytest.raises(ValueError):
            symmetric_2x2.prior[0] = 0.9

    def test_gibbs_kernel_is_built_once_and_read_only(self, symmetric_2x2):
        kernel = gibbs_kernel(symmetric_2x2)
        assert kernel is gibbs_kernel(symmetric_2x2)
        assert not kernel.flags.writeable
        assert kernel.tobytes() == (symmetric_2x2.utility / symmetric_2x2.lam).tobytes()
        with pytest.raises(ValueError):
            kernel[0, 0] = 5.0
        rescaled = dataclasses.replace(symmetric_2x2, lam=0.3)
        assert gibbs_kernel(rescaled) is not kernel
        assert gibbs_kernel(rescaled).tobytes() == (symmetric_2x2.utility / 0.3).tobytes()

    def test_problem_shape_mismatch_rejected(self):
        with pytest.raises(bh.InvalidInput):
            bh.Problem(("a", "b"), ("s",), np.zeros((1, 1)), 1.0, np.array([1.0]))

    def test_action_marginal_rejects_negative(self):
        with pytest.raises(bh.InvalidInput):
            bh.ActionMarginal(np.array([1.2, -0.2]))

    def test_action_marginal_rejects_bad_sum(self):
        with pytest.raises(bh.InvalidInput):
            bh.ActionMarginal(np.array([0.6, 0.6]))

    def test_action_marginal_helpers(self):
        uniform = bh.ActionMarginal.uniform(4)
        assert_allclose(uniform.weights, 0.25)
        dirac = bh.ActionMarginal.dirac(3, 1)
        assert_allclose(dirac.weights, [0.0, 1.0, 0.0])
        assert len(dirac) == 3

    @pytest.mark.parametrize(
        "helper, args",
        [
            ("uniform", (0,)),
            ("uniform", (-1,)),
            ("uniform", (2.5,)),
            ("uniform", (True,)),
            ("dirac", (3, 5)),
            ("dirac", (3, 1.0)),
            ("dirac", (3, -1)),
            ("dirac", (0, 0)),
            ("dirac", (3.0, 0)),
        ],
    )
    def test_action_marginal_helpers_reject_bad_arguments(self, helper, args):
        with pytest.raises(bh.InvalidInput):
            getattr(bh.ActionMarginal, helper)(*args)

    @pytest.mark.parametrize(
        "field, value",
        [("lam", "x"), ("lam", None), ("lam", [1.0]), ("utility", [["x"]])],
        ids=["lam-str", "lam-None", "lam-list", "utility-str"],
    )
    def test_problem_rejects_non_numeric_fields(self, field, value):
        fields = {"actions": ("a",), "states": ("s",), "utility": np.zeros((1, 1)), "lam": 1.0, "prior": [1.0]}
        with pytest.raises(bh.InvalidInput, match=f"^{field} must be "):
            bh.Problem(**{**fields, field: value})

    def test_action_marginal_rejects_non_numeric_weights(self):
        with pytest.raises(bh.InvalidInput, match="^weights must be an array of real numbers"):
            bh.ActionMarginal(["x"])

    def test_action_marginal_helpers_accept_numpy_integers(self):
        assert_allclose(bh.ActionMarginal.uniform(np.int64(4)).weights, 0.25)
        dirac = bh.ActionMarginal.dirac(np.int32(3), np.int64(2))
        assert_allclose(dirac.weights, [0.0, 0.0, 1.0])

    def test_coupling_marginals(self):
        joint = np.array([[0.3, 0.1], [0.2, 0.4]])
        c = Coupling(joint)
        assert_allclose(c.action_marginal, [0.4, 0.6])
        assert_allclose(c.state_marginal, [0.5, 0.5])

    def test_coupling_rejects_bad_mass(self):
        with pytest.raises(bh.InvalidInput):
            Coupling(np.array([[0.5, 0.1], [0.2, 0.4]]))

    def test_potentials_default_convention_tag(self):
        pot = Potentials(np.array([0.5, -0.5]), np.array([0.0, 0.0]))
        assert [f.name for f in dataclasses.fields(pot)] == ["action", "state"]
        assert _potentials(pot)["normalization"] == "E_nu[action]=0"

    def test_drop_zero_prior_states_warns_and_shrinks(self):
        document = {
            "actions": ["a"],
            "states": ["s0", "s1", "s2"],
            "utility": [[1.0, 2.0, 3.0]],
            "lambda": 1.0,
            "prior": [0.5, 0.0, 0.5],
        }
        with pytest.warns(UserWarning, match=r"^dropping 1 zero-prior state\(s\): \['s1'\]$"):
            reduced = problem_from_dict(document)
        assert reduced.states == ("s0", "s2")
        assert_allclose(reduced.prior, [0.5, 0.5])
        assert_allclose(reduced.utility, [[1.0, 3.0]])


class TestGibbsKernel:
    def test_zero_utility(self):
        p = bh.Problem(("a", "b"), ("s", "t"), np.zeros((2, 2)), 3.0, np.array([0.5, 0.5]))
        assert_allclose(gibbs_kernel(p), 0.0)

    def test_identity_utility_unit_lambda(self, symmetric_2x2):
        assert_allclose(gibbs_kernel(symmetric_2x2), np.eye(2))

    def test_scalar_division(self):
        p = bh.Problem(("a",), ("s", "t"), np.array([[2.0, 4.0]]), 2.0, np.array([0.5, 0.5]))
        assert_allclose(gibbs_kernel(p), [[1.0, 2.0]])


class TestWeightedLogsumexp:
    def test_matches_plain_summation(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 4))
        weights = rng.uniform(0.1, 1.0, 5)
        out = weighted_logsumexp(values, weights, axis=0)
        direct = np.log((weights[:, None] * np.exp(values)).sum(axis=0))
        assert_allclose(out, direct, rtol=1e-14)

    def test_subnormal_weights_stay_finite(self):
        values = np.tile(np.linspace(0.0, 1.0, 4), (16, 1))
        weights = np.full(16, 1e-323)
        weights[3] = 1.0 - weights.sum() + weights[3]
        out = weighted_logsumexp(values, weights, axis=0)
        assert np.all(np.isfinite(out))
        assert_allclose(out, np.linspace(0.0, 1.0, 4), atol=1e-12)

    def test_zero_weight_drops_out(self):
        values = np.array([[100.0, 0.0], [0.0, 1.0]])
        out = weighted_logsumexp(values, np.array([0.0, 1.0]), axis=0)
        assert_allclose(out, [0.0, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(bh.InvalidInput):
            weighted_logsumexp(np.zeros(2), np.array([-0.1, 1.1]), axis=0)


def _fuzz_arrays(rng, count, ndim=None):
    """Arrays with ties at the max, -inf, +inf and NaN entries: 1-d and 2-d
    ones, or ``ndim``-d ones."""
    for _ in range(count):
        dims = rng.integers(1, 3) if ndim is None else ndim
        shape = tuple(int(k) for k in rng.integers(1, 7, size=dims))
        a = rng.normal(0.0, rng.choice([1e-3, 1.0, 30.0, 800.0]), size=shape)
        if rng.random() < 0.5:
            a.flat[rng.integers(0, a.size, size=3)] = a.max()
        if rng.random() < 0.1:
            a = np.round(a)
        for special in (-np.inf, np.inf, np.nan):
            if rng.random() < 0.15:
                a.flat[rng.integers(0, a.size)] = special
        if rng.random() < 0.05:
            a[...] = -np.inf
        yield a


def _same_bits(ours, reference) -> bool:
    return (
        type(ours) is type(reference)
        and np.shape(ours) == np.shape(reference)
        and np.asarray(ours).tobytes() == np.asarray(reference).tobytes()
    )


class TestLogsumexp:
    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20261018)
        mismatches = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in _fuzz_arrays(rng, 3000):
                for axis in (None, *range(a.ndim), -1):
                    ours = logsumexp(a, axis=axis)
                    if not _same_bits(ours, scipy_logsumexp(a, axis=axis)):
                        mismatches.append((a, axis))
            # (k, s, n) stacks over the actions and over the states, as the
            # bridge's sweep loop reduces them
            for a in _fuzz_arrays(rng, 1000, ndim=3):
                for axis in (1, 2):
                    ours = logsumexp(a, axis=axis)
                    if not _same_bits(ours, scipy_logsumexp(a, axis=axis)):
                        mismatches.append((a, axis))
        assert mismatches == []

    @pytest.mark.parametrize("value", [0.0, -3.5, 710.0, -np.inf, np.inf, np.nan])
    def test_zero_dim_input_gives_scalar(self, value):
        ours = logsumexp(np.float64(value))
        assert isinstance(ours, np.float64)
        assert _same_bits(ours, scipy_logsumexp(np.float64(value)))

    @pytest.mark.parametrize("shape, axis", [((0,), None), ((0, 3), 0), ((0, 3), 1)])
    def test_empty_input_matches_scipy(self, shape, axis):
        a = np.empty(shape)
        assert _same_bits(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis))

    def test_empty_matrix_sums_to_minus_inf(self):
        # SciPy 1.17 raises IndexError on this input
        assert _same_bits(logsumexp(np.empty((0, 3))), np.float64(-np.inf))

    def test_package_import_loads_no_scipy(self):
        code = (
            "import sys, bridgehead, bridgehead.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
        )
        src = str(Path(bh.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "[]"


class TestMutualInformation:
    def test_product_coupling_is_zero(self):
        nu = np.array([0.3, 0.7])
        mu = np.array([0.6, 0.4])
        assert mutual_information(Coupling(np.outer(nu, mu))) == 0.0

    def test_diagonal_coupling_is_log_two(self):
        c = Coupling(np.diag([0.5, 0.5]))
        assert_allclose(mutual_information(c), np.log(2.0), rtol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        joint = rng.uniform(0.01, 1.0, (3, 3))
        joint /= joint.sum()
        c = Coupling(joint)
        assert_allclose(mutual_information(c), exhaustive_mi(c), atol=1e-12)

    def test_zero_entries_contribute_zero(self):
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        c = Coupling(joint)
        assert np.isfinite(mutual_information(c))
        assert_allclose(mutual_information(c), exhaustive_mi(c), atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_zero_iff_product(self, seed):
        rng = np.random.default_rng(seed)
        joint = rng.uniform(0.05, 1.0, (3, 4))
        joint /= joint.sum()
        c = Coupling(joint)
        mi = mutual_information(c)
        assert mi >= 0.0
        product = np.outer(c.action_marginal, c.state_marginal)
        if np.abs(joint - product).max() <= 1e-10:
            assert mi <= 1e-9
        else:
            assert mi > 0.0


class TestRiObjective:
    def test_zero_utility_is_negative_information(self, symmetric_2x2):
        p = bh.Problem(("a", "b"), ("s", "t"), np.zeros((2, 2)), 1.0, np.array([0.5, 0.5]))
        rng = np.random.default_rng(0)
        coupling = random_plausible_coupling(rng, p)
        value = ri_objective(p, coupling)
        assert_allclose(value, -mutual_information(coupling), rtol=1e-12)
        product = Coupling(np.outer([0.4, 0.6], p.prior))
        assert ri_objective(p, product) == 0.0

    def test_product_coupling_on_symmetric_instance(self, symmetric_2x2):
        coupling = Coupling(np.outer([0.5, 0.5], symmetric_2x2.prior))
        assert_allclose(ri_objective(symmetric_2x2, coupling), 0.5, rtol=1e-15)

    def test_equals_envelope_at_solved_optimum(self, symmetric_2x2, solved_symmetric):
        value = ri_objective(symmetric_2x2, solved_symmetric.coupling)
        assert_allclose(value, solved_symmetric.f_value, atol=1e-10)

    def test_bayes_plausibility_enforced(self, symmetric_2x2):
        bad = Coupling(np.array([[0.6, 0.1], [0.1, 0.2]]))
        with pytest.raises(BayesPlausibilityViolated):
            ri_objective(symmetric_2x2, bad)

    def test_invariant_to_action_permutation(self):
        rng = np.random.default_rng(4)
        p = bh.random_problem(4, 3, 3)
        coupling = random_plausible_coupling(rng, p)
        base = ri_objective(p, coupling)
        perm = [2, 0, 1]
        permuted_problem = bh.Problem(
            tuple(p.actions[i] for i in perm),
            p.states,
            p.utility[perm],
            p.lam,
            p.prior,
        )
        permuted_coupling = Coupling(coupling.joint[perm])
        assert_allclose(ri_objective(permuted_problem, permuted_coupling), base, rtol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dominated_by_envelope(self, seed):
        rng = np.random.default_rng(seed)
        p = bh.random_problem(int(rng.integers(1, 2**31)), 3, 4, lam=1.0)
        coupling = random_plausible_coupling(rng, p)
        nu = bh.ActionMarginal(coupling.action_marginal / coupling.action_marginal.sum())
        assert ri_objective(p, coupling) <= jensen_f(p, nu) + 1e-10


_ZERO_POTENTIALS = Potentials(np.zeros(3), np.zeros(4))
_MARGINAL_FUNCTIONS = {
    "log_partition": log_partition,
    "action_potential": action_potential,
    "foc_residuals": foc_residuals,
    "ba_step": ba_step,
    "logit_policy": logit_policy,
    "sinkhorn_bridge": bh.sinkhorn_bridge,
    "schrodinger_residual": lambda p, nu: bh.schrodinger_residual(p, nu, _ZERO_POTENTIALS),
    "coupling_from_potentials": lambda p, nu: coupling_from_potentials(
        p, nu, _ZERO_POTENTIALS
    ),
}


@pytest.mark.parametrize("function", _MARGINAL_FUNCTIONS.values(), ids=_MARGINAL_FUNCTIONS.keys())
@pytest.mark.parametrize("length", [2, 4])
def test_marginal_length_mismatch_rejected(function, length):
    p = bh.random_problem(7, 3, 4)
    with pytest.raises(bh.InvalidInput, match="does not match 3 actions"):
        function(p, bh.ActionMarginal.uniform(length))


@pytest.fixture(scope="module")
def solved_2x3():
    p = bh.random_problem(7, 2, 3)
    return p, bh.solve(p)


def _replace(part):
    return lambda p, s, v: dataclasses.replace(s, **{part: v})


# argument name (its last word is what the message must name): the call that
# passes a bad value as that argument, on a solved 2x3 problem, and the values
_BAD_ARGUMENTS = {
    "tolerance": (
        lambda p, s, v: bh.SinkhornConfig(tolerance=v),
        [True, "1e-9", 0.0, -1.0, math.nan, math.inf],
    ),
    "max_iterations": (lambda p, s, v: bh.SinkhornConfig(max_iterations=v), [True, "10", 0, 2.0]),
    "foc_tolerance": (
        lambda p, s, v: bh.SolverConfig(foc_tolerance=v),
        [True, "1e-9", 0.0, math.nan, math.inf],
    ),
    "solver max_iterations": (lambda p, s, v: bh.SolverConfig(max_iterations=v), [False, "10", 0, -3]),
    "seed": (lambda p, s, v: bh.SolverConfig(init="random", seed=v), [True, "1", -1, 1.5]),
    "diagnostics seed": (lambda p, s, v: bh.run_diagnostics(p, s, seed=v), [True, "1", -1, 1.0]),
    "random_problem seed": (lambda p, s, v: bh.random_problem(v, 2, 2), [True, "1", -1]),
    "num_actions": (lambda p, s, v: bh.random_problem(1, v, 2), [True, "2", -1]),
    "num_states": (lambda p, s, v: bh.random_problem(1, 2, v), [True, "2", -1]),
    "uniform num_actions": (lambda p, s, v: bh.ActionMarginal.uniform(v), [True, "2", 0, 2.0]),
    "h": (
        lambda p, s, v: gateaux_value_direction(p, s.marginal, bh.ActionMarginal.dirac(2, 0), v),
        [True, "1e-5", 0.0, -1e-5, math.nan, math.inf],
    ),
    "f_value": (_replace("f_value"), [True, "0.5", None, [0.5]]),
    "iterations": (_replace("iterations"), [True, "3", -1, 3.0]),
    "converged": (_replace("converged"), ["true", 1, None]),
    "foc_residuals": (_replace("foc_residuals"), [True, "x", ["x", "y"], [0.0]]),
    "posterior_anchor": (
        lambda p, s, v: belief_feasibility(p, [0, 1], 0, v),
        [True, "x", ["x", "y", "z"], [0.5, 0.5], [0.5, 0.5, math.nan]],
    ),
    "conditionals": (
        lambda p, s, v: average_free_energy(p, v, s.marginal.weights),
        [True, "x", [["x"] * 3] * 2, [[1.0] * 2] * 3],
    ),
    "reference": (
        lambda p, s, v: average_free_energy(p, s.coupling.joint, v),
        [True, "x", ["x", "y"], [1.0] * 3],
    ),
}


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name, (_, values) in _BAD_ARGUMENTS.items() for value in values],
    ids=repr,
)
def test_entry_points_reject_bad_arguments(solved_2x3, name, value):
    call, _ = _BAD_ARGUMENTS[name]
    with pytest.raises(bh.InvalidInput, match=re.escape(name.split()[-1])):
        call(*solved_2x3, value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bh.SinkhornConfig(max_iterations=0), "max_iterations must be >= 1, got 0"),
        (lambda: bh.SolverConfig(seed=-2), "seed must be >= 0, got -2"),
        (lambda: bh.ActionMarginal.uniform(0), "num_actions must be >= 1, got 0"),
        (lambda: bh.SolverConfig(foc_tolerance=math.nan), "foc_tolerance must be > 0, got nan"),
        (lambda: bh.SinkhornConfig(tolerance=0), "tolerance must be > 0, got 0"),
    ],
)
def test_range_messages_name_the_bound(call, message):
    with pytest.raises(bh.InvalidInput) as exc:
        call()
    assert str(exc.value) == message


_P34 = bh.random_problem(7, 3, 4)
_NU34 = bh.ActionMarginal.uniform(3)
_SHORT_PAIR = Potentials(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: bh.run_diagnostics(_P34, [1, 2]), "solution"),
        (lambda: bh.solve(_P34, {"foc_tolerance": 1e-9}), "config"),
        (lambda: bh.solve(None), "problem"),
        (lambda: bh.schrodinger_residual(_P34, _NU34, _SHORT_PAIR), "potentials"),
        (lambda: coupling_from_potentials(_P34, _NU34, _SHORT_PAIR), "potentials"),
        (lambda: belief_feasibility(_P34, 5, 0, _P34.prior), "candidate_set"),
        (lambda: weighted_logsumexp(["x"], [1.0], axis=0), "values"),
        (lambda: logsumexp(np.zeros(3), axis=5), "axis"),
        (lambda: bh.sinkhorn_bridge(_P34, [0.5, 0.5]), "nu"),
        (lambda: bh.Solution(*[[0.5, 0.5]] + [None] * 6), "marginal"),
        (lambda: ilr_check(_P34, None), "solution"),
        (lambda: cumulant_errors(_P34, [1]), "solution"),
        (lambda: free_energy_check(_P34, "x"), "solution"),
        (lambda: gibbs_plateau_check(_P34, _NU34), "solution"),
        (lambda: ilr_check(None, bh.solve(_P34)), "problem"),
        (lambda: gibbs_plateau_check(_P34, bh.solve(bh.random_problem(7, 2, 2))), "solution coupling"),
        (lambda: bh.grid_search_f(None), "problem"),
        (lambda: average_free_energy(None, np.zeros((3, 4)), np.zeros(3)), "problem"),
        (lambda: belief_feasibility(None, [0], 0, _P34.prior), "problem"),
    ],
    ids=[
        "run_diagnostics-list", "solve-dict", "solve-None", "schrodinger_residual-short",
        "coupling_from_potentials-short", "belief_feasibility-int", "weighted_logsumexp-str",
        "logsumexp-axis", "sinkhorn_bridge-list", "Solution-list", "ilr_check-None",
        "cumulant_errors-list", "free_energy_check-str", "gibbs_plateau_check-marginal",
        "ilr_check-problem-None", "gibbs_plateau_check-2x2", "grid_search_f-None",
        "average_free_energy-None", "belief_feasibility-None",
    ],
)
def test_typed_arguments_raise_invalid_input(call, name):
    # each of these raised AttributeError, TypeError, AxisError or NumPy's
    # ValueError before the entry points checked their types and lengths
    with pytest.raises(bh.InvalidInput, match=re.escape(name)):
        call()

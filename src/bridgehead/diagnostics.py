"""Numerical certificates for solved instances.

Every function here checks one identity or inequality that an exact optimum
must satisfy, using arithmetic routes independent of the solver wherever
possible: finite differences against closed-form derivatives, plain summation
against log-domain evaluation, stored couplings against potential
reconstructions.  ``run_diagnostics`` bundles the checks into a report whose
entries carry the worst violation found and the tolerance it was held to.
Every violation is dimensionless (nats or probability mass), so the same
problem written as (c u, c lam) gets the same verdicts.

A report builds what its checks share once (``_shared_inputs``): the kernel
u/lam, lz = log Z(.; nu), the stored conditionals ``cond`` and the Gibbs log
posterior ``log_formula`` with its underflow mask ``aside``.  The public
checks wrap the same bodies.  Four routes stay deliberately independent: the
fresh audit solve, the plain-domain envelope that gateaux_f differences
against the log-domain one, the gateaux_value probe solves, and the
cumulants' differences in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bridge import (
    BridgeNotConverged,
    SinkhornConfig,
    _primal_values,
    additive_separability_gap,
    coupling_from_potentials,
    schrodinger_residual,
    sinkhorn_bridge,
)
from .core import (
    ActionMarginal,
    BridgeheadError,
    InvalidInput,
    Problem,
    _TINY,
    _readonly,
    action_equation,
    check_count,
    check_marginal,
    check_number,
    check_positive,
    check_type,
    gibbs_kernel,
    logsumexp,
    plateau_defect,
    ri_objective,
    shifted_gain,
    weighted_logsumexp,
)
from .solver import Solution, _logit, log_partition

__all__ = [
    "CheckResult",
    "DiagnosticReport",
    "BeliefFeasibility",
    "PosteriorNotNormalizable",
    "gateaux_f",
    "gateaux_value_direction",
    "ilr_check",
    "belief_feasibility",
    "cumulant_errors",
    "average_free_energy",
    "free_energy_check",
    "gibbs_plateau_check",
    "check_arguments",
    "run_diagnostics",
]


_PLATEAU_TOL = 1e-7        # kt_plateau and gibbs_plateau
_ILR_TOL = 1e-7            # ilr_check
_FEASIBILITY_TOL = 1e-8    # sup-norm residual of belief_feasibility
_CUMULANT_STEP = 1e-4      # t-step of the cumulant differences
_FREE_ENERGY_TOL = 1e-10   # free-energy gap of free_energy_check, nats
_INNER = SinkhornConfig(tolerance=1e-12)  # inner solves of the audit and the Gateaux probes
_STACK = 2**16             # entries of one stacked block of ilr ratio sums


class PosteriorNotNormalizable(BridgeheadError):
    """A likelihood-ratio image has zero or non-finite total mass."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one certificate: worst violation against its tolerance."""

    name: str
    max_violation: float
    tolerance: float
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class DiagnosticReport:
    """Ordered collection of certificate outcomes."""

    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def by_name(self, name: str) -> CheckResult:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


def _result(name: str, violation: float, tolerance: float, details: str = "") -> CheckResult:
    violation = float(violation)
    ok = math.isfinite(violation) and violation <= tolerance
    return CheckResult(name, violation, float(tolerance), ok, details)


# ---------------------------------------------------------------------------
# Derivative identities
# ---------------------------------------------------------------------------


def _plain_envelope(problem: Problem):
    """The map from a (k, m) stack of raw weights to f on each row; the gain
    is built once, for every stack it is called on."""
    gain, shift = shifted_gain(problem)

    def envelope(weights: np.ndarray) -> np.ndarray:
        z = weights @ gain
        if (z <= 0).any():
            raise InvalidInput("weights give a non-positive partition function")
        return (np.log(z) + shift) @ problem.prior

    return envelope


def gateaux_f(problem: Problem, nu: ActionMarginal, psi: ActionMarginal) -> float:
    """Directional derivative of the envelope f at nu toward psi.

    Equals E_prior[Z(.; psi) / Z(.; nu) - 1]; cross-check against finite
    differences of the envelope along nu + h (psi - nu).  It is one row of
    ``_gateaux_rows``, which the ``gateaux_f`` check of ``run_diagnostics``
    runs on all its directions at once.
    """
    check_marginal(problem, psi)
    return float(_gateaux_rows(problem, log_partition(problem, nu), psi.weights[None, :])[0])


def _gateaux_rows(problem: Problem, lz: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """E_prior[Z(.; psi) / Z(.; nu)] - 1 for every row psi of a (k, m) stack,
    log domain, from lz = log Z(.; nu)."""
    with np.errstate(divide="ignore"):
        log_psi = np.log(psi)
    lz_psi = logsumexp(gibbs_kernel(problem)[None, :, :] + log_psi[:, :, None], axis=1)
    # summed row by row, not as a product, so a row's bits do not depend on k
    return (np.expm1(lz_psi - lz) * problem.prior).sum(axis=1)


def _central(value_at, h: float):
    """Central difference quotient of value_at(t) at t = 0, a float or, for a
    stack of values, one quotient per row.

    The back step is evaluated first, so a back step that leaves the
    simplex fails before any work at the forward step.  ``_toward`` checks
    both of its steps before its one stacked solve.
    """
    back = value_at(-h)
    return (value_at(h) - back) / (2.0 * h)


def _in_simplex(weights: np.ndarray) -> np.ndarray:
    if (weights < 0).any():
        raise InvalidInput("difference step leaves the simplex; reduce h")
    return weights


def _toward(problem, nu, psi, h, base):
    """Derivatives of the inner value at nu toward each row of a (k, m) stack
    of marginals psi, from nu's solve ``base``.

    Returns the analytic derivatives, the inner values at the back steps
    and at the forward steps and, row by row, None or the BridgeNotConverged
    of an unconverged step, the back step's first.  The 2k steps
    nu -+ h (psi - nu) are checked, then solved as one stack that yields
    only their primal values.
    """
    a = base.potentials.action
    mean = float(nu.weights @ a)
    analytic = [float(row @ a) - mean for row in psi]
    steps = nu.weights + np.array([[-h], [h]])[:, :, None] * (psi - nu.weights)
    values, errors = _primal_values(problem, _in_simplex(steps).reshape(-1, len(nu)), _INNER)
    back, forward = values.reshape(2, -1)
    failed = [errors[i] or errors[len(psi) + i] for i in range(len(psi))]
    return analytic, back, forward, failed


def gateaux_value_direction(
    problem: Problem, nu: ActionMarginal, psi: ActionMarginal, h: float = 1e-5
) -> tuple[float, float]:
    """Derivative of the inner value at nu toward another marginal psi.

    The inner value is linear in the action potential along marginal
    perturbations, so the analytic route is E_psi[a] - E_nu[a] from the
    solved potential pair; toward a point mass ``ActionMarginal.dirac`` that
    is a(action) - E_nu[a].  The numeric route takes central differences of
    the inner value along nu + t (psi - nu), t = +-h, solved to 1e-12 as one
    stack of two rows, the route of the ``gateaux_value`` check of
    ``run_diagnostics``.  Both steps are checked before that solve: every
    weight of nu + h (nu - psi) must stay nonnegative (for a point mass,
    nu(action) >= h/(1+h)).  ``h`` must be a finite real > 0.  Raises the
    back step's BridgeNotConverged before the forward step's.
    """
    check_positive("h", h)
    check_marginal(problem, psi)
    base = sinkhorn_bridge(problem, nu, _INNER)
    analytic, back, forward, failed = _toward(problem, nu, psi.weights[None, :], h, base)
    if failed[0] is not None:
        raise failed[0]
    return analytic[0], float((forward[0] - back[0]) / (2.0 * h))


# ---------------------------------------------------------------------------
# Posterior structure
# ---------------------------------------------------------------------------


def ilr_check(problem: Problem, solution: Solution) -> CheckResult:
    """Invariant-likelihood-ratio structure of the solved posteriors.

    Checks (i) the posterior over states after each supported action matches
    prior * exp(u/lam) / Z, and (ii) the likelihood-ratio sums
    sum_omega exp((u(alpha,.) - u(alpha',.))/lam) P(omega|alpha') stay at or
    below one, exactly one when alpha is itself supported, for each supported
    alpha'.  Posteriors come from the stored coupling, so corrupted couplings
    fail here; the ratio sums read the entries that ``_shared_inputs``
    sets aside off the formula.  The worst violation is held to 1e-7.
    """
    _check_solution(problem, solution)
    return _ilr(solution, _shared_inputs(problem, solution))


def _ilr(solution: Solution, shared: SimpleNamespace) -> CheckResult:
    supported = list(solution.consideration_set)
    joint = solution.coupling.joint[supported]
    row_mass = joint.sum(axis=1)
    if (row_mass <= 0).any():
        alpha = supported[int(np.argmax(row_mass <= 0))]
        return _result("ilr", np.inf, _ILR_TOL, f"supported action {alpha} has empty row")
    posterior = joint / row_mass[:, None]
    log_formula = shared.log_formula[supported]
    with np.errstate(divide="ignore"):
        log_posterior = np.where(shared.aside[supported], log_formula, np.log(posterior))
    # row i, column alpha: alpha's ratio sum against supported action i, in
    # blocks of at most _STACK entries, so that memory stays O(m n)
    kernel, rows = shared.kernel, max(1, _STACK // shared.kernel.size)
    ratio_sums = np.exp(np.concatenate([logsumexp(
        kernel - kernel[supported[i:i + rows], None, :] + log_posterior[i:i + rows, None, :], axis=2
    ) for i in range(0, len(supported), rows)]))
    worst = max(
        float(np.abs(posterior - np.exp(log_formula)).max()),
        float(np.maximum(ratio_sums - 1.0, 0.0).max()),
        float(np.abs(ratio_sums[:, supported] - 1.0).max()),
    )
    return _result("ilr", worst, _ILR_TOL, f"{len(supported)} supported actions")


@dataclass(frozen=True)
class BeliefFeasibility:
    """Outcome of the consideration-set feasibility test."""

    feasible: bool
    weights: np.ndarray | None
    residual: float


def belief_feasibility(
    problem: Problem,
    candidate_set,
    anchor: int,
    posterior_anchor,
) -> BeliefFeasibility:
    """Can ``candidate_set`` support the prior through ratio-mapped beliefs?

    The anchor posterior is pushed to every candidate action via the utility
    likelihood ratios exp((u(alpha,.) - u(anchor,.))/lam); feasibility asks
    for nonnegative weights on the candidate set, summing to one, that mix
    these images back to the prior.  Solved as nonnegative least squares; the
    reported residual is the sup norm of the constraint violation, and the
    set is feasible when it is at most 1e-8.

    ``anchor`` and every entry of ``candidate_set`` must be integer action
    indices in [0, m), or InvalidInput is raised.  Raises
    PosteriorNotNormalizable when an image has zero, non-finite, or
    overflowing total mass.
    """
    check_type("problem", problem, Problem)
    try:
        actions = list(candidate_set)
    except TypeError:
        raise InvalidInput(
            f"candidate_set must be an iterable of action indices, got {type(candidate_set).__name__}"
        ) from None
    for index in [anchor] + actions:
        check_number("action index", index, integer=True)
        if not 0 <= index < problem.num_actions:
            raise InvalidInput(f"action index {index} out of range")
    if anchor not in actions:
        raise InvalidInput("anchor must belong to the candidate set")
    post = _readonly("posterior_anchor", posterior_anchor)
    if post.shape != (problem.num_states,):
        raise InvalidInput("posterior_anchor length does not match states")
    if (post <= 0).any() or not np.isfinite(post).all():
        raise InvalidInput("posterior_anchor must be strictly positive and finite")

    kernel = gibbs_kernel(problem)
    log_post = np.log(post)
    images = np.empty((problem.num_states, len(actions)))
    for k, alpha in enumerate(actions):
        log_image = kernel[alpha] - kernel[anchor] + log_post
        log_mass = float(logsumexp(log_image))
        if not np.isfinite(log_mass) or log_mass > 300.0:
            raise PosteriorNotNormalizable(
                f"likelihood-ratio image of action {alpha} has log-mass {log_mass!r}"
            )
        images[:, k] = np.exp(log_image)

    # the one SciPy dependency, imported here so that no other path pays for it
    from scipy.optimize import nnls

    system = np.vstack([images, np.ones((1, len(actions)))])
    target = np.concatenate([problem.prior, [1.0]])
    weights, _ = nnls(system, target)
    residual = float(np.abs(system @ weights - target).max())
    feasible = residual <= _FEASIBILITY_TOL
    return BeliefFeasibility(feasible, weights if feasible else None, residual)


# ---------------------------------------------------------------------------
# Cumulant and free-energy identities
# ---------------------------------------------------------------------------


def cumulant_errors(problem: Problem, solution: Solution) -> tuple[float, float, float]:
    """Worst-state errors of the three cumulant identities at the optimum, in nats.

    With the marginal held fixed, b(omega; t) = log sum_alpha nu exp(t u/lam)
    is analytic in the dimensionless temperature t.  At t = 1 its first
    derivative is the conditional mean of u/lam, its second the conditional
    variance, and b' - b the information gain KL(P(.|omega) || nu).  Central
    differences in t at step h = 1e-4 are compared against moments of the
    kernel u/lam under the logit policy.  Returns (mean error, variance
    error, information-gain error); u and lam enter only as u/lam, so
    (c u, c lam) gives the same errors as (u, lam).

    ``run_diagnostics`` holds the mean error to 1e-7 (exact up to O(h^2)
    curvature), the variance error to 5e-6 (the second difference loses
    about two orders to cancellation) and the gain error to 1e-5.
    """
    _check_solution(problem, solution)
    return _cumulants(solution, _shared_inputs(problem, solution))


def _cumulants(solution: Solution, shared: SimpleNamespace) -> tuple[float, float, float]:
    weights = solution.marginal.weights
    cond = _logit(weights, shared.kernel, shared.lz)
    # centre each column on its largest supported entry s: b(t) moves by t s,
    # which has no curvature and would only add eps |b| / h^2 of rounding
    kernel = shared.kernel - shared.kernel[weights > 0].max(axis=0)
    h = _CUMULANT_STEP
    t = np.array([1.0, 1.0 + h, 1.0 - h])
    b0, b_plus, b_minus = weighted_logsumexp(t[:, None, None] * kernel, weights, axis=1)
    fd_mean = (b_plus - b_minus) / (2.0 * h)
    fd_var = (b_plus - 2.0 * b0 + b_minus) / (h * h)

    mean = (cond * kernel).sum(axis=0)
    var = (cond * kernel**2).sum(axis=0) - mean**2
    gain = (cond * (kernel - b0[None, :])).sum(axis=0)  # direct KL(P(.|w) || nu)

    mean_err = float(np.abs(fd_mean - mean).max())
    var_err = float(np.abs(fd_var - var).max())
    gain_err = float(np.abs((fd_mean - b0) - gain).max())
    return mean_err, var_err, gain_err


def average_free_energy(problem: Problem, conditionals, reference) -> float:
    """Prior-average of -E[u|omega] + lam * KL(Q(.|omega) || reference).

    ``conditionals`` is an actions x states column-stochastic matrix; the
    reference measure stays fixed (the solved marginal, for certificates).
    Conditionals escaping the support of the reference score +inf.  Other
    shapes than m x n and m raise InvalidInput.
    """
    check_type("problem", problem, Problem)
    cond = _readonly("conditionals", conditionals)
    ref = _readonly("reference", reference)
    if cond.shape != problem.utility.shape or ref.shape != (problem.num_actions,):
        raise InvalidInput(f"conditionals {cond.shape} and reference {ref.shape} must be m x n and m")
    return _average_free_energy(problem, cond, ref)


def _average_free_energy(problem: Problem, cond: np.ndarray, ref: np.ndarray) -> float:
    mean_u = (cond * problem.utility).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(cond) - np.log(ref)[:, None]
        terms = np.where(cond > 0, cond * log_ratio, 0.0)
    divergence = terms.sum(axis=0)
    return float(problem.prior @ (-mean_u + problem.lam * divergence))


def _shared_inputs(problem: Problem, solution: Solution):
    """The shared inputs of the module docstring.  ``aside`` marks the entries
    where both the stored joint and the Gibbs formula's lie below the smallest
    normal double: there the stored coupling has underflowed (at lam = 1e-3,
    to 0 or 1e-317), and its log measures rounding, not the solve."""
    lz = log_partition(problem, solution.marginal)
    kernel = gibbs_kernel(problem)
    log_formula = np.log(problem.prior)[None, :] + kernel - lz[None, :]
    with np.errstate(divide="ignore"):
        log_joint = np.log(solution.marginal.weights)[:, None] + log_formula
    joint = solution.coupling.joint
    col = joint.sum(axis=0)
    return SimpleNamespace(
        kernel=kernel, lz=lz, cond=None if (col <= 0).any() else joint / col[None, :],
        log_formula=log_formula, aside=(joint < _TINY) & (log_joint < math.log(_TINY)),
    )


def free_energy_check(problem: Problem, solution: Solution) -> CheckResult:
    """No conditional policy beats the solved one's average free energy.

    Take the solved marginal nu as reference and G = nu exp(u/lam) / Z as the
    Gibbs policy.  Every conditional policy Q has average free energy
    F(Q) = lam * (E_prior KL(Q(.|omega) || G(.|omega)) - f(nu)), so no rival
    beats the stored conditionals P by more than lam * E_prior KL(P || G).
    The check reports that gap in nats, |F(P)/lam + f(nu)|: plain summation
    (``average_free_energy``) against the log-domain envelope E_prior[lz].
    Conditionals off the support of nu score +inf.  Held to 1e-10.
    """
    _check_solution(problem, solution)
    return _free_energy(problem, solution, _shared_inputs(problem, solution))


def _free_energy(problem: Problem, solution: Solution, shared: SimpleNamespace) -> CheckResult:
    if shared.cond is None:
        return _result("free_energy", np.inf, _FREE_ENERGY_TOL, "coupling has empty states")
    free = _average_free_energy(problem, shared.cond, solution.marginal.weights)
    gap = free / problem.lam + problem.prior @ shared.lz
    return _result("free_energy", abs(gap), _FREE_ENERGY_TOL, "E_prior KL(P || Gibbs), nats")


# ---------------------------------------------------------------------------
# Coupling-level plateau
# ---------------------------------------------------------------------------


def gibbs_plateau_check(problem: Problem, solution: Solution) -> CheckResult:
    """State by state, u/lam - log(P(alpha|omega)/nu(alpha)) sits at b(omega).

    Evaluated on the stored coupling across the consideration set, so edits
    to the coupling surface here; the entries that ``_shared_inputs``
    sets aside are skipped.  The worst deviation is held to 1e-7.
    """
    _check_solution(problem, solution)
    return _gibbs_plateau(solution, _shared_inputs(problem, solution))


def _gibbs_plateau(solution: Solution, shared: SimpleNamespace) -> CheckResult:
    if shared.cond is None:
        return _result("gibbs_plateau", np.inf, _PLATEAU_TOL, "coupling has empty states")
    sup = list(solution.consideration_set)
    cond = shared.cond[sup]
    weights = solution.marginal.weights[sup]
    with np.errstate(divide="ignore"):
        values = shared.kernel[sup] - np.log(cond) + np.log(weights)[:, None]
    values = np.where(np.isfinite(values), values, np.inf)
    deviation = np.abs(values - solution.potentials.state[None, :])
    worst = float(np.where(shared.aside[sup], 0.0, deviation).max())
    details = f"{len(sup)} actions x {cond.shape[1]} states"
    return _result("gibbs_plateau", worst, _PLATEAU_TOL, details)


# ---------------------------------------------------------------------------
# Bundled report
# ---------------------------------------------------------------------------

_DIRECTIONS = 10  # random directions of the gateaux_f check
_FD_STEP = 1e-5   # difference step of both Gateaux checks
_GATEAUX_TOL = 1e-3  # both Gateaux checks; also the widest bracket read centrally


def _gateaux_value(problem, nu, probe, fresh):
    """The violation and details of the ``gateaux_value`` check at the probe
    actions, from the audit solve ``fresh``.

    V is concave along each probe line nu + t (delta_alpha - nu), as an
    infimum of functions affine in nu, so the one-sided quotients
    q+ = (V(h) - V(0)) / h and q- = (V(0) - V(-h)) / h bracket V'(0):
    q+ <= V' <= q-.  V(0) is the audit's value_primal, on the probes' route.
    Where q- - q+ <= 1e-3 the analytic value is compared with the central
    difference; elsewhere (a small-lam optimum, whose inner value curves on
    a scale far below h) the violation is its distance outside the bracket,
    and the details give the widest bracket.
    """
    points = np.zeros((len(probe), problem.num_actions))
    points[np.arange(len(probe)), probe] = 1.0
    worst, widths, errors = 0.0, {}, ""
    # at a point-mass nu, delta_alpha - nu is exactly 0 and the check reads 0.0 unsolved
    if not np.array_equal(points, nu.weights[None, :]):
        h, base = _FD_STEP, fresh.value_primal
        analytic, back, forward, failed = _toward(problem, nu, points, h, fresh)
        for alpha, exact, v_back, v_forward, err in zip(probe, analytic, back, forward, failed):
            if err is not None:
                worst = np.inf
                errors += f"; action {alpha}: {err}"
                continue
            q_plus, q_minus = (v_forward - base) / h, (base - v_back) / h
            if q_minus - q_plus <= _GATEAUX_TOL:
                worst = max(worst, abs(exact - (v_forward - v_back) / (2.0 * h)))
            else:
                widths[alpha] = q_minus - q_plus
                worst = max(worst, q_plus - exact, exact - q_minus)
    central = [alpha for alpha in probe if alpha not in widths]
    details = f"central differences at {central}" if central or not widths else ""
    if widths:
        details += "; " if details else ""
        details += f"one-sided brackets at {list(widths)}, widest {max(widths.values()):.3e}"
    return worst, details + errors


def _check_solution(problem: Problem, solution: Solution) -> None:
    """Raise InvalidInput unless ``problem`` is a Problem and ``solution`` a
    Solution of the problem's m x n: the argument checks of the certificates
    that take a solved instance."""
    check_type("problem", problem, Problem)
    check_type("solution", solution, Solution)
    shape, coupling = (problem.num_actions, problem.num_states), solution.coupling.joint.shape
    if coupling != shape:
        raise InvalidInput(f"solution coupling is {coupling}, problem is {shape}")


def check_arguments(problem: Problem, solution: Solution, seed: int) -> None:
    """``_check_solution`` and a ``seed`` that is an integer >= 0: the
    argument checks of ``run_diagnostics``."""
    _check_solution(problem, solution)
    check_count("seed", seed, 0)


def run_diagnostics(
    problem: Problem,
    solution: Solution,
    seed: int = 20240817,
) -> DiagnosticReport:
    """Run every certificate against a solved instance.

    Assumes the solution was produced at (or re-solved to) tight tolerances;
    the fixed entry tolerances are calibrated for a first-order plateau near
    1e-9 and marginal residuals near 1e-12.  ``seed`` draws the random
    directions of the ``gateaux_f`` check; its 10 directions are evaluated at
    once, as one stack on each route, and they are the same directions as
    10 successive one-direction draws.  The ``gateaux_value`` check probes
    up to three supported actions alpha with nu(alpha) >= 1e-4 toward the
    point mass at alpha; its 2 steps per probe are solved as one stack.  At
    a point-mass nu (one supported action) the direction delta_alpha - nu is
    exactly 0: the probe is not solved, and the check reads 0.0 by
    construction.  It certifies nothing there; ``kt_plateau`` certifies that
    solution.  Elsewhere the one-sided quotients q+ <= V' <= q- bracket the
    derivative (``_gateaux_value``): a bracket at most 1e-3 wide, as on
    every ``standard_suite()`` solution, is read by the central difference,
    and a wider one, as at small lam, by the analytic value's distance
    outside it, with the widest bracket in the details.  Raises
    InvalidInput for a problem, solution or seed of the wrong type, a seed
    below 0, or a solution whose coupling is not the problem's m x n.
    """
    check_arguments(problem, solution, seed)
    rng = np.random.default_rng(seed)
    nu = solution.marginal
    weights = nu.weights
    checks: list[CheckResult] = []

    # an unconverged solve is audited at its best iterate, and fails here
    try:
        fresh, fresh_error = sinkhorn_bridge(problem, nu, _INNER), ""
    except BridgeNotConverged as err:
        fresh, fresh_error = err.result, str(err)
    checks.append(_result("marginal_residual", fresh.residual, 1e-10, fresh_error))
    checks.append(_result("duality_gap", fresh.duality_gap, 1e-8))
    separability = additive_separability_gap(fresh, nu, problem.prior)
    checks.append(_result("additive_separability", separability, 1e-8))
    res_a, res_b = schrodinger_residual(problem, nu, fresh.potentials)
    checks.append(_result("schrodinger_equations", max(res_a, res_b), 1e-9))

    try:
        rebuilt = coupling_from_potentials(problem, nu, solution.potentials)
        rebuild_gap = float(np.abs(rebuilt.joint - solution.coupling.joint).max())
        checks.append(_result("coupling_consistency", rebuild_gap, 1e-8))
    except BridgeheadError as err:
        checks.append(CheckResult("coupling_consistency", np.inf, 1e-8, False, str(err)))

    shared = _shared_inputs(problem, solution)
    residuals = np.expm1(action_equation(shared.kernel, problem.prior, shared.lz))
    defect = plateau_defect(residuals, weights)
    witness = int(np.argmax(defect))
    # solve stored these residuals and wrote them to solution_actions.csv
    stored_gap = float(np.abs(solution.foc_residuals - residuals).max())
    details = f"worst_index={witness}"
    if stored_gap != 0.0:
        details += f"; stored foc_residuals off by {stored_gap:.3e}"
    violation = np.maximum(defect[witness], stored_gap)  # np.maximum, unlike max, keeps a NaN
    checks.append(_result("kt_plateau", violation, _PLATEAU_TOL, details))
    checks.append(_gibbs_plateau(solution, shared))
    checks.append(_ilr(solution, shared))
    mean_err, var_err, gain_err = _cumulants(solution, shared)
    checks.append(_result("cumulant_mean", mean_err, 1e-7))
    checks.append(_result("cumulant_variance", var_err, 5e-6))
    checks.append(_result("cumulant_gain", gain_err, 1e-5))
    checks.append(_free_energy(problem, solution, shared))

    # the same directions as _DIRECTIONS successive draws of one marginal each
    psi = rng.dirichlet(np.ones(problem.num_actions), size=_DIRECTIONS)
    analytic = _gateaux_rows(problem, shared.lz, psi)
    envelope = _plain_envelope(problem)
    direction = psi - weights
    numeric = _central(lambda t: envelope(weights + t * direction), _FD_STEP)
    worst_f = float(np.abs(analytic - numeric).max())
    checks.append(_result("gateaux_f", worst_f, _GATEAUX_TOL, f"{_DIRECTIONS} random directions"))

    probe = [i for i in solution.consideration_set if weights[i] >= max(10.0 * _FD_STEP, 1e-4)][:3]
    worst_v, details = _gateaux_value(problem, nu, probe, fresh)
    checks.append(_result("gateaux_value", worst_v, _GATEAUX_TOL, details))

    try:
        touch_gap = abs(solution.f_value - ri_objective(problem, solution.coupling))
        details = "f meets the attained objective at the optimum"
        checks.append(_result("envelope_touch", touch_gap, 1e-6, details))
    except BridgeheadError as err:
        checks.append(CheckResult("envelope_touch", np.inf, 1e-6, False, str(err)))
    return DiagnosticReport(tuple(checks))

"""Domain types, validation, and elementary functionals.

The objects here describe a finite information-constrained choice problem: a
decision maker picks a joint distribution over actions and states whose state
marginal is pinned to a prior, trading expected utility against the mutual
information between action and state.  Everything downstream (the inner
matrix-scaling solver, the outer marginal iteration, the diagnostics) consumes
the immutable types defined in this module.

Each type checks its input when it is built, so a Problem, ActionMarginal
or Coupling that exists is valid and no entry point checks it again.  Every
other argument goes through ``_readonly`` or the ``check_*`` helpers here.

Conventions: utilities are in utils, information in nats, and ``lam`` converts
between them (utils per nat).  ``0 * log 0`` is 0 throughout.  Probability
sums are enforced at 1e-12 on construction; cross-checks between
independently computed quantities use looser, documented tolerances.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BridgeheadError",
    "InvalidInput",
    "BayesPlausibilityViolated",
    "Problem",
    "ActionMarginal",
    "Coupling",
    "Potentials",
    "gibbs_kernel",
    "logsumexp",
    "weighted_logsumexp",
    "mutual_information",
    "ri_objective",
]

SIMPLEX_ATOL = 1e-12   # construction-time tolerance on probability vectors
MASS_ATOL = 1e-10      # coupling total-mass tolerance
BAYES_ATOL = 1e-8      # tolerance on the state marginal in ri_objective
SUPPORT_THRESHOLD = 1e-9  # mass above which an action counts as supported
_EPS = float(np.finfo(float).eps)    # spacing of doubles at 1
_TINY = float(np.finfo(float).tiny)  # smallest normal double


class BridgeheadError(Exception):
    """Base class for all library errors."""


class InvalidInput(BridgeheadError, ValueError):
    """Malformed argument: bad shape, non-probability vector, wrong length."""


class BayesPlausibilityViolated(BridgeheadError):
    """State marginal of a coupling deviates from the prior beyond tolerance."""


def _readonly(name: str, values) -> np.ndarray:
    """A read-only float64 copy of ``values``; InvalidInput names ``name`` if
    they are not an array of real numbers."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise InvalidInput(f"{name} must be an array of real numbers: {err}") from None
    arr.setflags(write=False)
    return arr


def _floats(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, not copied where it is one; InvalidInput
    names ``name`` if they are not an array of real numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise InvalidInput(f"{name} must be an array of real numbers: {err}") from None


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise InvalidInput unless ``value`` is a real number, or an integer
    where ``integer``; NumPy scalars count, a bool is neither."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a real number"
        raise InvalidInput(f"{name} must be {noun}, got {value!r}")


def check_count(name: str, value, minimum: int) -> None:
    """Raise InvalidInput unless ``value`` is an integer >= ``minimum``."""
    check_number(name, value, integer=True)
    if value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value}")


def check_positive(name: str, value) -> None:
    """Raise InvalidInput unless ``value`` is a finite real number > 0."""
    check_number(name, value)
    if not 0 < value < np.inf:
        raise InvalidInput(f"{name} must be > 0, got {value!r}")


def check_type(name: str, value, kind: type) -> None:
    """Raise InvalidInput unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise InvalidInput(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


def _domain_issues(problem: Problem) -> tuple[list[str], np.ndarray | None]:
    """Every violated domain condition of a well-shaped problem, as "Code:
    message", and the kernel u/lam where utility and lam are valid."""
    issues, kernel = [], None
    if problem.num_actions == 0:
        issues.append("EmptyActionSet: problem has no actions")
    lam_ok = math.isfinite(problem.lam) and problem.lam > 0
    if not lam_ok:
        issues.append(f"NonPositiveLambda: information cost must be finite and > 0, got {problem.lam!r}")
    prior = problem.prior
    if not np.isfinite(prior).all():
        issues.append("PriorNotSimplex: prior has non-finite entries")
    else:
        if (prior <= 0).any():
            issues.append(
                "PriorNotSimplex: prior must be strictly positive "
                "(problem_from_dict drops exact zeros)"
            )
        total = float(prior.sum())
        if abs(total - 1.0) > SIMPLEX_ATOL:
            issues.append(f"PriorNotSimplex: prior must sum to 1 within {SIMPLEX_ATOL}, got {total!r}")
    if problem.num_states == 0:
        # surfaces as a degenerate prior rather than a dedicated code
        issues.append("PriorNotSimplex: problem has no states")
    if not np.isfinite(problem.utility).all():
        issues.append("NonFiniteUtility: utility has non-finite entries")
    elif lam_ok:
        with np.errstate(over="ignore"):
            kernel = problem.utility / problem.lam
        if not np.isfinite(kernel).all():
            issues.append(f"LambdaTooSmall: utility / lambda overflows at lambda {problem.lam!r}")
    return issues, kernel


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """A finite choice problem with an information-processing cost.

    Attributes:
        actions: action labels, length m >= 1.
        states: state labels, length n.
        utility: m x n finite payoff matrix in utils; row = action, column = state.
        lam: information cost in utils per nat, finite and > 0.
        prior: probability vector over states, length n, strictly positive.

    A Problem is valid by construction.  Non-numeric fields and shapes are
    checked first, each by an InvalidInput naming the field, then the
    domain conditions, and one InvalidInput names every violated condition
    by its code: ``EmptyActionSet`` (no actions), ``NonPositiveLambda``
    (lam not finite or not > 0), ``PriorNotSimplex`` (a non-finite, zero or
    negative entry, a sum off 1 by more than 1e-12, or no states),
    ``NonFiniteUtility``, and ``LambdaTooSmall`` (u/lam overflows), as in
    "invalid problem: NonPositiveLambda: ...; PriorNotSimplex: ...".
    The kernel u/lam that the LambdaTooSmall check computes is kept,
    read-only, and ``gibbs_kernel`` returns it.  ``io.problem_from_dict``
    drops a document's exact-zero prior states first.  A valid problem can still be out of the inner bridge's reach,
    which is set by osc(u)/lam = (max u - min u)/lam in nats: it converges
    up to about 1,400 nats, and past about 10,000 its Newton Hessian is 0
    in floating point and it sweeps until its budget ends.
    """

    actions: tuple[str, ...]
    states: tuple[str, ...]
    utility: np.ndarray
    lam: float
    prior: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(str(a) for a in self.actions))
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        utility = _readonly("utility", self.utility)
        prior = _readonly("prior", self.prior)
        if utility.shape != (len(self.actions), len(self.states)):
            raise InvalidInput(
                f"utility shape {utility.shape} does not match "
                f"{len(self.actions)} actions x {len(self.states)} states"
            )
        if prior.ndim != 1 or prior.shape[0] != len(self.states):
            raise InvalidInput(
                f"prior length {prior.shape} does not match {len(self.states)} states"
            )
        try:
            lam = float(self.lam)
        except (TypeError, ValueError):
            raise InvalidInput(f"lam must be a real number, got {self.lam!r}") from None
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "prior", prior)
        issues, kernel = _domain_issues(self)
        if issues:
            raise InvalidInput("invalid problem: " + "; ".join(issues))
        kernel.setflags(write=False)
        object.__setattr__(self, "_kernel", kernel)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class ActionMarginal:
    """Probability vector over actions: the outer-problem decision variable."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _readonly("weights", self.weights)
        if w.ndim != 1 or w.shape[0] < 1:
            raise InvalidInput("weights must be a nonempty vector")
        if not np.isfinite(w).all():
            raise InvalidInput("weights must be finite")
        if (w < 0).any():
            raise InvalidInput(f"weights must be nonnegative, min={w.min()}")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise InvalidInput(f"weights must sum to 1 within {SIMPLEX_ATOL}, got {total!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, num_actions: int) -> "ActionMarginal":
        """Equal weights on ``num_actions`` actions, an integer >= 1."""
        check_count("num_actions", num_actions, 1)
        return cls(np.full(num_actions, 1.0 / num_actions))

    @classmethod
    def dirac(cls, num_actions: int, index: int) -> "ActionMarginal":
        """The point mass at action ``index``, an integer in [0, num_actions)."""
        check_number("num_actions", num_actions, integer=True)
        check_number("index", index, integer=True)
        if not 0 <= index < num_actions:
            raise InvalidInput(f"action index {index} out of range for {num_actions} actions")
        w = np.zeros(num_actions)
        w[index] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Coupling:
    """Joint probability matrix over actions x states."""

    joint: np.ndarray

    def __post_init__(self) -> None:
        j = _readonly("joint", self.joint)
        if j.ndim != 2:
            raise InvalidInput("joint must be a matrix")
        if not np.isfinite(j).all():
            raise InvalidInput("joint must be finite")
        if (j < 0).any():
            raise InvalidInput(f"joint must be nonnegative, min={j.min()}")
        mass = float(j.sum())
        if abs(mass - 1.0) > MASS_ATOL:
            raise InvalidInput(f"joint mass must be 1 within {MASS_ATOL}, got {mass!r}")
        object.__setattr__(self, "joint", j)

    @property
    def action_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def state_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)


@dataclass(frozen=True)
class Potentials:
    """Dual pair attached to the two marginal constraints, in nats.

    ``action[i]`` and ``state[j]`` enter the optimal coupling through the
    density exp(u/lam - action - state) relative to the product measure.  The
    pair is unique only up to a translation (action + c, state - c); the
    stored convention fixes the translation by E_nu[action] = 0.
    """

    action: np.ndarray
    state: np.ndarray

    def __post_init__(self) -> None:
        a = _readonly("action", self.action)
        b = _readonly("state", self.state)
        if a.ndim != 1 or b.ndim != 1:
            raise InvalidInput("potentials must be vectors")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidInput("potentials must be finite")
        object.__setattr__(self, "action", a)
        object.__setattr__(self, "state", b)


# ---------------------------------------------------------------------------
# Elementary functionals
# ---------------------------------------------------------------------------


def check_marginal(problem: Problem, nu: ActionMarginal, name: str = "nu") -> None:
    """Raise InvalidInput unless ``problem`` is a Problem and ``nu`` an
    ActionMarginal with one weight per action; ``name`` is the argument's."""
    check_type("problem", problem, Problem)
    check_type(name, nu, ActionMarginal)
    if len(nu) != problem.num_actions:
        raise InvalidInput(
            f"marginal length {len(nu)} does not match {problem.num_actions} actions"
        )


def gibbs_kernel(problem: Problem) -> np.ndarray:
    """Log-domain kernel u/lam; entry (alpha, omega) equals utility/lam exactly.

    Built once, with the problem, and shared: the array is read-only.
    """
    return problem._kernel


def shifted_gain(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Plain-domain kernel exp(u/lam - shift), shift(omega) = max_alpha u/lam.

    Entries lie in [0, 1] and every column holds a 1, so the partition
    function exp(shift) * (nu @ gain) cannot overflow.  The solver's iteration
    and the grid oracle run on this route; reported values take the
    log-domain one (``weighted_logsumexp``), so each route checks the other.
    """
    kernel = gibbs_kernel(problem)
    shift = kernel.max(axis=0)
    return np.exp(kernel - shift[None, :]), shift


def logsumexp(a, axis: int | None = None):
    """log(sum(exp(a))) over ``axis`` (None: every entry), overflow-safe.

    The arithmetic of scipy.special.logsumexp (SciPy 1.17) on float64 input,
    bit for bit; see ``_logsumexp_kernel``.  An empty sum is -inf.  Reduced
    axes are squeezed and a 0-d result comes back as a NumPy scalar.  An
    axis out of range raises InvalidInput.
    """
    a = np.atleast_1d(_floats("a", a))
    axis = tuple(range(a.ndim)) if axis is None else axis
    try:
        if a.size == 0:
            out = np.full_like(a.sum(axis=axis, keepdims=True), -np.inf)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = _logsumexp_kernel(a, axis)
    except np.exceptions.AxisError:
        raise InvalidInput(f"axis {axis!r} is out of range for {a.ndim} dimensions") from None
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _logsumexp_kernel(a: np.ndarray, axis) -> np.ndarray:
    """``logsumexp`` of a nonempty float64 array, reduced axes kept.

    log1p(s / m) + log(m) + max, where m counts the entries at the max and s
    sums exp(a - max) over the others, the max's own terms zeroed after the
    exp (SciPy's s == 0 guard is moot: m = 0 only at a NaN max, where s is
    NaN).  The direct log(sum(exp(a))) stands in where that is not finite.
    The caller holds np.errstate(divide="ignore", invalid="ignore"), so a
    hot loop enters it once.
    """
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    at_max = a == a_max
    m = np.add.reduce(at_max, axis=axis, keepdims=True, dtype=a.dtype)
    shifted = np.subtract(a, a_max)
    np.exp(shifted, out=shifted)
    np.copyto(shifted, 0.0, where=at_max)
    s = np.add.reduce(shifted, axis=axis, keepdims=True)
    out = np.log1p(s / m) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(over="ignore"):
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
        out = np.where(finite, out, direct)
    return out


def weighted_logsumexp(values, weights, axis: int) -> np.ndarray:
    """log sum_i w_i exp(v_i) over one axis, for nonnegative weights.

    Folds the weights into the exponent as v + log w (zero weight becomes
    -inf and drops out), which stays exact for subnormal weights where a
    separate coefficient (SciPy's ``b=``) overflows internally.
    """
    v = _floats("values", values)
    w = _floats("weights", weights)
    if (w < 0).any():
        raise InvalidInput("weights must be nonnegative")
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    shape = [1] * v.ndim
    shape[axis] = -1
    return logsumexp(v + log_w.reshape(shape), axis=axis)


def action_equation(kernel: np.ndarray, prior: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Action potential implied by a state potential, one entry per kernel row:
    log sum_omega prior(omega) exp(kernel(alpha, omega) - state(omega)).
    The kernel has at least one row and one column.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _logsumexp_kernel(kernel + np.log(prior)[None, :] - state[None, :], 1)[:, 0]


def plateau_defect(residuals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-action plateau defect: |r| on the support (mass above SUPPORT_THRESHOLD), r off it.

    Its max is the violation that ``solve`` stops on and ``kt_plateau``
    reports, and its argmax names the worst action.  Weights that sum to 1
    always leave the support nonempty.
    """
    return np.where(weights > SUPPORT_THRESHOLD, np.abs(residuals), residuals)


def mutual_information(coupling: Coupling) -> float:
    """Mutual information of a joint distribution, in nats.

    Computed against the coupling's own marginals; zero entries contribute
    zero.  The exact value is nonnegative, so tiny negative rounding noise is
    clamped to 0.
    """
    joint = coupling.joint
    outer = np.outer(coupling.action_marginal, coupling.state_marginal)
    mask = joint > 0
    mi = float(np.sum(joint[mask] * (np.log(joint[mask]) - np.log(outer[mask]))))
    return max(mi, 0.0)


def ri_objective(problem: Problem, coupling: Coupling) -> float:
    """Expected utility over lam minus mutual information, at a coupling.

    The coupling must be Bayes-plausible: its state marginal has to match the
    prior within 1e-8 in sup norm, otherwise BayesPlausibilityViolated is
    raised.
    """
    if coupling.joint.shape != (problem.num_actions, problem.num_states):
        raise InvalidInput(
            f"coupling shape {coupling.joint.shape} does not match problem "
            f"({problem.num_actions}, {problem.num_states})"
        )
    deviation = float(np.abs(coupling.state_marginal - problem.prior).max())
    if deviation > BAYES_ATOL:
        raise BayesPlausibilityViolated(
            f"state marginal deviates from prior by {deviation:.3e} > {BAYES_ATOL}"
        )
    payoff = float(np.sum(coupling.joint * gibbs_kernel(problem)))
    return payoff - mutual_information(coupling)

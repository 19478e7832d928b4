"""Outer problem: choose the action marginal maximizing the inner value.

The inner value V(nu) is dominated by the envelope

    f(nu) = sum_omega prior(omega) * log Z(omega; nu),
    Z(omega; nu) = sum_alpha nu(alpha) * exp(u(alpha, omega) / lam),

with equality exactly at maximizers, so the outer problem reduces to
maximizing the smooth concave functional f over the simplex.  The basic
iteration multiplies nu entrywise by exp(a) where a is the candidate action
potential read off the fixed-point system at b = log Z:

    b_n = log Z(.; nu_n)
    a_n(alpha) = log sum_omega prior(omega) exp(u/lam - b_n(omega))
    log nu_{n+1} = log nu_n + a_n

One step is the classical multiplicative update for channel-capacity-style
problems and simultaneously one augmented scaling sweep in which the row
marginal is refreshed rather than rescaled; f never decreases along it.  At a
fixed point the residuals r = exp(a) - 1 vanish on the support of nu and are
nonpositive off it, which is the optimality plateau being certified.

The update converges only linearly, so ``solve`` takes it only where a
Newton line search fails.  Its loop reads three things off each iterate: the
gap bound f* - f <= max r, an idle-action certificate that excludes actions
from every optimal support (after Yu, "Squeezing the Arimoto-Blahut
algorithm for faster convergence", IEEE Trans. IT 2010), and a projected
Newton step on the remaining free actions, however many (the
natural-gradient view of Matz and Duhamel, ITW 2004).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bridge import BridgeNotConverged, SinkhornConfig, sinkhorn_bridge
from .core import (
    SUPPORT_THRESHOLD,
    _EPS,
    ActionMarginal,
    BridgeheadError,
    Coupling,
    InvalidInput,
    Potentials,
    Problem,
    _readonly,
    action_equation,
    check_count,
    check_marginal,
    check_number,
    check_positive,
    check_type,
    gibbs_kernel,
    plateau_defect,
    shifted_gain,
    weighted_logsumexp,
)

__all__ = [
    "SolverConfig",
    "Solution",
    "SolverNotConverged",
    "jensen_f",
    "log_partition",
    "action_potential",
    "foc_residuals",
    "logit_policy",
    "solve",
]

class SolverNotConverged(BridgeheadError):
    """Iteration budget exhausted; carries the best solution reached so far."""

    def __init__(self, message: str, solution: "Solution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and initialization for the outer iteration.

    The loop stops once the optimality plateau holds at ``foc_tolerance``
    (|r| on the support, r below it off the support, support meaning mass
    above ``SUPPORT_THRESHOLD``), after a few polishing steps that must each
    halve the violation.  At every iterate f* - f <= max r, so the plateau
    also certifies the value to within ``foc_tolerance``.  ``init`` is
    "uniform", "random" (seeded by ``seed``), or the starting ActionMarginal
    itself.
    """

    foc_tolerance: float = 1e-7
    max_iterations: int = 100_000
    init: str | ActionMarginal = "uniform"
    seed: int | None = None
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)

    def __post_init__(self) -> None:
        check_positive("foc_tolerance", self.foc_tolerance)
        check_count("max_iterations", self.max_iterations, 1)
        if not isinstance(self.init, ActionMarginal) and not (
            isinstance(self.init, str) and self.init in ("uniform", "random")
        ):
            raise InvalidInput(f"unknown init {self.init!r}")
        if self.seed is not None:
            check_count("seed", self.seed, 0)
        check_type("sinkhorn", self.sinkhorn, SinkhornConfig)


@dataclass(frozen=True)
class Solution:
    """Solved outer problem: optimal marginal plus certified inner state.

    ``consideration_set`` is not a constructor argument: it is read off the
    marginal, as the actions with mass above ``SUPPORT_THRESHOLD``.  It is
    valid by construction: InvalidInput names a field of a wrong kind or shape.
    """

    marginal: ActionMarginal
    coupling: Coupling
    potentials: Potentials
    f_value: float
    foc_residuals: np.ndarray
    consideration_set: tuple[int, ...] = field(init=False)
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        check_type("marginal", self.marginal, ActionMarginal)
        check_type("coupling", self.coupling, Coupling)
        check_type("potentials", self.potentials, Potentials)
        check_number("f_value", self.f_value)
        check_count("iterations", self.iterations, 0)
        if not isinstance(self.converged, bool):
            raise InvalidInput(f"converged must be true or false, got {self.converged!r}")
        object.__setattr__(self, "foc_residuals", _readonly("foc_residuals", self.foc_residuals))
        support = np.flatnonzero(self.marginal.weights > SUPPORT_THRESHOLD)
        object.__setattr__(self, "consideration_set", tuple(int(i) for i in support))
        m, n = self.coupling.joint.shape
        a, b = self.potentials.action, self.potentials.state
        shapes = (self.marginal.weights.shape, self.foc_residuals.shape, a.shape, b.shape)
        if shapes != ((m,), (m,), (m,), (n,)):
            raise InvalidInput(
                f"marginal, foc_residuals, action and state potentials have shapes "
                f"{shapes}, coupling is {m}x{n}"
            )


# ---------------------------------------------------------------------------
# Functionals of one marginal
# ---------------------------------------------------------------------------


def log_partition(problem: Problem, nu: ActionMarginal) -> np.ndarray:
    """log Z(omega; nu) for every state, computed as a weighted log-sum-exp.

    This log-domain route produces every reported value (f_value, foc
    residuals); the iteration runs on the plain-domain ``shifted_gain``, so
    each checks the other.
    """
    check_marginal(problem, nu)
    return weighted_logsumexp(gibbs_kernel(problem), nu.weights, axis=0)


def jensen_f(problem: Problem, nu: ActionMarginal) -> float:
    """The concave envelope f(nu) = E_prior[log Z(.; nu)].

    Dominates the inner value everywhere and touches it exactly at optimal
    marginals, so maximizing f solves the outer problem.
    """
    return float(problem.prior @ log_partition(problem, nu))


def action_potential(problem: Problem, nu: ActionMarginal) -> np.ndarray:
    """Candidate action potential a_nu at b = log Z.

    a_nu(alpha) = log sum_omega prior(omega) exp(u/lam - log Z(omega)); equals
    log(1 + r) for the first-order residual r, so the two share signs exactly.
    """
    return action_equation(gibbs_kernel(problem), problem.prior, log_partition(problem, nu))


def foc_residuals(problem: Problem, nu: ActionMarginal) -> np.ndarray:
    """First-order residuals r(alpha) = E_prior[exp(u/lam - log Z)] - 1.

    Zero on the support of an optimal marginal, nonpositive everywhere at an
    optimum.  Computed as expm1 of the candidate potential so that the sign
    matches sign(a_nu) bit for bit.
    """
    return np.expm1(action_potential(problem, nu))


def logit_policy(problem: Problem, nu: ActionMarginal) -> np.ndarray:
    """Conditional choice probabilities P(alpha | omega) = nu e^{u/lam} / Z.

    Columns index states and each sums to one.
    """
    return _logit(nu.weights, gibbs_kernel(problem), log_partition(problem, nu))


def _logit(weights: np.ndarray, kernel: np.ndarray, lz: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.exp(np.log(weights)[:, None] + kernel - lz[None, :])


# ---------------------------------------------------------------------------
# Outer iteration
# ---------------------------------------------------------------------------

_POLISH_STEPS = 5     # steps taken after the plateau first holds, while they help
_HALVINGS = 30        # backtracking budget of one projected Newton step


def _initial_weights(problem: Problem, cfg: SolverConfig) -> np.ndarray:
    m = problem.num_actions
    if isinstance(cfg.init, ActionMarginal):
        check_marginal(problem, cfg.init, "init")
        return cfg.init.weights.copy()
    if cfg.init == "uniform":
        return np.full(m, 1.0 / m)
    rng = np.random.default_rng(cfg.seed)
    w = rng.gamma(1.0, 1.0, size=m)
    return w / w.sum()


def _newton_direction(rows: np.ndarray, ratio: np.ndarray, root_p: np.ndarray) -> np.ndarray:
    """Min-norm direction d of the projected Newton system on a face.

    With R = ``rows`` = G_F diag(sqrt(p) / z) (k x n) and ratio = R sqrt(p),
    d solves R R^T d = ratio + c 1 with 1^T d = 0, on the smaller side: the
    (k+1)-square KKT system for k <= n, else d = P R (R^T P R)^+ sqrt(p) for
    the centring projector P = I - 1 1^T / k.  That n x n Gram lacks the
    rounding-level singular value that P R keeps along 1, which blows up a
    least-squares solve on P R at large lam.  d is formed row by row, so
    identical rows get identical directions.
    """
    k, n = rows.shape
    if k <= n:
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = rows @ rows.T
        kkt[k, k] = 0.0
        return np.linalg.lstsq(kkt, np.concatenate((ratio, [0.0])), rcond=None)[0][:k]
    centred = rows - rows.mean(axis=0)
    x = np.linalg.lstsq(centred.T @ centred, root_p, rcond=None)[0]
    return (centred * x).sum(axis=1)


class _Ascent:
    """The outer iterate and one step of the loop that climbs f.

    Work is done on the plain-domain ``shifted_gain``, so the log-domain
    values the solution reports are an independent check on it.  Each
    iterate w carries z = Z(.; w) up to the per-state factor exp(shift) and
    ratio = exp(a_candidate) = 1 + r, computed once and read by the stop
    test, the idle-action certificate and the step.  ``alive`` marks
    the actions that the certificate has not yet excluded.
    """

    def __init__(self, problem: Problem, cfg: SolverConfig):
        self.gain = shifted_gain(problem)[0]
        self.prior = problem.prior
        self.root_p = np.sqrt(problem.prior)
        self.cfg = cfg
        self.alive = np.ones(problem.num_actions, dtype=bool)
        # rounding allowance of a computed ratio entry or f difference
        self.slack = 8.0 * _EPS * sum(self.gain.shape)
        self._move(_initial_weights(problem, cfg))

    def _move(self, w: np.ndarray, z: np.ndarray | None = None) -> None:
        self.w = w
        self.z = w @ self.gain if z is None else z
        self.ratio = self.gain @ (self.prior / self.z)

    @property
    def gap_bound(self) -> float:
        """f* - f(w) <= max_alpha r(alpha), by concavity and E_w[1 + r] = 1."""
        return max(float(self.ratio.max()) - 1.0, 0.0)

    def step(self) -> None:
        """Exclude certified-idle actions, then climb f by one step.

        The step is projected Newton on the free set F = alive and
        (w > SUPPORT_THRESHOLD or r > foc_tolerance), of any size.  Only
        where Newton takes no step (|F| < 2, or no halving is accepted) is
        it the multiplicative update w <- w * ratio.  The actions left out
        of F hold no more than the support threshold and ask for no more
        mass; a Newton candidate sets them to zero.  They play the part of
        the epsilon-active set of Bertsekas' projected Newton method (SIAM
        J. Control Optim. 1982): with them free, their Newton directions are
        large and mostly clipped, and the clipped step stops being an ascent
        direction.
        """
        self._eliminate_idle()
        cfg = self.cfg
        free = self.alive & (
            (self.w > SUPPORT_THRESHOLD) | (self.ratio - 1.0 > cfg.foc_tolerance)
        )
        if not self._newton(np.flatnonzero(free)):
            w = self.w * self.ratio
            self._move(w / w.sum())

    def _eliminate_idle(self) -> None:
        """Zero, for good, every action the idle-action certificate excludes.

        Idle-action certificate (after Yu, IEEE Trans. IT 2010).  Z* = Z(.; nu*)
        is the same at every optimum nu*, because log is strictly concave.
        Let t = Z*/Z at the current iterate and R = max_alpha r(alpha).  Then
        sum p t = E_nu*[ratio] <= 1 + R, and sum p / t = E_w[ratio*] <= 1
        because ratio* <= 1 everywhere, so sum p (t - 1)^2 / t <= R.  With
        g = gain(alpha, .) / z and M = max g, Cauchy-Schwarz gives

            ratio*(alpha) - ratio(alpha) = sum p g (1 - t) / t
                                         <= sqrt(M ratio*(alpha) R),

        a quadratic inequality in sqrt(ratio*(alpha)) whose root is

            ratio*(alpha) <= (sqrt(M R) + sqrt(M R + 4 ratio(alpha)))^2 / 4.

        Every action on the support of an optimum has ratio* = 1, so a bound
        below 1 excludes alpha from all of them.  R and ratio are inflated by
        their rounding allowance first.  The action of largest ratio is never
        excluded, so some mass always survives.  Removing a set D of actions
        and renormalizing does not lower f whenever sum_D w (1 - ratio) >= 0
        at the new iterate, because f is concave along the segment.
        """
        gap = self.gap_bound + self.slack
        spread = (self.gain / self.z[None, :]).max(axis=1) * gap
        ratio = self.ratio + self.slack
        bound = 0.25 * (np.sqrt(spread) + np.sqrt(spread + 4.0 * ratio)) ** 2
        idle = self.alive & (bound < 1.0)
        if idle.any():
            self.alive &= ~idle
            w = np.where(self.alive, self.w, 0.0)
            self._move(w / w.sum())

    def _newton(self, free: np.ndarray) -> bool:
        """Projected Newton step on the face spanned by ``free``.

        Solves the equality-constrained Newton system with Hessian
        G_F diag(p / z^2) G_F^T in the min-norm sense, on the smaller side
        (``_newton_direction``; identical utility rows make it singular and
        then receive identical directions), drops the actions at or below
        the support threshold whose direction is not positive, and
        backtracks on f along w <- max(w + t d, 0) on what remains, zero
        elsewhere.  A candidate whose f is lower by more than the rounding
        allowance is rejected: near the optimum the true increase of a full
        step falls below the resolution of f while the step still cuts the
        residuals by orders of magnitude.  Returns False when no step is
        accepted, leaving the iterate unchanged.
        """
        w, z, root_p = self.w, self.z, self.root_p
        scale = root_p / z
        while True:
            if free.size < 2:
                return False
            d = _newton_direction(self.gain[free] * scale[None, :], self.ratio[free], root_p)
            w_free = w[free]
            blocked = (w_free <= SUPPORT_THRESHOLD) & (d <= 0.0)
            if not blocked.any():
                break
            free = free[~blocked]
        t = 1.0
        with np.errstate(divide="ignore"):  # an underflowed z_cand reads -inf: rejected
            for _ in range(_HALVINGS):
                cand = np.zeros_like(w)
                cand[free] = np.maximum(w_free + t * d, 0.0)
                cand /= cand.sum()
                z_cand = cand @ self.gain
                rise = self.prior @ np.log(z_cand / z)
                if rise >= -self.slack:
                    self._move(cand, z_cand)
                    return True
                t *= 0.5
        return False


def solve(problem: Problem, config: SolverConfig | None = None) -> Solution:
    """Maximize f over the simplex and certify the result.

    Climbs f from the configured start (see ``_Ascent.step``: idle-action
    elimination, then projected Newton on the free set, whatever its size,
    and the multiplicative update only where Newton's line search fails).
    The multiplicative update never lowers f and a Newton candidate is kept
    only if f does not fall beyond rounding.  The loop stops once the
    optimality plateau holds at foc_tolerance, after at most five more
    polishing steps, each kept only if it at least halves the plateau
    violation.  The inner problem is then re-solved at the final marginal to
    produce the coupling and the certified potential pair.  Raises
    SolverNotConverged, carrying the best solution found (converged=False),
    when max_iterations is exhausted first, that inner solve runs out of
    sweeps, or the reported log-domain residuals miss foc_tolerance where the
    iteration's plain-domain plateau passed; so a returned one is certified.

    Actions with identical utility rows get identical Newton directions and
    identical multiplicative factors, so their split of mass is set by the
    start and by the projection at zero.  With duplicated actions the
    marginal is therefore not unique, while the state partition function and
    f still converge to the common optimum.
    """
    cfg = SolverConfig() if config is None else config
    check_type("problem", problem, Problem)
    check_type("config", cfg, SolverConfig)
    ascent = _Ascent(problem, cfg)
    best: tuple[np.ndarray, float] | None = None  # plateau iterate, its violation
    polished = 0
    iterations = 0
    violation = np.inf
    for iterations in range(1, cfg.max_iterations + 1):
        violation = float(plateau_defect(ascent.ratio - 1.0, ascent.w).max())
        if best is not None and not violation <= best[1] / 2.0:
            break
        if violation <= cfg.foc_tolerance:
            polished = 0 if best is None else polished + 1
            best = (ascent.w, violation)
            if polished == _POLISH_STEPS or violation == 0.0:
                break
        ascent.step()
    exhausted = best is None
    w = ascent.w if best is None else best[0]

    # weights that decayed to the subnormal range are numerically dead;
    # flush them so downstream log-domain code sees exact zeros
    w = np.where(w < 1e-300, 0.0, w)
    w = w / w.sum()
    nu_star = ActionMarginal(w)
    lz = log_partition(problem, nu_star)
    residuals = np.expm1(action_equation(gibbs_kernel(problem), problem.prior, lz))
    final_violation = float(plateau_defect(residuals, w).max())
    try:
        inner, inner_error = sinkhorn_bridge(problem, nu_star, cfg.sinkhorn), None
    except BridgeNotConverged as err:
        inner, inner_error = err.result, err
    solution = Solution(
        marginal=nu_star,
        coupling=inner.coupling,
        potentials=inner.potentials,
        f_value=float(problem.prior @ lz),
        foc_residuals=residuals,
        iterations=iterations,
        converged=not exhausted and inner_error is None and final_violation <= cfg.foc_tolerance,
    )
    if exhausted:
        raise SolverNotConverged(
            f"no convergence after {iterations} iterations "
            f"(gap bound {ascent.gap_bound:.3e}, plateau violation {violation:.3e})",
            solution,
        )
    if inner_error is not None:
        raise SolverNotConverged(f"final inner solve failed: {inner_error}", solution)
    if not solution.converged:
        message = f"log-domain plateau violation {final_violation:.3e} > foc_tolerance"
        raise SolverNotConverged(message, solution)
    return solution

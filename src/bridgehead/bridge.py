"""Inner problem: entropic matching of a fixed action marginal to the prior.

For a fixed action marginal ``nu`` the inner value is

    V(nu) = sup over couplings P with marginals (nu, prior) of
            sum P * u/lam  -  KL(P || nu x prior)

The unique maximizer has density exp(u/lam - a(alpha) - b(omega)) relative to
the product ``nu x prior``, where the dual pair (a, b) solves the fixed-point
system

    exp(a(alpha)) = sum_omega prior(omega) * exp(u/lam - b(omega))
    exp(b(omega)) = sum_alpha nu(alpha)    * exp(u/lam - a(alpha))

``nu`` and the prior are scaled to unit mass once on entry (either may sum to
1 only within 1e-12), so the unit-mass coupling can meet its rows and its
columns exactly.  The solve is one loop of Sinkhorn sweeps, alternating the
two updates.  Each half-update is one matrix-vector product on the plain
gain exp(u/lam - max u/lam), its other factor shifted so that no entry
exceeds 1, so nothing overflows for any lam; where a sum falls below
tiny / eps, as its terms underflow at small lam, that half-update takes
the log-sum-exp of its logits instead (``_half_step``).  Most solves end
within a few sweeps.  Sinkhorn's
linear rate collapses at small lam, so a solve whose column drift predicts
that Sinkhorn, at its last measured rate, needs more than two more sweeps
hands over once to damped Newton on the semi-dual of the smaller side
(``_semi_dual_newton``), whose rate is quadratic.  Newton closes with a
Sinkhorn half-step in its own variables, and that pair is measured at once:
it ends the solve where it passes.  Otherwise, and where neither LAPACK nor
GTH elimination finds Newton a move, the sweeps go on from Newton's iterate.

The loop (``_sweeps``) has a leading stack axis: it solves k marginals that
share the kernel, the prior and one support at once, each row with its own
gate, Newton hand-over and stopping sweep, and every row rounds as it does
alone.  ``sinkhorn_bridge`` is its one-row case; ``_primal_values`` runs it
on the Gateaux probe steps of ``diagnostics``, which need only the primal
value.

Convergence is measured as the worst sup-norm violation of the two marginal
constraints by the implied unit-mass coupling, which is built only where a
cheap bound says the residual can pass (see ``sinkhorn_bridge``), so no
output depends on the bound.  ``iterations`` counts sweeps only, and
``newton_steps`` the Newton steps, which the budget does not count.

Actions with nu(alpha) = 0 are excluded before iterating and reinserted as
zero coupling rows afterwards; their action potential is defined by reading
the fixed-point equation at the converged b.  The returned potentials are
translated so that E_nu[a] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ActionMarginal,
    BridgeheadError,
    Coupling,
    InvalidInput,
    Potentials,
    Problem,
    _EPS,
    _TINY,
    _logsumexp_kernel,
    action_equation,
    check_count,
    check_marginal,
    check_positive,
    check_type,
    gibbs_kernel,
    weighted_logsumexp,
)

__all__ = [
    "SinkhornConfig",
    "BridgeResult",
    "BridgeNotConverged",
    "PotentialsInconsistent",
    "sinkhorn_bridge",
    "schrodinger_residual",
    "coupling_from_potentials",
    "additive_separability_gap",
]

_MASS_GATE = 1e-6  # coupling_from_potentials rejects beyond this mass defect
_WARM_UP = 8  # Sinkhorn sweeps before the Newton phase, at most
_NEWTON_STEPS = 200  # cap on Newton steps; each costs about one sweep
_MAX_MOVE = 10.0  # largest entry of a Newton trial step, in nats
_GATE = _TINY / _EPS  # a plain Sinkhorn sum at least this lost no term to underflow


class PotentialsInconsistent(BridgeheadError):
    """Potentials do not reproduce a unit-mass coupling within tolerance."""


class BridgeNotConverged(BridgeheadError):
    """Iteration budget exhausted; carries the best result reached so far."""

    def __init__(self, iterations: int, residual: float, result: "BridgeResult"):
        super().__init__(
            f"no convergence after {iterations} sweeps, marginal residual {residual:.3e}"
        )
        self.iterations = iterations
        self.residual = residual
        self.result = result


@dataclass(frozen=True)
class SinkhornConfig:
    """Knobs for the alternating-scaling iteration.

    tolerance: sup-norm marginal violation at which iteration stops.
    max_iterations: full sweeps (one b-update plus one a-update) allowed.
        It bounds sweeps only: a loop that hands over to Newton (after
        sweep 2 to ``_WARM_UP``, where its drift predicts more than two
        more sweeps, unless that sweep is its last) also takes up to
        ``_NEWTON_STEPS`` Newton steps, each costing about as much as
        one sweep, and stops at that sweep where Newton's pair passes.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        check_positive("tolerance", self.tolerance)
        check_count("max_iterations", self.max_iterations, 1)


@dataclass(frozen=True)
class BridgeResult:
    """Converged (or best-so-far) state of the inner problem at one marginal.

    value_primal integrates u/lam against the coupling and subtracts the
    divergence from the product measure term by term; value_dual evaluates the
    dual objective sum(a nu) + sum(b prior) + mass - 1 at the potentials.  The
    two are computed along independent arithmetic paths, so their gap is a
    genuine convergence certificate.  newton_steps counts the steps of the
    Newton phase, 0 where the solve never handed over, and gth_steps those
    whose move GTH elimination found after LAPACK gave none.
    """

    coupling: Coupling
    potentials: Potentials
    value_primal: float
    value_dual: float
    iterations: int
    residual: float
    newton_steps: int
    gth_steps: int

    @property
    def duality_gap(self) -> float:
        return abs(self.value_primal - self.value_dual)


def sinkhorn_bridge(
    problem: Problem,
    nu: ActionMarginal,
    config: SinkhornConfig | None = None,
) -> BridgeResult:
    """Solve the inner problem at ``nu``: Sinkhorn sweeps, one Newton hand-over.

    Sweep k updates b, then a, and stops at the first exact residual within
    tolerance or at the budget's end.  After the a-update the raw coupling
    has rows nu, hence unit mass up to rounding, and columns
    prior * exp(b_next - b), b_next being the next b-update, so its columns
    miss prior by c = max|prior * expm1(b_next - b)| up to rounding.  The
    exact residual is measured wherever c is within ``gate`` (4 tol plus
    rounding), at Newton's closing pair and at the budget's last sweep, so
    c neither stops a sweep nor delays a stop.  c also decides when Newton runs, once, unless the budget ends
    first: after the first sweep k >= 2 at which Sinkhorn, shrinking c at
    its last rate c_k / c_(k-1), would need more than two more sweeps,
    c_k (c_k / c_(k-1))^2 > tol, tested as c_k^3 > tol c_(k-1)^2, and after
    sweep ``_WARM_UP`` at the latest.  A solve that two more sweeps settle
    thus keeps sweeping, any other hands over, and one whose Newton pair
    passes stops at sweep k.  The sweeps are those of ``_sweeps`` on a stack
    of one row, each half-update a matrix-vector product on the plain gain,
    or the log-sum-exp where one of its sums is below tiny / eps.

    Raises BridgeNotConverged (carrying the best-so-far BridgeResult) when the
    sweep budget runs out above tolerance.
    """
    cfg = SinkhornConfig() if config is None else config
    check_marginal(problem, nu)
    check_type("config", cfg, SinkhornConfig)
    kernel = gibbs_kernel(problem)
    weights = nu.weights / nu.weights.sum()
    prior = problem.prior / problem.prior.sum()
    sup = weights > 0
    (solved,) = _sweeps(kernel[sup], weights[sup][None], prior, cfg)
    result = _assemble(problem, weights, prior, kernel, sup, solved)
    if not result.residual <= cfg.tolerance:
        raise BridgeNotConverged(result.iterations, result.residual, result)
    return result


def _sweeps(ks, ws, prior, cfg):
    """The sweep loop of ``sinkhorn_bridge`` on a (k, s) stack ``ws`` of unit-mass
    action weights that share the supported kernel rows ``ks`` and the prior.

    Every row keeps its own gate, exact residual, drift, Newton hand-over and
    stopping sweep: it hands over after the first sweep k >= 2 whose drift
    c_k predicts more than two more sweeps at its last rate,
    c_k^3 > tol c_(k-1)^2, or after ``_WARM_UP``, and once it stops it is
    frozen and leaves the stack.  Each half-update is one ``_half_step``
    over the stack: a matrix-vector product per row on the plain gain
    exp(ks - top), built once per call, or the row's log-sum-exp where one
    of its sums is below tiny / eps.  Every row rounds as it does alone, so
    a row's results do not depend on the others.  Returns, row by row, (a,
    b, coupling, mass, iterations, residual, newton) at the row's last sweep
    or at the closing pair of its Newton phase, newton being the (steps, GTH
    moves) counts of ``_newton``, or (0, 0) where the row never handed over.
    """
    budget, tolerance = cfg.max_iterations, cfg.tolerance
    # C order, so that each row's sums run in the order they run alone (the
    # rows of weights[:, sup] are strided, and K-order results follow them)
    ws = np.ascontiguousarray(ws)
    k, s = len(ws), len(ks)
    log_prior = np.log(prior)
    log_ws = np.log(ws)[:, :, None]
    row_part = ks + log_ws                    # log nu + u/lam, one slab per row
    col_part = ks + log_prior[None, :]        # log prior + u/lam
    top = float(ks.max())
    gain = np.exp(ks - top)                   # the plain kernel, entries <= 1
    # Cheap and exact residuals round apart on exponents up to |b| + osc(u/lam)
    # and sums of m + n terms, by under eps/4 times that on 600 instances, lam
    # 1e-4 to 1e4.  4 tol costs a few exact residuals.
    size_and_osc = sum(ks.shape) + (top - float(ks.min()))

    def b_update(rows, a):
        # log sum_alpha nu exp(u/lam - a), rows indexing the stack
        return _half_step(
            (log_ws[rows] - a).reshape(-1, 1, s), gain, top,
            lambda bad: _logsumexp_kernel(row_part[rows][bad] - a[bad], axis=1),
        )

    def a_update(b):
        # log sum_omega prior exp(u/lam - b), as a (k, s, 1) stack
        a = _half_step(
            log_prior - b, gain.T, top,
            lambda bad: _logsumexp_kernel(col_part - b[bad], axis=2).reshape(-1, 1, s),
        )
        return a.reshape(-1, s, 1)

    live = list(range(k))  # the input row of each stack row
    last = [np.inf] * k  # the drift of each row's last sweep
    counts = [None] * k  # the Newton counts of each input row that handed over
    out = [None] * k
    with np.errstate(divide="ignore", invalid="ignore"):
        b = b_update(slice(None), np.zeros((k, s, 1)))
        for iterations in range(1, budget + 1):
            a = a_update(b)
            if iterations == budget:
                measure = range(len(live))
            else:
                bound = np.maximum.reduce(np.abs(b), axis=(1, 2)).tolist()
                b_next = b_update(slice(None), a)
                drift = np.subtract(b_next, b)
                np.expm1(drift, out=drift)
                np.multiply(prior, drift, out=drift)
                drift = np.maximum.reduce(np.abs(drift, out=drift), axis=(1, 2)).tolist()
                # a drift within the gate (or NaN) measures
                measure = [
                    r for r, c in enumerate(drift)
                    if not c > 4.0 * tolerance + 8.0 * _EPS * (size_and_osc + bound[r])
                ]
            stopped = []
            if measure:
                # one stacked measurement; no copies where every row is measured
                some = len(measure) < len(live)
                coupling, mass, residual = _measure(
                    row_part[measure] - a[measure] if some else row_part - a,
                    b[measure] if some else b, log_prior, ws[measure] if some else ws, prior,
                )
                for j, r in enumerate(measure):
                    if residual[j] <= tolerance or iterations == budget:
                        out[live[r]] = (a[r, :, 0], b[r, 0], coupling[j], mass[j], iterations, residual[j])
                        stopped.append(r)
            if len(stopped) == len(live):
                break
            # hand over where Sinkhorn, at its last rate c / last, would need
            # more than two more sweeps, c (c / last)^2 > tol (never at sweep
            # 1, whose last is inf), or the warm-up ends; and measure Newton's
            # closing pair at once
            newton = [
                r for r, c in enumerate(drift)
                if counts[live[r]] is None and r not in stopped
                and (c * c * c > tolerance * last[r] * last[r] or iterations == _WARM_UP)
            ]
            for r in newton:
                a[r, :, 0], b_r, counts[live[r]] = _semi_dual_newton(
                    row_part[r], col_part, ws[r], prior, a[r, :, 0], b[r, 0], b_next[r, 0], tolerance
                )
                if b_r is not None:
                    one = slice(r, r + 1)
                    (coupling,), (mass,), (residual,) = _measure(
                        row_part[one] - a[one], b_r, log_prior, ws[one], prior
                    )
                    if residual <= tolerance:
                        out[live[r]] = (a[r, :, 0], b_r, coupling, mass, iterations, residual)
                        stopped.append(r)
            if len(stopped) == len(live):
                break
            if missed := [r for r in newton if r not in stopped]:
                b_next[missed] = b_update(missed, a[missed])
            last, b = drift, b_next
            if stopped:
                keep = [r for r in range(len(live)) if r not in stopped]
                live, last = [live[r] for r in keep], [last[r] for r in keep]
                ws, log_ws, row_part, b = ws[keep], log_ws[keep], row_part[keep], b[keep]
    return [row + (n or (0, 0),) for row, n in zip(out, counts)]


def _half_step(x, gain, top, fallback):
    """One Sinkhorn half-step on a (j, 1, p) stack of exponents ``x``:
    log sum_i exp(x_i) exp(K_iq), K being the logits, for each column q of
    ``gain`` = exp(K - top).  Each row takes one matrix-vector product, on
    exp(x - t) with t the row's largest exponent, so no factor exceeds 1 and
    the row rounds as it does alone; the result is log(sums) + t + top.  A
    row any of whose sums is below tiny / eps (NaN included) may have lost
    terms to underflow, so it takes ``fallback(bad)``, the log-sum-exp of its
    logits, bad being the mask of such rows.  Above that bound a sum of p
    terms has lost at most p 2^-1074 to underflow, p 2^-104 of itself."""
    t = np.maximum.reduce(x, axis=2, keepdims=True)
    sums = np.exp(x - t) @ gain
    # one test of the whole stack; rows only where it fails
    if low := not sums.min() >= _GATE:
        bad = ~(np.minimum.reduce(sums, axis=(1, 2)) >= _GATE)
    np.log(sums, out=sums)
    t += top
    sums += t
    if low:
        sums[bad] = fallback(bad)
    return sums


def _measure(rows, b, log_prior, ws, prior):
    """The unit-mass couplings of a (j, s, n) stack of pairs (a, b), rows being
    log nu + u/lam - a and ``ws`` the (j, s) weights, with their masses and
    exact residuals, the worst violations of their marginals, as lists.
    Each row of a C-order stack sums as it does alone."""
    coupling = np.exp(rows + (log_prior - b))
    mass = np.add.reduce(coupling, axis=(1, 2))
    coupling /= mass[:, None, None]
    row = np.maximum.reduce(np.abs(coupling.sum(axis=2) - ws), axis=1).tolist()
    col = np.maximum.reduce(np.abs(coupling.sum(axis=1) - prior), axis=1).tolist()
    return coupling, mass.tolist(), [max(r, c) for r, c in zip(row, col)]


def _semi_dual_newton(row_part, col_part, ws, prior, a, b, b_next, tolerance):
    """Damped Newton on the smaller side's semi-dual, from a sweep's a-update
    a at b, its next b-update b_next and its logits ``row_part`` and ``col_part``.

    Eliminating a leaves the convex semi-dual in b,
    g(b) = sum_alpha nu log sum_omega prior exp(u/lam - b) + prior . b, whose
    gradient is prior minus the coupling's column sums; eliminating b gives
    the same form in a with the roles of nu and prior swapped.  Newton runs
    on whichever potential has fewer entries.  Returns a, the b of Newton's
    closing pair (None where it did not close) and the Newton counts.
    """
    if col_part.shape[1] <= col_part.shape[0]:
        b, a, counts, closed = _newton(col_part, ws, prior, b, a[:, None], tolerance)
    else:
        a, b, counts, closed = _newton(row_part.T, prior, ws, a, b_next[:, None], tolerance)
    return a, (b if closed else None), counts


def _newton(logits, p, q, y, rows, tolerance):
    """Minimize g(y) = sum_i p_i log sum_j q_j exp(K_ij - y_j) + q . y from y and
    its row log-sums ``rows`` (a column), the logits being K + log q.

    With pi the row-conditional of exp(logits - y), the gradient is q - p pi
    and the Hessian is the graph Laplacian diag(C 1) - C of the conductances
    C = pi^T diag(p) pi with their diagonal zeroed.  It equals
    diag(p pi) - pi^T diag(p) pi, as the rows of pi sum to 1, but that
    subtraction erases conductances far below the column sums, such as
    those near 1e-25 between the nearly separate blocks of a small-lam
    solve, and the step is then no descent direction.  g is invariant under
    y + c, so the gauge holds the coordinate of the heaviest q fixed and the
    other ones are solved for, by LAPACK or, where its step gives no move,
    by GTH elimination (``_newton_move``).  Steps are damped by Armijo
    backtracking on the exact decrease of g, from a first trial that moves
    no entry of y by more than ``_MAX_MOVE``.  Where neither solve gives a
    descent direction that some step length makes decrease g, Newton ends
    unclosed, and the caller's Sinkhorn sweeps go on from y.  After a step
    the row log-sums are refreshed with one exp, centred on those of the
    accepted Armijo trial.  Once the free coordinates' max|gradient| <=
    tolerance / 4, Newton closes with the Sinkhorn half-step
    y += log(colsum / q), refreshed around rows + log(pi (q / colsum)),
    where every column sum is a normal float (a subnormal one has lost its
    precision).  Returns y, its row log-sums, the counts (steps, GTH moves),
    steps being at most ``_NEWTON_STEPS`` with the closing half-step not
    counted, and whether Newton closed.
    """
    free = np.flatnonzero(np.arange(len(q)) != np.argmax(q))
    root_p = np.sqrt(p)[:, None]
    move = np.zeros(len(q))  # every Armijo trial's move; 0 at the gauge
    gth = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pi = np.subtract(logits, y)
        np.subtract(pi, rows, out=pi)
        np.exp(pi, out=pi)
        for steps in range(_NEWTON_STEPS + 1):
            colsum = p @ pi
            grad = (q - colsum).take(free)
            # a NaN maximum is not closed, as no NaN is <= tolerance / 4
            closed = float(np.abs(grad).max(initial=0.0)) <= tolerance / 4
            if closed or steps == _NEWTON_STEPS:
                break
            if (found := _newton_move(p, root_p, q, pi, grad, free, move)) is None:
                break
            gth += found[2]
            y = y + found[0]
            centre = rows + found[1][:, None]
            # one exp, centred near the new row log-sums and taken fresh from
            # the logits, so the rows stay exact and underflowed entries
            # revive; it runs in pi's buffer, which the move has done with
            np.subtract(logits, y, out=pi)
            np.subtract(pi, centre, out=pi)
            np.exp(pi, out=pi)
            total = pi.sum(axis=1, keepdims=True)
            rows = centre + np.log(total)
            np.divide(pi, total, out=pi)
        # the closing half-step, from pi: exact only where no column sum is subnormal
        if closed := closed and float(colsum.min()) >= _TINY:
            y = y + np.log(colsum / q)
            centre = rows + np.log(pi @ (q / colsum))[:, None]
            rows = centre + np.log(np.exp(logits - y - centre).sum(axis=1, keepdims=True))
    return y, rows[:, 0], (steps, gth), closed


def _newton_move(p, root_p, q, pi, grad, free, move):
    """The damped Newton move of ``_newton``, the row log-sum shift it makes
    and whether GTH found it, or None where neither solve of the reduced
    Hessian gives a descent direction that some length makes decrease g.
    ``free`` indexes the free coordinates, and the move is written into
    ``move``, whose other entries are 0.  The conductances are w^T w with
    w = pi sqrt(p), sqrt(p) being the column ``root_p``, which NumPy hands
    to SYRK; both diagonals are set through strided views.  LAPACK solves
    first; only where it gives no move (a singular matrix, no descent
    direction or no Armijo length) does GTH elimination of the same system,
    which subtracts nothing, take over."""
    weighted = pi * root_p
    conductance = weighted.T @ weighted  # SYRK: each entry a sum of products
    conductance.flat[:: len(q) + 1] = 0.0
    hessian = conductance.take(free, axis=0).take(free, axis=1)
    np.negative(hessian, out=hessian)
    hessian.flat[:: len(free) + 1] = conductance.sum(axis=1).take(free)
    try:
        found = _damped(p, q, pi, grad, free, np.linalg.solve(hessian, grad), move)
    except np.linalg.LinAlgError:
        found = None
    if found is not None:
        return (*found, False)
    mask = np.isin(np.arange(len(q)), free)
    found = _damped(p, q, pi, grad, free, _gth_solve(conductance, mask, grad), move)
    return None if found is None else (*found, True)


def _damped(p, q, pi, grad, free, step, move):
    """The Armijo move along the Newton step on the free coordinates, written
    into ``move``, and its shift of the row log-sums, log1p(pi expm1(-move)),
    or None where the step is no descent direction or no length decreases g."""
    # a tiny column sum gives a near-null Hessian direction and a huge
    # step; trials start at most _MAX_MOVE nats from y
    if (scale := _MAX_MOVE / np.abs(step).max()) < 1.0:
        step *= scale
    slope = float(grad @ step)
    if not slope > 0:
        return None
    for _ in range(40):
        move[free] = -step
        # g(y + move) - g(y), from pi at y: exact to rounding of |move|
        shift = np.log1p(pi @ np.expm1(-move))
        if float(p @ shift + q @ move) <= -1e-4 * slope:
            return move, shift
        step *= 0.5
        slope *= 0.5
    return None


def _gth_solve(conductance, free, grad):
    """Solve the Laplacian system of the zero-diagonal ``conductance``,
    grounded at the node off ``free``, by GTH elimination (Grassmann, Taksar
    & Heyman, Oper. Res. 1985).  Eliminating a free node k adds
    C_ik C_kj / D_k to the conductances that remain, and its pivot D_k is the
    sum of k's remaining conductances, the ground's included, so no
    subtraction erases a conductance far below the column sums.  A node
    with no conductance left gives a non-finite step, which ``_damped``
    rejects."""
    c = conductance.copy()
    rhs = np.zeros(len(c))
    rhs[free] = grad
    remaining = np.ones(len(c), dtype=bool)
    nodes = np.flatnonzero(free)
    links = np.zeros((len(nodes), len(c)))
    pivots = np.empty(len(nodes))
    for i, k in enumerate(nodes):
        remaining[k] = False
        links[i, remaining] = c[k, remaining]
        pivots[i] = links[i].sum()
        c += np.outer(links[i], links[i] / pivots[i])
        rhs += links[i] * (rhs[k] / pivots[i])
    x = np.zeros(len(c))
    for i in range(len(nodes) - 1, -1, -1):
        x[nodes[i]] = (rhs[nodes[i]] + links[i] @ x) / pivots[i]
    return x[free]


def _primal_values(problem: Problem, stack: np.ndarray, config: SinkhornConfig):
    """``value_primal`` of ``sinkhorn_bridge`` at each row of a (k, m) stack of
    action weights, with no coupling, potentials or dual value assembled.

    Rows on one support are solved as one stack of ``_sweeps``, so each row's
    value, sweeps and residual are those of ``sinkhorn_bridge`` at that row
    alone.  Returns the values and, row by row, None or the BridgeNotConverged
    that ``sinkhorn_bridge`` raises at that row.
    """
    kernel = gibbs_kernel(problem)
    weights = stack / stack.sum(axis=1, keepdims=True)
    prior = problem.prior / problem.prior.sum()
    log_prior = np.log(prior)
    values = np.empty(len(stack))
    errors = [None] * len(stack)
    supports: dict[bytes, list[int]] = {}
    for i, sup in enumerate(weights > 0):
        supports.setdefault(sup.tobytes(), []).append(i)
    for members in supports.values():
        sup = weights[members[0]] > 0
        ks, ws = kernel[sup], weights[members][:, sup]
        solved = _sweeps(ks, ws, prior, config)
        couplings = np.array([row[2] for row in solved])
        values[members] = _values_primal(couplings, ws, log_prior, ks)
        for i, row in zip(members, solved):
            if not row[5] <= config.tolerance:
                result = _assemble(problem, weights[i], prior, kernel, sup, row)
                errors[i] = BridgeNotConverged(result.iterations, result.residual, result)
    return values, errors


def _value_primal(coupling, ws, prior, ks) -> float:
    """``_values_primal`` of one coupling."""
    return float(_values_primal(coupling[None], ws[None], np.log(prior), ks)[0])


def _values_primal(couplings, ws, log_prior, ks) -> np.ndarray:
    """Integrate u/lam against each of a C-order (j, s, n) stack of couplings
    of the supported actions and subtract its divergence from ws x prior
    term by term, ws being the (j, s) weights.  Where no coupling holds a
    zero entry the stacked arrays are summed as they are; otherwise, as
    0 log 0 = 0, each coupling sums its positive entries only (an exact 0
    is underflow at small lam).  A C-order array sums as its flat copy does
    and each row of a stack as it does alone, so the two forms agree bit
    for bit where both apply."""
    log_product = np.log(ws)[:, :, None] + log_prior
    if couplings.min() > 0:
        kl = np.add.reduce(couplings * (np.log(couplings) - log_product), axis=(1, 2))
    else:
        kl = np.array([
            np.add.reduce(c[mask] * (np.log(c[mask]) - lp[mask]))
            for c, lp, mask in zip(couplings, log_product, couplings > 0)
        ])
    return np.add.reduce(couplings * ks, axis=(1, 2)) - kl


def _assemble(problem, weights, prior, kernel, sup, solved):
    a_s, b, coupling_s, mass, iterations, residual, (newton_steps, gth_steps) = solved
    # extend a to excluded actions by reading the fixed-point equation at b
    a_full = np.empty(problem.num_actions)
    a_full[sup] = a_s
    off = ~sup
    if off.any():
        a_full[off] = action_equation(kernel[off], prior, b)

    # translate so that E_nu[a] = 0 (leaves a + b, hence the coupling, alone)
    ws = weights[sup]
    shift = float(ws @ a_s)
    a_full = a_full - shift
    b = b + shift

    full = np.zeros((problem.num_actions, problem.num_states))
    full[sup] = coupling_s

    # dual: evaluate the potentials; mass is the pre-normalization total
    value_dual = float(a_full @ weights) + float(b @ prior) + mass - 1.0

    return BridgeResult(
        coupling=Coupling(full),
        potentials=Potentials(action=a_full, state=b),
        value_primal=_value_primal(coupling_s, ws, prior, kernel[sup]),
        value_dual=value_dual,
        iterations=iterations,
        residual=residual,
        newton_steps=newton_steps,
        gth_steps=gth_steps,
    )


def _check_potentials(problem: Problem, nu: ActionMarginal, potentials: Potentials) -> None:
    """Raise InvalidInput unless ``nu`` fits the problem and ``potentials`` is
    a Potentials pair of one entry per action and one per state."""
    check_marginal(problem, nu)
    check_type("potentials", potentials, Potentials)
    sizes = (len(potentials.action), len(potentials.state))
    if sizes != (problem.num_actions, problem.num_states):
        raise InvalidInput(
            f"potentials have {sizes[0]} action and {sizes[1]} state entries, "
            f"problem is {problem.num_actions} x {problem.num_states}"
        )


def schrodinger_residual(
    problem: Problem, nu: ActionMarginal, potentials: Potentials
) -> tuple[float, float]:
    """Sup-norm violations of the two fixed-point equations, in log domain.

    Returns (action-equation residual over all actions, state-equation
    residual over all states).  Both are ~0 at potentials returned by
    sinkhorn_bridge; perturbing either potential shows up here directly.
    """
    _check_potentials(problem, nu, potentials)
    kernel = gibbs_kernel(problem)
    a = potentials.action
    b = potentials.state
    a_eq = action_equation(kernel, problem.prior, b)
    b_eq = weighted_logsumexp(kernel - a[:, None], nu.weights, axis=0)
    res_a = float(np.abs(a - a_eq).max())
    res_b = float(np.abs(b - b_eq).max())
    return res_a, res_b


def coupling_from_potentials(
    problem: Problem, nu: ActionMarginal, potentials: Potentials
) -> Coupling:
    """Materialize the coupling nu x prior x exp(u/lam - a - b).

    The potentials must reproduce total mass 1 within 1e-6, otherwise
    PotentialsInconsistent is raised; the tiny remaining defect is projected
    out so the result is an exact unit-mass Coupling.
    """
    _check_potentials(problem, nu, potentials)
    kernel = gibbs_kernel(problem)
    with np.errstate(over="ignore"):
        density = np.exp(
            kernel - potentials.action[:, None] - potentials.state[None, :]
        )
    joint = nu.weights[:, None] * problem.prior[None, :] * density
    mass = float(joint.sum())
    if not np.isfinite(mass) or abs(mass - 1.0) > _MASS_GATE:
        raise PotentialsInconsistent(
            f"potentials give total mass {mass!r}, expected 1 within {_MASS_GATE}"
        )
    return Coupling(joint / mass)


def additive_separability_gap(
    result: BridgeResult, nu: ActionMarginal, prior: np.ndarray
) -> float:
    """|value_primal - (sum a nu + sum b prior)|.

    The inner value splits additively into the two potential integrals; the
    defect at a converged result is residual-sized.
    """
    split = float(result.potentials.action @ nu.weights) + float(
        result.potentials.state @ np.asarray(prior)
    )
    return abs(result.value_primal - split)

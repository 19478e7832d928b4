"""Independent reference computations that only the tests run.

Each function here reaches a quantity the package computes along another
route, so a test that compares the two crosses routes.  None of them is
called by the package; each trades speed for independence, so keep
instances small.  ``reference_newton`` and ``reference_half_step`` are the
exceptions: frozen copies of the package's own routes, against which cuts
of those routes must keep every byte.
"""

import math
from dataclasses import replace

import numpy as np

import bridgehead as bh
from bridgehead import bridge
from bridgehead.core import check_count, check_number, check_positive, logsumexp
from bridgehead.diagnostics import _INNER, _central, _in_simplex, _plain_envelope
from bridgehead.solver import action_potential


def envelope_raw(problem, weights) -> float:
    """Independent oracle: the envelope f on a raw weight vector, plain domain.

    Used by finite-difference oracles: differentiating f needs evaluations
    just outside the simplex.  It runs on ``shifted_gain``, the route of the
    solver's iteration, while ``gateaux_f`` and ``jensen_f`` take the
    log-domain route, so the finite differences check one against the other.
    It is one row of the plain envelope that the ``gateaux_f`` check of
    ``run_diagnostics`` runs on all its directions at once.
    """
    w = np.asarray(weights, dtype=np.float64)
    return float(_plain_envelope(problem)(w[None, :])[0])


def gateaux_value_state(problem, nu, state: int, h: float = 1e-5) -> tuple[float, float]:
    """Independent oracle: the derivative of the inner value toward a state atom.

    Analytic route: b(state) - E_prior[b] at the solved potential pair;
    numeric route takes central differences of the inner value with the
    prior tilted toward the atom and away from it, which needs
    prior(state) >= h/(1+h).  ``state`` must be an integer index and ``h`` a
    finite real > 0, or InvalidInput is raised before any solve.
    """
    check_positive("h", h)
    check_number("state", state, integer=True)
    if not 0 <= state < problem.num_states:
        raise bh.InvalidInput(f"state index {state} out of range")
    base = bh.sinkhorn_bridge(problem, nu, _INNER)
    b = base.potentials.state
    analytic = float(b[state]) - float(problem.prior @ b)

    def value_at(step: float) -> float:
        prior = (1.0 - step) * problem.prior
        prior[state] += step
        return bh.sinkhorn_bridge(replace(problem, prior=_in_simplex(prior)), nu, _INNER).value_primal

    return analytic, _central(value_at, h)


def ba_step(problem, nu):
    """Independent oracle: one multiplicative update, log nu' = log nu + a_nu,
    renormalized.

    Equivalent to an augmented scaling sweep that refreshes the row marginal;
    f(nu') >= f(nu) always, with equality only at fixed points, and fixed
    points are exactly the marginals whose residuals form a plateau.  The
    solver's ascent takes this step in the plain domain; this one is log
    domain.
    """
    a = action_potential(problem, nu)
    with np.errstate(divide="ignore"):
        log_next = np.log(nu.weights) + a
    log_next -= logsumexp(log_next)
    return bh.ActionMarginal(np.exp(log_next))


def kkt_direction(rows, root_p) -> np.ndarray:
    """Independent oracle: the min-norm projected Newton direction of the
    outer ascent, from the bordered KKT system.

    ``rows`` is R = G_F diag(sqrt(p) / z), one row per free action.  The
    system [[R R^T, 1], [1^T, 0]] [d; c] = [R sqrt(p); 0] is solved with the
    pseudo-inverse, whatever the number of rows; the solver solves it on the
    smaller side.
    """
    k = rows.shape[0]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = rows @ rows.T
    kkt[k, k] = 0.0
    return (np.linalg.pinv(kkt) @ np.append(rows @ root_p, 0.0))[:k]


def simplex_lattice(num_actions: int, denominator: int):
    """Independent oracle: yield all compositions of ``denominator`` into
    ``num_actions`` parts, by plain recursion over tuples.

    Ascending lexicographic order, the order in which ``grid_search_f``
    scans its lattice pieces.  Both arguments must be integers >= 1 (NumPy
    integers count, a bool does not), or InvalidInput is raised.
    """
    check_count("num_actions", num_actions, 1)
    check_count("denominator", denominator, 1)

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + (k,), remaining - k, slots - 1)

    yield from rec((), denominator, num_actions)


def exhaustive_mi(coupling) -> float:
    """Independent oracle: mutual information by a plain double loop over
    joint entries.

    Pure Python floats, marginals accumulated by running sums, zero entries
    skipped under the 0 log 0 = 0 convention.  Deliberately shares no code
    with the vectorized functional it cross-checks.
    """
    joint = coupling.joint
    rows = [float(sum(joint[i, j] for j in range(joint.shape[1]))) for i in range(joint.shape[0])]
    cols = [float(sum(joint[i, j] for i in range(joint.shape[0]))) for j in range(joint.shape[1])]
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = float(joint[i, j])
            if p > 0.0:
                total += p * math.log(p / (rows[i] * cols[j]))
    return max(total, 0.0)


def reference_half_step(x, gain, top, logits, axis):
    """Frozen oracle: one Sinkhorn half-step of the inner bridge as
    ``bridge._half_step`` computes it on a stack of one row.

    ``x`` holds the exponents (log weight minus potential) of the summed
    side, ``gain`` is exp(K - top) with one row per entry of x, and
    ``logits`` the full logits x + K, summed over ``axis`` by ``logsumexp``
    where any plain sum is below tiny / eps or NaN.  Elsewhere the result
    is log(exp(x - t) @ gain) + (t + top), t being max(x).
    """
    t = x.max()
    sums = np.exp(x - t) @ gain
    if not sums.min() >= np.finfo(float).tiny / np.finfo(float).eps:
        return logsumexp(logits, axis=axis)
    return np.log(sums) + (t + top)


def reference_newton(logits, p, q, y, rows, tolerance):
    """Frozen oracle: the semi-dual Newton phase of the inner bridge as
    ``bridge._newton``, ``_newton_move`` and ``_damped`` computed it before
    their call-count cuts, kept verbatim, with the package's ``_gth_solve``.

    Same arguments and returns as ``bridge._newton``: y, its row log-sums,
    the counts (steps, GTH moves) and whether Newton closed.  The package
    must return the same bytes, so a cut that moves one rounding shows here
    on any platform, where the golden pins hold on the recording one only.
    """
    free = np.arange(len(q)) != np.argmax(q)
    root_p = np.sqrt(p)[:, None]
    gth = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pi = np.exp(logits - y - rows)
        for steps in range(bridge._NEWTON_STEPS + 1):
            colsum = p @ pi
            grad = (q - colsum)[free]
            closed = bool(np.all(np.abs(grad) <= tolerance / 4))
            if closed or steps == bridge._NEWTON_STEPS:
                break
            if (found := _reference_newton_move(p, root_p, q, pi, grad, free)) is None:
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
        if closed := closed and bool(np.all(colsum >= np.finfo(float).tiny)):
            y = y + np.log(colsum / q)
            centre = rows + np.log(pi @ (q / colsum))[:, None]
            rows = centre + np.log(np.exp(logits - y - centre).sum(axis=1, keepdims=True))
    return y, rows[:, 0], (steps, gth), closed


def _reference_newton_move(p, root_p, q, pi, grad, free):
    """``bridge._newton_move`` before its call-count cuts: free is a mask."""
    weighted = pi * root_p
    conductance = weighted.T @ weighted  # SYRK: each entry a sum of products
    np.fill_diagonal(conductance, 0.0)
    hessian = -conductance[free][:, free]
    np.fill_diagonal(hessian, conductance.sum(axis=1)[free])
    try:
        found = _reference_damped(p, q, pi, grad, free, np.linalg.solve(hessian, grad))
    except np.linalg.LinAlgError:
        found = None
    if found is not None:
        return (*found, False)
    found = _reference_damped(p, q, pi, grad, free, bridge._gth_solve(conductance, free, grad))
    return None if found is None else (*found, True)


def _reference_damped(p, q, pi, grad, free, step):
    """``bridge._damped`` before its call-count cuts."""
    # a tiny column sum gives a near-null Hessian direction and a huge
    # step; trials start at most _MAX_MOVE nats from y
    step *= min(1.0, bridge._MAX_MOVE / np.abs(step).max())
    slope = float(grad @ step)
    if not slope > 0:
        return None
    move = np.zeros(len(q))
    for _ in range(40):
        move[free] = -step
        # g(y + move) - g(y), from pi at y: exact to rounding of |move|
        shift = np.log1p(pi @ np.expm1(-move))
        if float(p @ shift + q @ move) <= -1e-4 * slope:
            return move, shift
        step *= 0.5
        slope *= 0.5
    return None

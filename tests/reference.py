"""Independent reference computations that only the tests run.

Each function here reaches a quantity the package computes along another
route, so a test that compares the two crosses routes.  None of them is
called by the package; each trades speed for independence, so keep
instances small.
"""

import math
from dataclasses import replace

import numpy as np

import bridgehead as bh
from bridgehead.core import check_number, logsumexp
from bridgehead.diagnostics import _INNER, _central, _check_step, _in_simplex, _plain_envelope
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
    _check_step(h)
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
    check_number("num_actions", num_actions, integer=True)
    check_number("denominator", denominator, integer=True)
    if num_actions < 1 or denominator < 1:
        raise bh.InvalidInput("need at least one action and a positive denominator")

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

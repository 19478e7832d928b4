"""Slow, solver-independent reference computations.

The grid search brackets the optimal envelope value by brute force, without
ever running the fixed-point iteration it is used to audit: from below by the
best lattice value, from above by concavity at the lattice points.  It
evaluates f on the same plain-domain ``shifted_gain`` the iteration climbs;
the solver reports f through the log-domain route, so comparing the two
crosses routes.  Everything here trades speed for independence, so keep instances small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import ActionMarginal, BridgeheadError, InvalidInput, Problem, check_number, check_type, shifted_gain

__all__ = [
    "TooManyActions",
    "GridSearchResult",
    "grid_search_f",
]

_BATCH_ROWS = 4096
_MAX_ACTIONS = 4  # the lattice grows like N^(m-1); beyond this it is too large


class TooManyActions(BridgeheadError):
    """The action set exceeds what the lattice search is willing to sweep."""


@dataclass(frozen=True)
class GridSearchResult:
    """Best lattice point plus a certified upper bound on the optimum."""

    marginal: ActionMarginal
    f_best: float
    upper_bound: float
    resolution: float
    points_evaluated: int

    @property
    def margin(self) -> float:
        """Certified gap: no simplex point beats f_best by more than this."""
        return self.upper_bound - self.f_best


def _compositions(head: tuple[int, ...], total: int, parts: int) -> np.ndarray:
    """``head`` followed by every composition of ``total`` into ``parts``
    parts, as exact float64 integers in ascending lexicographic order.

    Built one coordinate at a time: each row fans out into one row per value
    its next coordinate can take, and the last coordinate takes what is left.
    """
    rows, rest = np.array([head], dtype=np.int64).reshape(1, len(head)), np.array([total])
    for _ in range(parts - 1):
        choices = rest + 1
        value = np.arange(int(choices.sum())) - np.repeat(np.cumsum(choices) - choices, choices)
        rows = np.column_stack((np.repeat(rows, choices, axis=0), value))
        rest = np.repeat(rest, choices) - value
    return np.column_stack((rows, rest)).astype(np.float64)


def _lattice_pieces(total: int, parts: int) -> Iterator[np.ndarray]:
    """The compositions of ``total`` into ``parts`` parts, in order, as
    float64 pieces of ``_BATCH_ROWS`` rows (the last may have fewer).

    The rows with leading value a are the last C(total - a + parts - 2,
    parts - 2) rows of the template, 0 followed by the (parts - 1)-part
    lattice of ``total``, with a moved from their second entry to their
    first.  The template is built once, and each piece is one take from it;
    a lattice of one piece is built directly.  So a caller that evaluates
    each piece as it is yielded holds the template and one piece.
    """
    if math.comb(total + parts - 1, parts - 1) <= _BATCH_ROWS:
        yield _compositions((), total, parts)
        return
    template = _compositions((0,), total, parts - 1)
    # lattice row after the last one of each leading value
    ends = np.cumsum(len(template) - np.searchsorted(template[:, 1], np.arange(total + 1)))
    for lo in range(0, int(ends[-1]), _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, int(ends[-1]))
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")  # leading values in the piece
        counts = np.diff(np.concatenate(((lo,), ends[first:last], (hi,))))
        piece = template.take(np.arange(lo, hi) + np.repeat(len(template) - ends[first : last + 1], counts), axis=0)
        values = np.repeat(np.arange(first, last + 1, dtype=np.float64), counts)
        piece[:, 0] = values
        piece[:, 1] -= values
        yield piece


def grid_search_f(problem: Problem, resolution: float | None = None) -> GridSearchResult:
    """Maximize the envelope over a simplex lattice, with an error certificate.

    ``resolution`` is the lattice pitch 1/N, in (0, 0.5] with 1/N finite;
    None picks 1e-3 for two actions and 1e-2 beyond that, keeping the point
    count near or below a few hundred thousand.  More than four actions raise
    TooManyActions.  Far larger lattices (resolution 1e-300, say) are out of
    scope: NumPy refuses their arrays, or the call does not finish.  A call
    holds one template of C(N + m - 2, m - 2) rows and one piece of at most
    4,096 points, never the lattice.

    f_best, the best lattice value of the envelope f(nu) =
    sum_omega prior(omega) log(sum_alpha nu(alpha) exp(u(alpha, omega)/lam)),
    bounds the optimum f* from below.  The upper bound is the concavity
    argument of the solver's ``_Ascent.gap_bound``, evaluated here in the
    oracle's own plain-domain arithmetic and calling no solver code: f is
    concave with gradient exp(a_g) at any lattice point g where every
    Z(omega; g) > 0, and sum_alpha g(alpha) exp(a_g(alpha)) = 1, so

        f* <= f(g) + max_alpha exp(a_g(alpha)) - 1.

    upper_bound is the least of these over the lattice plus a rounding
    allowance that depends on the problem alone, 8 eps (m + n) (1 + max|u/lam|).
    Points where the bound is not finite (Z underflows at tiny lam) are
    skipped; if none is left, upper_bound is +inf.  If f itself is -inf at
    every lattice point, InvalidInput is raised.
    """
    check_type("problem", problem, Problem)
    m = problem.num_actions
    if m > _MAX_ACTIONS:
        raise TooManyActions(f"{m} actions exceeds the lattice cap of {_MAX_ACTIONS}")
    resolution = (1e-3 if m == 2 else 1e-2) if resolution is None else resolution
    check_number("resolution", resolution)
    if not 0.0 < resolution <= 0.5 or not math.isfinite(1.0 / float(resolution)):
        raise InvalidInput(f"resolution must lie in (0, 0.5] with a finite inverse, got {resolution!r}")
    denom = max(1, round(1.0 / resolution))

    gain, shift = shifted_gain(problem)  # rows: actions, columns: states
    prior = problem.prior
    # rounding allowance of one bound, from the problem alone
    scale = 1.0 + float(np.abs(problem.utility / problem.lam).max())
    allowance = float(8.0 * np.finfo(np.float64).eps * sum(gain.shape) * scale)

    best_f = -np.inf
    best_point: np.ndarray | None = None
    least_bound = np.inf
    count = 0
    # prior and shift tiled to a piece's shape: contiguous elementwise operands
    rows = min(math.comb(denom + m - 1, m - 1), _BATCH_ROWS)
    prior_rows, shift_rows = np.tile(prior, (rows, 1)), np.tile(shift, (rows, 1))
    # where z underflows (tiny lam) f is -inf and the bound inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for pts in _lattice_pieces(denom, m):
            pts /= denom
            rows = len(pts)
            z = pts @ gain
            ratio = prior_rows[:rows] / z
            f_vals = np.add(np.log(z, out=z), shift_rows[:rows], out=z) @ prior
            grad = gain @ ratio.T  # actions x batch, entries exp(a)
            bounds = f_vals + grad.max(axis=0) - 1.0
            least_bound = min(least_bound, float(bounds[np.isfinite(bounds)].min(initial=np.inf)))
            idx = int(np.argmax(f_vals))
            if f_vals[idx] > best_f:
                best_f = float(f_vals[idx])
                best_point = pts[idx]
            count += rows

    if best_point is None:
        raise InvalidInput(
            "the envelope f is -inf at every lattice point: each point leaves a state "
            "whose partition function underflows to 0; use a finer resolution or a larger lam"
        )
    return GridSearchResult(
        marginal=ActionMarginal(best_point),
        f_best=best_f,
        upper_bound=least_bound + allowance,
        resolution=1.0 / denom,
        points_evaluated=count,
    )

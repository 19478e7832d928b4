"""Reproducible problem instances for tests, benchmarks, and sweeps.

All randomness flows through numpy Generators seeded explicitly, so every
suite is a pure function of its seeds: byte-identical utilities and priors
on every run and platform sharing the numpy chain.
"""

from __future__ import annotations

import numpy as np

from .core import Problem, check_count, check_number

__all__ = [
    "random_problem",
    "standard_suite",
    "small_suite",
    "duplicated_action_problem",
]

_SUITE_SIZES = [
    (2, 2),
    (3, 3),
    (4, 5),
    (5, 4),
    (6, 6),
    (8, 8),
    (10, 7),
    (7, 10),
    (12, 12),
    (16, 16),
]
_SUITE_LAMBDAS = [0.25, 1.0, 4.0]


def _labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def random_problem(
    seed: int,
    num_actions: int,
    num_states: int,
    lam: float = 1.0,
) -> Problem:
    """One random instance: uniform(0, 1) utilities, interior prior.

    The prior is uniform(0.5, 1.5) renormalized, keeping every state's mass
    above roughly 1 / (3 * num_states) so log-domain residuals stay readable.
    ``seed``, ``num_actions`` and ``num_states`` must be integers >= 0 and
    ``lam`` a real number, or InvalidInput is raised; so it is where the
    Problem is invalid (no actions, no states, lam not finite and > 0).
    """
    for name, value in (("seed", seed), ("num_actions", num_actions), ("num_states", num_states)):
        check_count(name, value, 0)
    check_number("lam", lam)
    rng = np.random.default_rng(seed)
    utility = rng.uniform(0.0, 1.0, size=(num_actions, num_states))
    prior = rng.uniform(0.5, 1.5, size=num_states)
    prior /= prior.sum()
    return Problem(
        actions=_labels("a", num_actions),
        states=_labels("s", num_states),
        utility=utility,
        lam=lam,
        prior=prior,
    )


def standard_suite(count: int = 20, base_seed: int = 0) -> list[Problem]:
    """The default battery: ``count`` instances cycling sizes and lambdas.

    Seeds run base_seed + 1 .. base_seed + count; sizes climb to 16 x 16 and
    lambda cycles through 0.25, 1.0, 4.0 so both nearly-greedy and
    nearly-inattentive regimes appear.
    """
    problems = []
    for k in range(count):
        m, n = _SUITE_SIZES[k % len(_SUITE_SIZES)]
        lam = _SUITE_LAMBDAS[k % len(_SUITE_LAMBDAS)]
        problems.append(random_problem(base_seed + k + 1, m, n, lam))
    return problems


def small_suite(count: int = 6, base_seed: int = 100) -> list[Problem]:
    """Instances small enough for the lattice oracle: two or three actions."""
    problems = []
    for k in range(count):
        m = 2 + (k % 2)
        n = 2 + (k % 3)
        lam = _SUITE_LAMBDAS[k % len(_SUITE_LAMBDAS)]
        problems.append(random_problem(base_seed + k + 1, m, n, lam))
    return problems


def duplicated_action_problem(seed: int = 7, num_states: int = 4, lam: float = 1.0) -> Problem:
    """An instance whose last action copies the utility row of its first.

    Optimal couplings are then non-unique in how mass splits between the
    twins, while the partition function and value stay pinned; useful for
    exercising degenerate cases.
    """
    base = random_problem(seed, 3, num_states, lam)
    utility = np.vstack([base.utility, base.utility[0]])
    return Problem(
        actions=base.actions + ("a0_twin",),
        states=base.states,
        utility=utility,
        lam=lam,
        prior=base.prior,
    )

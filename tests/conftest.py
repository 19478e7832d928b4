"""Shared fixtures: closed-form anchors and the solved instance battery."""

import numpy as np
import pytest

import bridgehead as bh
from bridgehead.core import Coupling

# Certificate-grade settings: the marginal-residual and plateau targets the
# diagnostics tolerances are calibrated for.
TIGHT = bh.SolverConfig(
    foc_tolerance=1e-9,
    sinkhorn=bh.SinkhornConfig(tolerance=1e-12),
)


def make_symmetric_2x2() -> bh.Problem:
    return bh.Problem(
        actions=("a0", "a1"),
        states=("s0", "s1"),
        utility=np.eye(2),
        lam=1.0,
        prior=np.array([0.5, 0.5]),
    )


def make_state_independent() -> bh.Problem:
    utility = np.array([[2.0, 2.0], [1.0, 1.0]])
    return bh.Problem(
        actions=("hi", "lo"),
        states=("s0", "s1"),
        utility=utility,
        lam=1.0,
        prior=np.array([0.5, 0.5]),
    )


def make_tracking(num_actions: int, lam: float) -> bh.Problem:
    """The tracking family: 21 states on [0, 1] under a uniform prior,
    ``num_actions`` grid actions on [0, 1] and u = -(a - omega)^2.  Fine grids
    hold many near-duplicate actions."""
    states = np.linspace(0.0, 1.0, 21)
    actions = np.linspace(0.0, 1.0, num_actions)
    return bh.Problem(
        actions=tuple(f"a{i}" for i in range(num_actions)),
        states=tuple(f"s{j}" for j in range(states.size)),
        utility=-((actions[:, None] - states[None, :]) ** 2),
        lam=lam,
        prior=np.full(states.size, 1.0 / states.size),
    )


@pytest.fixture(scope="session")
def symmetric_2x2() -> bh.Problem:
    return make_symmetric_2x2()


@pytest.fixture(scope="session")
def state_independent() -> bh.Problem:
    return make_state_independent()


@pytest.fixture(scope="session")
def solved_symmetric(symmetric_2x2):
    return bh.solve(symmetric_2x2, TIGHT)


@pytest.fixture(scope="session")
def solved_state_independent(state_independent):
    return bh.solve(state_independent, TIGHT)


@pytest.fixture(scope="session")
def suite():
    return bh.standard_suite()


@pytest.fixture(scope="session")
def solved_suite(suite):
    """The 20-instance battery solved once at certificate-grade tolerances."""
    return [(p, bh.solve(p, TIGHT)) for p in suite]


def random_simplex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def random_plausible_coupling(rng: np.random.Generator, problem: bh.Problem) -> Coupling:
    """A Bayes-plausible joint: random column-stochastic conditionals times the prior."""
    cond = rng.uniform(0.1, 1.0, size=(problem.num_actions, problem.num_states))
    cond /= cond.sum(axis=0, keepdims=True)
    return Coupling(cond * problem.prior[None, :])

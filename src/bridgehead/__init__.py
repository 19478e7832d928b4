"""Rational-inattention problems solved as nested entropic optimal transport.

The outer loop picks an action marginal by climbing a concave envelope:
each step removes the actions a certificate proves idle, then takes a
projected Newton step on the rest, with the multiplicative fixed-point
update as the fallback.  The inner loop couples that marginal to the state
prior with log-domain Sinkhorn scaling.  The diagnostics module turns the
supporting theory into numerical certificates, and a lattice search
brackets the optimum from below by its best point and from above by
concavity.

The top level exports the entry points documented in README.  Individual
certificates, functionals and reference routines live in their submodules:
``bridgehead.core``, ``bridgehead.bridge``, ``bridgehead.solver``,
``bridgehead.diagnostics`` and ``bridgehead.oracle``.
"""

from .bridge import BridgeNotConverged, SinkhornConfig, schrodinger_residual, sinkhorn_bridge
from .core import ActionMarginal, BridgeheadError, InvalidInput, Problem
from .diagnostics import DiagnosticReport, belief_feasibility, run_diagnostics
from .generators import duplicated_action_problem, random_problem, small_suite, standard_suite
from .oracle import grid_search_f
from .solver import Solution, SolverConfig, SolverNotConverged, solve

__version__ = "0.1.0"

__all__ = [
    # solve
    "Problem",
    "ActionMarginal",
    "BridgeheadError",
    "InvalidInput",
    "SolverConfig",
    "Solution",
    "SolverNotConverged",
    "solve",
    # inner bridge
    "SinkhornConfig",
    "BridgeNotConverged",
    "sinkhorn_bridge",
    "schrodinger_residual",
    # certificates
    "DiagnosticReport",
    "run_diagnostics",
    "belief_feasibility",
    "grid_search_f",
    # instances
    "random_problem",
    "standard_suite",
    "small_suite",
    "duplicated_action_problem",
    "__version__",
]

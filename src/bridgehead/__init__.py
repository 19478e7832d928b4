"""Rational-inattention problems solved as nested entropic optimal transport.

The outer loop picks an action marginal by a multiplicative fixed-point
update on a concave envelope; the inner loop couples that marginal to the
state prior with log-domain Sinkhorn scaling; the diagnostics module turns
the supporting theory into numerical certificates.

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

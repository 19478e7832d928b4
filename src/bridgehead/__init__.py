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

The exports are lazy (PEP 562): ``import bridgehead`` imports no submodule,
and the first read of an exported name, or of a submodule named above or
``bridgehead.generators``, imports the one submodule that defines it and
stores the value as a plain module attribute.  A command-line run thus
loads only the modules its command uses.
"""

import importlib

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

# exported name -> the submodule that defines it; a submodule maps to itself
_SOURCE = {
    **dict.fromkeys(("ActionMarginal", "BridgeheadError", "InvalidInput", "Problem"), "core"),
    **dict.fromkeys(
        ("BridgeNotConverged", "SinkhornConfig", "schrodinger_residual", "sinkhorn_bridge"), "bridge"
    ),
    **dict.fromkeys(("Solution", "SolverConfig", "SolverNotConverged", "solve"), "solver"),
    **dict.fromkeys(("DiagnosticReport", "belief_feasibility", "run_diagnostics"), "diagnostics"),
    **dict.fromkeys(
        ("duplicated_action_problem", "random_problem", "small_suite", "standard_suite"), "generators"
    ),
    "grid_search_f": "oracle",
    **{name: name for name in ("core", "bridge", "solver", "diagnostics", "generators", "oracle")},
}


def __getattr__(name: str):
    try:
        source = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{source}", __name__)
    value = module if source == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})

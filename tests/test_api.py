"""The top-level surface: what ``import bridgehead`` exports and documents."""

import importlib
import inspect
import operator
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import bridgehead as bh
import bridgehead.cli  # noqa: F401  (perfbench reads bh.cli and bh.io as modules)
import bridgehead.diagnostics
import bridgehead.io  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = [
    "Problem",
    "ActionMarginal",
    "BridgeheadError",
    "InvalidInput",
    "SolverConfig",
    "Solution",
    "SolverNotConverged",
    "solve",
    "SinkhornConfig",
    "BridgeNotConverged",
    "sinkhorn_bridge",
    "schrodinger_residual",
    "DiagnosticReport",
    "run_diagnostics",
    "belief_feasibility",
    "grid_search_f",
    "random_problem",
    "standard_suite",
    "small_suite",
    "duplicated_action_problem",
    "__version__",
]


def test_all_is_the_documented_entry_points():
    assert bh.__all__ == EXPORTED
    for name in bh.__all__:
        assert getattr(bh, name) is not None, name


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    code = """
import sys, types
import bridgehead as bh
assert [m for m in sys.modules if m.startswith("bridgehead.")] == []
submodules = ["core", "bridge", "solver", "diagnostics", "generators", "oracle"]
assert all(isinstance(getattr(bh, m), types.ModuleType) for m in submodules)
assert all(getattr(bh, n) is not None for n in bh.__all__)
assert set(bh.__all__) <= set(dir(bh))
assert set(submodules) <= set(dir(bh))
assert all(n in vars(bh) for n in bh.__all__)  # stored, as perfbench's tracer reads them
namespace = {}
exec("from bridgehead import *", namespace)
assert all(namespace[n] is getattr(bh, n) for n in bh.__all__)
assert not hasattr(bh, "no_such_name")
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_benchmark_reads_only_exported_names():
    read = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= set(re.findall(r"\bbh\.(\w+)", path.read_text()))
    functions = {n for n in read if not isinstance(getattr(bh, n, None), types.ModuleType)}
    assert functions
    assert functions <= set(bh.__all__)


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text()
    missing = [n for n in bh.__all__ if not re.search(rf"`{re.escape(n)}(?!\w)", readme)]
    assert missing == []


def test_submodule_exports_resolve():
    # __main__ is the one module without an export list
    names = [m.name for m in pkgutil.iter_modules(bh.__path__) if m.name != "__main__"]
    assert "diagnostics" in names
    for name in names:
        module = importlib.import_module(f"bridgehead.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], name


def test_private_names_cited_in_docs_exist():
    # a docstring, comment or README line that cites a private name in
    # backticks, ``_newton`` or `_Ascent.step`, must not outlive the name
    modules = [bh] + [
        importlib.import_module(f"bridgehead.{m.name}")
        for m in pkgutil.iter_modules(bh.__path__)
        if m.name != "__main__"
    ]

    def exists(name):
        for module in modules:
            try:
                operator.attrgetter(name)(module)
                return True
            except AttributeError:
                pass
        return False

    files = sorted((ROOT / "src" / "bridgehead").glob("*.py")) + [ROOT / "README.md"]
    cited = {
        (path.name, name)
        for path in files
        for name in re.findall(r"`(_\w+(?:\.\w+)*)`", path.read_text())
    }
    assert len(cited) > 10
    assert sorted(c for c in cited if not exists(c[1])) == []


# Parameter names of every exported callable, dataclass constructors included,
# and of the inner-value derivative toward a marginal.  A change here is a change of the
# public surface: it adds or removes a setting a caller can pass.
PARAMETERS = {
    "Problem": ("actions", "states", "utility", "lam", "prior"),
    "ActionMarginal": ("weights",),
    "BridgeheadError": None,
    "InvalidInput": None,
    "SolverConfig": ("foc_tolerance", "max_iterations", "init", "seed", "sinkhorn"),
    "Solution": (
        "marginal",
        "coupling",
        "potentials",
        "f_value",
        "foc_residuals",
        "iterations",
        "converged",
    ),
    "SolverNotConverged": ("message", "solution"),
    "solve": ("problem", "config"),
    "SinkhornConfig": ("tolerance", "max_iterations"),
    "BridgeNotConverged": ("iterations", "residual", "result"),
    "sinkhorn_bridge": ("problem", "nu", "config"),
    "schrodinger_residual": ("problem", "nu", "potentials"),
    "DiagnosticReport": ("checks",),
    "run_diagnostics": ("problem", "solution", "seed"),
    "belief_feasibility": ("problem", "candidate_set", "anchor", "posterior_anchor"),
    "grid_search_f": ("problem", "resolution"),
    "random_problem": ("seed", "num_actions", "num_states", "lam"),
    "standard_suite": ("count", "base_seed"),
    "small_suite": ("count", "base_seed"),
    "duplicated_action_problem": ("seed", "num_states", "lam"),
    "gateaux_value_direction": ("problem", "nu", "psi", "h"),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # an exception class that keeps the built-in constructor
        return None


def test_public_parameters_are_pinned():
    objects = {name: getattr(bh, name) for name in bh.__all__ if callable(getattr(bh, name))}
    objects["gateaux_value_direction"] = bridgehead.diagnostics.gateaux_value_direction
    assert {name: _parameters(obj) for name, obj in objects.items()} == PARAMETERS

"""The top-level surface: what ``import bridgehead`` exports and documents."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import bridgehead as bh
import bridgehead.cli  # noqa: F401  (perfbench reads bh.cli and bh.io as modules)
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

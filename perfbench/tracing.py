"""Spans around bridgehead's public functions, recorded from outside the package.

``Recorder.install`` replaces each traced function in every ``bridgehead``
module namespace that holds it, so a call is attributed to the module that
made it: ``bridgehead.solver.sinkhorn_bridge`` is the outer loop's inner
solve, ``bridgehead.diagnostics.sinkhorn_bridge`` a certificate's.  Spans
stay in memory; ``layer_metrics`` folds one pass's spans into per-layer
numbers and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from workloads import bh


@dataclass
class Span:
    name: str
    caller: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    info: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solver_info(solution) -> dict[str, float]:
    return {
        "iterations": solution.iterations,
        "gap": float(solution.foc_residuals.max()),
    }


def _solve_error(err: BaseException) -> dict[str, float]:
    if isinstance(err, bh.SolverNotConverged):
        return {**_solver_info(err.solution), "budget_exhausted": 1}
    return {}


def _bridge_error(err: BaseException) -> dict[str, float]:
    if isinstance(err, bh.BridgeNotConverged):
        return {"sweeps": err.iterations, "not_converged": 1}
    return {}


def _written(path) -> dict[str, float]:
    return {"bytes": Path(path).stat().st_size}


# (function, span name, info from the result, info from an exception)
_TRACED: list[tuple[Callable, str, Callable | None, Callable | None]] = [
    (bh.solve, "solver", _solver_info, _solve_error),
    (bh.sinkhorn_bridge, "bridge", lambda r: {"sweeps": r.iterations}, _bridge_error),
    (
        bh.run_diagnostics,
        "diagnostics",
        lambda report: {"checks_failed": sum(not c.passed for c in report)},
        lambda err: {"errors": 1},
    ),
    (bh.grid_search_f, "oracle", lambda g: {"points": g.points_evaluated}, None),
    (bh.io.load_problem, "io.read", None, None),
    (bh.io.load_solution, "io.read", None, None),
    (bh.io.save_problem, "io.write", _written, None),
    (bh.io.save_solution, "io.write", _written, None),
    (bh.io.save_bridge, "io.write", _written, None),
    (bh.io.save_report, "io.write", _written, None),
    (bh.io.write_csv, "io.write", _written, None),
    (bh.io.write_manifest, "io.write", _written, None),
    (bh.io.sha256_of, "io.hash", None, None),
    (bh.cli.main, "cli", lambda code: {f"exit_{code}": 1}, lambda err: {"tracebacks": 1, "exit_1": 1}),
]


class Recorder:
    """Collects spans while an op is open; calls outside an op pass through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_names: list[str] = []
        self.gibbs_calls: list[int] = []
        self._op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self._op = len(self.op_names)
        self.op_names.append(name)
        self.gibbs_calls.append(0)

    def end_op(self) -> None:
        self._op = None

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, caller: str, on_result, on_error):
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(name, caller, op, stack[-1] if stack else None, time.perf_counter())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.end = time.perf_counter()
                if on_error is not None:
                    span.info.update(on_error(err))
                raise
            else:
                span.end = time.perf_counter()
                if on_result is not None:
                    span.info.update(on_result(result))
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_gibbs(self, fn):
        def counted(*args, **kwargs):
            op = self._op
            if op is not None:
                with self._lock:
                    self.gibbs_calls[op] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every traced function in every bridgehead namespace that holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "bridgehead" or k.startswith("bridgehead.")]
        gibbs = bh.core.gibbs_kernel
        for module in modules:
            caller = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if value is gibbs:
                    replacement = self._count_gibbs(value)
                else:
                    match = next((t for t in _TRACED if t[0] is value), None)
                    if match is None:
                        continue
                    replacement = self._wrap(value, match[1], caller, match[2], match[3])
                self._patched.append((module, attr, value))
                setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        doc = {**extra, "ops": self.op_names, "gibbs_kernel_calls": self.gibbs_calls,
               "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# Folding spans into per-layer metrics
# ---------------------------------------------------------------------------

_READ, _WRITE = "io.read", "io.write"


def layer_metrics(recorder: Recorder, ops: range) -> dict[str, float]:
    """Per-layer counts and self times over the spans of the ops in ``ops``."""
    spans = [s for s in recorder.spans if s.op in ops]
    index = {id(s): i for i, s in enumerate(recorder.spans)}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(s: Span) -> float:
        return s.duration - child_time.get(index[id(s)], 0.0)

    def of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(group: list[Span], key: str) -> float:
        return sum(s.info.get(key, 0) for s in group)

    solver, bridge, diag, oracle, cli = of("solver"), of("bridge"), of("diagnostics"), of("oracle"), of("cli")
    solver_self = sum(map(self_time, solver))
    iterations = total(solver, "iterations")
    bridge_self = sum(map(self_time, bridge))
    sweeps = total(bridge, "sweeps")
    oracle_s = sum(s.duration for s in oracle)
    points = total(oracle, "points")
    return {
        "solver.calls": len(solver),
        "solver.self_s": solver_self,
        "solver.iterations": iterations,
        "solver.us_per_iter": 1e6 * solver_self / iterations if iterations else 0.0,
        "solver.budget_exhausted": total(solver, "budget_exhausted"),
        "solver.gap_max": max((s.info["gap"] for s in solver if "gap" in s.info), default=0.0),
        "bridge.calls.direct": sum(s.caller not in ("solver", "diagnostics") for s in bridge),
        "bridge.calls.solver": sum(s.caller == "solver" for s in bridge),
        "bridge.calls.diagnostics": sum(s.caller == "diagnostics" for s in bridge),
        "bridge.self_s": bridge_self,
        "bridge.sweeps": sweeps,
        "bridge.us_per_sweep": 1e6 * bridge_self / sweeps if sweeps else 0.0,
        "bridge.not_converged": total(bridge, "not_converged"),
        "diagnostics.calls": len(diag),
        "diagnostics.self_s": sum(map(self_time, diag)),
        "diagnostics.checks_failed": total(diag, "checks_failed"),
        "diagnostics.errors": total(diag, "errors"),
        "oracle.calls": len(oracle),
        "oracle.s": oracle_s,
        "oracle.points": points,
        "oracle.points_per_s": points / oracle_s if oracle_s else 0.0,
        "io.read_s": sum(map(self_time, of(_READ))),
        "io.write_s": sum(map(self_time, of(_WRITE))),
        "io.hash_s": sum(map(self_time, of("io.hash"))),
        "io.bytes_written": total(of(_WRITE), "bytes"),
        "cli.commands": len(cli),
        "cli.exit_1": total(cli, "exit_1"),
        "cli.exit_2": total(cli, "exit_2"),
        "cli.tracebacks": total(cli, "tracebacks"),
        "core.gibbs_kernel_calls": sum(recorder.gibbs_calls[i] for i in ops),
    }


def _is_timing(key: str) -> bool:
    return key.endswith(("_s", ".s")) or "_per_" in key


def median_over(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass, which every run at a seed repeats exactly;
    times and rates as the median over all traced passes."""
    first = passes[0]
    return {
        key: statistics.median(p[key] for p in passes) if _is_timing(key) else first[key]
        for key in first
    }

"""Serialization: problems, solutions, bridge results, reports, manifests.

JSON carries every float through Python's shortest round-trip repr, and the
CSV writers format cells the same way, so rewriting an unchanged result is
byte-identical and hashes in the manifest are stable across runs.

A problem document is checked by building its Problem, which is valid by
construction; only the drop of exact-zero prior states happens here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from .core import ActionMarginal, Coupling, InvalidInput, Potentials, Problem

if TYPE_CHECKING:  # imported where used, so that reading a problem loads no solver
    from .bridge import BridgeResult
    from .diagnostics import DiagnosticReport
    from .solver import Solution

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "solution_to_dict",
    "solution_from_dict",
    "save_solution",
    "load_solution",
    "load_marginal",
    "bridge_to_dict",
    "save_bridge",
    "report_to_dict",
    "save_report",
    "write_csv",
    "sha256_of",
    "write_manifest",
]

_NORMALIZATION = "E_nu[action]=0"  # the translation convention of Potentials


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _matrix(values) -> list[list[float]]:
    return np.asarray(values, dtype=np.float64).tolist()


def _potentials(potentials: Potentials) -> dict[str, Any]:
    return {
        "action": _floats(potentials.action),
        "state": _floats(potentials.state),
        "normalization": _NORMALIZATION,
    }


@contextmanager
def _reading(kind: str) -> Iterator[None]:
    """Turn a missing key or a value of the wrong kind into InvalidInput."""
    try:
        yield
    except KeyError as missing:
        raise InvalidInput(f"{kind} document is missing key {missing}") from None
    except InvalidInput:
        raise
    except (TypeError, ValueError) as err:
        raise InvalidInput(f"{kind} document is malformed: {err}") from None


def _read_json(path: str | Path) -> Any:
    """Parse the JSON file at ``path``; a file that cannot be read or parsed is InvalidInput."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInput(f"no such file: {path}") from None
    except OSError as err:
        raise InvalidInput(f"cannot read {path}: {err.strerror}") from None
    except (ValueError, RecursionError) as err:  # JSONDecodeError, UnicodeDecodeError, too deep
        raise InvalidInput(f"{path} is not valid JSON: {err}") from None


_CONTAINERS = (dict, list, tuple)


def _dumps(value: Any, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for a value nested at ``indent``, a line
    break and the spaces before the value's first line; dict keys are strings.

    With ``indent`` set, ``json`` encodes in pure Python, one call per item.
    Here every container whose items are all scalars, such as a row of
    floats, is one call to the C encoder, whose item separator carries the
    line break and the indentation; only the containers above it recurse.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value)
    inner = indent + "  "
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
    elif is_dict:
        body = ("," + inner).join(f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in value.items())
    else:
        body = ("," + inner).join(_dumps(v, inner) for v in value)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{inner}{body}{indent}{closing}"


def _write_json(document: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_dumps(document) + "\n")
    return path


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


def problem_to_dict(problem: Problem) -> dict[str, Any]:
    return {
        "actions": list(problem.actions),
        "states": list(problem.states),
        "utility": _matrix(problem.utility),
        "lambda": float(problem.lam),
        "prior": _floats(problem.prior),
    }


def problem_from_dict(data: dict[str, Any]) -> Problem:
    """Build the document's Problem, which raises InvalidInput unless it is valid.

    States of exactly zero prior mass are invisible to the objective, so
    where the document's shapes agree they are dropped first, with a
    warning naming them; a malformed document gets Problem's shape error.
    """
    with _reading("problem"):
        actions = tuple(str(a) for a in data["actions"])
        states = tuple(str(s) for s in data["states"])
        utility = np.array(data["utility"], dtype=np.float64)
        lam = float(data["lambda"])
        prior = np.array(data["prior"], dtype=np.float64)
    keep = prior != 0.0
    if prior.shape == (len(states),) and utility.shape == (len(actions), len(states)) and not keep.all():
        dropped = [s for s, k in zip(states, keep) if not k]
        warnings.warn(f"dropping {len(dropped)} zero-prior state(s): {dropped}", UserWarning, stacklevel=2)
        states = tuple(s for s, k in zip(states, keep) if k)
        utility, prior = utility[:, keep], prior[keep]
    return Problem(actions, states, utility, lam, prior)


def save_problem(problem: Problem, path: str | Path) -> Path:
    return _write_json(problem_to_dict(problem), path)


def load_problem(path: str | Path) -> Problem:
    return problem_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


def solution_to_dict(problem: Problem, solution: Solution) -> dict[str, Any]:
    return {
        "actions": list(problem.actions),
        "states": list(problem.states),
        "f_value": float(solution.f_value),
        "converged": bool(solution.converged),
        "iterations": int(solution.iterations),
        "consideration_set": [int(i) for i in solution.consideration_set],
        "consideration_labels": [problem.actions[i] for i in solution.consideration_set],
        "marginal": _floats(solution.marginal.weights),
        "foc_residuals": _floats(solution.foc_residuals),
        "coupling": _matrix(solution.coupling.joint),
        "potentials": _potentials(solution.potentials),
    }


def solution_from_dict(data: dict[str, Any]) -> Solution:
    """Rebuild a solution; the stored consideration set must be the marginal's support."""
    from .solver import Solution

    with _reading("solution"):
        action, state, normalization = (data["potentials"][k] for k in ("action", "state", "normalization"))
        if normalization != _NORMALIZATION:
            raise InvalidInput(f"normalization must be {_NORMALIZATION!r}, got {normalization!r}")
        solution = Solution(
            marginal=ActionMarginal(np.array(data["marginal"], dtype=np.float64)),
            coupling=Coupling(np.array(data["coupling"], dtype=np.float64)),
            potentials=Potentials(np.array(action, dtype=np.float64), np.array(state, dtype=np.float64)),
            f_value=data["f_value"],
            foc_residuals=data["foc_residuals"],
            iterations=data["iterations"],
            converged=data["converged"],
        )
        support = list(solution.consideration_set)
        if data["consideration_set"] != support:
            raise ValueError(f"consideration_set is not {support}, the support of the marginal")
    return solution


def save_solution(problem: Problem, solution: Solution, path: str | Path) -> Path:
    return _write_json(solution_to_dict(problem, solution), path)


def load_solution(path: str | Path) -> Solution:
    return solution_from_dict(_read_json(path))


def load_marginal(path: str | Path) -> ActionMarginal:
    """Read an action marginal: a bare JSON array or a document with a ``marginal`` key."""
    document = _read_json(path)
    with _reading("marginal"):
        weights = document["marginal"] if isinstance(document, dict) else document
        return ActionMarginal(np.array(weights, dtype=np.float64))


# ---------------------------------------------------------------------------
# Bridge results and diagnostic reports
# ---------------------------------------------------------------------------


def bridge_to_dict(result: BridgeResult) -> dict[str, Any]:
    return {
        "value_primal": float(result.value_primal),
        "value_dual": float(result.value_dual),
        "duality_gap": float(result.duality_gap),
        "iterations": int(result.iterations),
        "residual": float(result.residual),
        "coupling": _matrix(result.coupling.joint),
        "potentials": _potentials(result.potentials),
    }


def save_bridge(result: BridgeResult, path: str | Path) -> Path:
    return _write_json(bridge_to_dict(result), path)


def report_to_dict(report: DiagnosticReport) -> dict[str, Any]:
    return {
        "all_pass": bool(report.all_pass),
        "checks": [
            {
                "name": c.name,
                "max_violation": float(c.max_violation),
                "tolerance": float(c.tolerance),
                "passed": bool(c.passed),
                "details": c.details,
            }
            for c in report.checks
        ],
    }


def save_report(report: DiagnosticReport, path: str | Path) -> Path:
    return _write_json(report_to_dict(report), path)


# ---------------------------------------------------------------------------
# CSV and manifests
# ---------------------------------------------------------------------------


def _cell(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    """Write rows with round-trip float formatting and unix line endings."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    directory: str | Path,
    command: str,
    input_path: str,
    arguments: dict[str, Any],
    files: Sequence[str | Path],
    wall_time: float,
) -> Path:
    """Record what a CLI run produced: arguments, wall time, content hashes.

    Hash entries are keyed by file name and sorted; only the wall-time field
    varies between runs that produced identical outputs.
    """
    directory = Path(directory)
    hashes = {Path(f).name: sha256_of(f) for f in files}
    manifest = {
        "command": command,
        "input": input_path,
        "arguments": {k: arguments[k] for k in sorted(arguments)},
        "outputs": {name: hashes[name] for name in sorted(hashes)},
        "wall_time_seconds": float(wall_time),
    }
    return _write_json(manifest, directory / "manifest.json")

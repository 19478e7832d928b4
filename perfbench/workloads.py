"""Workloads of the benchmark: seeded instances, the ops that run them, and
the checks that every op's outputs must pass.

An op is split into ``run``, the timed call into bridgehead, and ``check``,
the untimed validation of what ``run`` returned.  ``check`` returns the
reasons the op failed (empty when it passed) and the op's deterministic
counts, which must repeat exactly between runs at the same seed.

Ops resolve bridgehead's public functions through their module at call time
(``bh.solve``, ``bh.cli.main``), so wrappers installed by ``tracing`` see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import shutil
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bridgehead as bh  # noqa: E402  (the checkout's own sources, never an installed copy)
import bridgehead.cli  # noqa: E402,F401
import bridgehead.io  # noqa: E402,F401
import child  # noqa: E402

# Certificate-grade settings, the same as the test suite's TIGHT config.
TIGHT = bh.SolverConfig(foc_tolerance=1e-9, sinkhorn=bh.SinkhornConfig(tolerance=1e-12))

INNER_SHAPES = ((6, 6), (16, 16), (64, 64), (200, 50), (50, 400))
# Latencies cluster by lambda.  With an odd number of lambdas the median op
# falls inside the middle cluster (0.1) instead of on the gap between two
# clusters, where it would jump from run to run.
INNER_LAMBDAS = (0.01, 0.05, 0.1, 0.25, 1.0)
# The CLI's default sweep budget: about one seeded 16x16 marginal at lam=0.01
# in a thousand needs more than the library default of 10k sweeps.
INNER_CONFIG = bh.SinkhornConfig(tolerance=1e-12, max_iterations=100_000)

# The six stress instances of the ROADMAP, all drawn with instance seed 3.
STRESS_SEED = 3
STRESS_INSTANCES = (
    ("lam0.01", 6, 6, 1e-2),
    ("lam100", 6, 6, 1e2),
    ("lam1e4", 6, 6, 1e4),
    ("64x64", 64, 64, 0.25),
    ("200x50", 200, 50, 1.0),
    ("50x2000", 50, 2000, 1.0),
)
SWEEP_LAMBDAS = tuple(float(lam) for lam in np.geomspace(0.25, 32.0, 8))
# Commands of `stress` that the seed commit cannot complete: lam=1e4 and
# 50x2000 exhaust the outer budget (exit 2, and their diagnose audits the
# unconverged solution), and lam=0.01 diagnose dies in a BridgeNotConverged
# traceback.  `cli` is `stress` without them, so that none of its ops fails.
KNOWN_FAILURES = frozenset(
    {
        ("lam1e4", "solve"),
        ("lam1e4", "diagnose"),
        ("50x2000", "solve"),
        ("50x2000", "diagnose"),
        ("lam0.01", "diagnose"),
    }
)
COMMAND_TIMEOUT_S = 120.0

Check = Callable[[Any], "tuple[list[str], dict[str, float]]"]


@dataclass
class Op:
    """One closed-loop operation: ``prepare`` and ``check`` are not timed."""

    name: str
    run: Callable[[], Any]
    check: Check
    prepare: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# suite: solve, certify and bracket the canonical battery
# ---------------------------------------------------------------------------


@dataclass
class SuiteOutputs:
    solution: Any
    exhausted: bool
    report: Any
    diagnostics_error: str | None
    grid: Any


def suite_ops(seed: int, pass_index: int) -> list[Op]:
    """``standard_suite()`` in a seeded order, certified with a seeded battery."""
    problems = bh.standard_suite()
    order = np.random.default_rng([seed, pass_index]).permutation(len(problems))
    return [
        Op(f"suite[{k}]", partial(_suite_run, problems[k], seed + k), _suite_check)
        for k in order
    ]


def _suite_run(problem, diagnostics_seed: int) -> SuiteOutputs:
    try:
        solution, exhausted = bh.solve(problem, TIGHT), False
    except bh.SolverNotConverged as err:
        solution, exhausted = err.solution, True
    try:
        report, error = bh.run_diagnostics(problem, solution, seed=diagnostics_seed), None
    except Exception as err:  # a certificate that raises fails the op; the oracle still runs
        report, error = None, f"{type(err).__name__}: {err}"
    grid = bh.grid_search_f(problem) if problem.num_actions <= 4 else None
    return SuiteOutputs(solution, exhausted, report, error, grid)


def _suite_check(out: SuiteOutputs) -> tuple[list[str], dict[str, float]]:
    failures = []
    if out.exhausted:
        failures.append("solve raised SolverNotConverged")
    elif not out.solution.converged:
        failures.append("solve returned converged=False")
    if out.diagnostics_error is not None:
        failures.append(f"run_diagnostics raised {out.diagnostics_error}")
    else:
        failures.extend(
            f"check {c.name} failed: {c.max_violation:.3e} > {c.tolerance:.0e}"
            for c in out.report
            if not c.passed
        )
    counts = {"solver.iterations": out.solution.iterations, "oracle.points": 0}
    if out.grid is not None:
        gap = abs(out.solution.f_value - out.grid.f_best)
        if not gap <= out.grid.margin:
            failures.append(f"oracle gap {gap:.3e} exceeds margin {out.grid.margin:.3e}")
        counts["oracle.points"] = out.grid.points_evaluated
    return failures, counts


# ---------------------------------------------------------------------------
# inner: one Sinkhorn bridge per op, no outer loop
# ---------------------------------------------------------------------------


def inner_ops(seed: int, pass_index: int) -> list[Op]:
    """Every shape x lambda once, at fresh seeded instances and marginals.

    About half of the marginals get exact zeros on a quarter of the actions,
    which exercises the bridge's support reduction.
    """
    rng = np.random.default_rng([seed, pass_index])
    ops = []
    for (m, n), lam in itertools.product(INNER_SHAPES, INNER_LAMBDAS):
        problem = bh.random_problem(int(rng.integers(2**31)), m, n, lam)
        weights = rng.dirichlet(np.ones(m))
        if rng.random() < 0.5:
            weights[rng.choice(m, size=max(1, m // 4), replace=False)] = 0.0
            weights /= weights.sum()
        nu = bh.ActionMarginal(weights)
        ops.append(
            Op(
                f"inner[{m}x{n},lam={lam}]",
                partial(_inner_run, problem, nu),
                partial(_inner_check, problem, nu),
            )
        )
    return ops


def _inner_run(problem, nu):
    try:
        return bh.sinkhorn_bridge(problem, nu, INNER_CONFIG), True
    except bh.BridgeNotConverged as err:
        return err.result, False


def _inner_check(problem, nu, out) -> tuple[list[str], dict[str, float]]:
    result, converged = out
    failures = [] if converged else ["sinkhorn_bridge raised BridgeNotConverged"]
    if not result.residual <= 1e-12:
        failures.append(f"marginal residual {result.residual:.3e} > 1e-12")
    if not result.duality_gap <= 1e-8:
        failures.append(f"duality gap {result.duality_gap:.3e} > 1e-8")
    schrodinger = max(bh.schrodinger_residual(problem, nu, result.potentials))
    if not schrodinger <= 1e-9:
        failures.append(f"Schrodinger residual {schrodinger:.3e} > 1e-9")
    return failures, {"bridge.sweeps": result.iterations}


# ---------------------------------------------------------------------------
# cli and stress: the command line on the ROADMAP stress instances
# ---------------------------------------------------------------------------


def write_stress_inputs(seed: int, inputs: Path) -> None:
    """Problem files, seeded Dirichlet marginals and the sweep's 6x6 problem."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for name, m, n, lam in STRESS_INSTANCES:
        bh.io.save_problem(bh.random_problem(STRESS_SEED, m, n, lam), inputs / f"{name}.json")
        marginal = rng.dirichlet(np.ones(m))
        (inputs / f"{name}_marginal.json").write_text(json.dumps(marginal.tolist()) + "\n")
    bh.io.save_problem(bh.random_problem(STRESS_SEED, 6, 6, 1.0), inputs / "sweep.json")


def stress_commands(seed: int, workdir: Path, skip_known_failures: bool) -> list[tuple[str, list[str], Path]]:
    """(name, argv, output directory) of every command, in the order they run."""
    inputs = workdir / "inputs"
    out = workdir / "out"
    commands = []
    for name, *_ in STRESS_INSTANCES:
        problem = str(inputs / f"{name}.json")
        solved = out / name / "solve"
        argvs = {
            "solve": ["solve", problem],
            "diagnose": ["diagnose", problem, str(solved / "solution.json"), "--seed", str(seed)],
            "bridge": ["bridge", problem, str(inputs / f"{name}_marginal.json")],
        }
        for command, argv in argvs.items():
            if skip_known_failures and (name, command) in KNOWN_FAILURES:
                continue
            target = out / name / command
            commands.append((f"{command}[{name}]", argv + ["--output-dir", str(target)], target))
    lambdas = ",".join(repr(lam) for lam in SWEEP_LAMBDAS)
    for jobs in (1, 2):
        target = out / f"sweep_jobs{jobs}"
        argv = ["sweep", str(inputs / "sweep.json"), "--lambdas", lambdas, "--jobs", str(jobs)]
        commands.append((f"sweep[jobs={jobs}]", argv + ["--output-dir", str(target)], target))
    return commands


def cli_ops(seed: int, workdir: Path, in_process: bool, skip_known_failures: bool) -> list[Op]:
    """One op per command: a fresh ``python -m bridgehead``, or ``cli.main`` in-process."""
    runner = _main_in_process if in_process else _main_subprocess
    ops = []
    for name, argv, target in stress_commands(seed, workdir, skip_known_failures):
        reference = workdir / "out" / "sweep_jobs1" if name == "sweep[jobs=2]" else None
        ops.append(
            Op(
                name,
                partial(runner, argv),
                partial(_command_check, target, reference),
                prepare=partial(shutil.rmtree, target, ignore_errors=True),
            )
        )
    return ops


def _main_subprocess(argv: list[str]) -> child.Finished:
    """Run one command in a fresh interpreter, with that child's peak RSS."""
    return child.run_python(["-m", "bridgehead", *argv], COMMAND_TIMEOUT_S)


def _main_in_process(argv: list[str]) -> child.Finished:
    """Replay one command through ``bridgehead.cli.main`` in this process.

    An exception escaping ``main`` is what the interpreter would print as a
    traceback and turn into exit code 1.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = bh.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return child.Finished(int(code or 0), stdout.getvalue(), stderr.getvalue(), max_rss_kb=0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest_outputs(directory: Path) -> dict[str, str] | None:
    try:
        return json.loads((directory / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return None


def _command_check(target: Path, reference: Path | None, out: child.Finished):
    failures = []
    if out.exit_code != 0:
        last = (out.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        failures.append(f"exit {out.exit_code}: {last}")
    outputs = _manifest_outputs(target)
    if outputs is None:
        failures.append("no readable manifest.json")
    else:
        for name, digest in outputs.items():
            path = target / name
            if not path.is_file() or _sha256(path) != digest:
                failures.append(f"manifest sha256 of {name} does not match the file")
    if reference is not None and outputs is not None and outputs != _manifest_outputs(reference):
        failures.append("--jobs 2 wrote different bytes from --jobs 1")
    counts = {}
    iterations = re.search(r"^iterations: (\d+)$", out.stdout, re.M)
    if iterations:
        counts["solver.iterations"] = int(iterations.group(1))
    sweeps = re.search(r"after (\d+) sweeps$", out.stdout, re.M)
    if sweeps:
        counts["bridge.sweeps"] = int(sweeps.group(1))
    return failures, counts


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


def build_ops(workload: str, seed: int, pass_index: int, workdir: Path, in_process: bool) -> list[Op]:
    """The ops of one pass.  Every pass of `suite`, `cli` and `stress` runs the
    same ops; each pass of `inner` draws fresh instances from the seed."""
    if workload == "suite":
        return suite_ops(seed, pass_index)
    if workload == "inner":
        return inner_ops(seed, pass_index)
    return cli_ops(seed, workdir, in_process, skip_known_failures=workload == "cli")


def set_up(workload: str, seed: int, workdir: Path) -> None:
    """Generate the first pass's instances and write the input files."""
    if workload in ("cli", "stress"):
        write_stress_inputs(seed, workdir / "inputs")
    build_ops(workload, seed, 0, workdir, in_process=False)

"""Command-line front end: solve, bridge, diagnose, sweep.

Exit codes follow one contract everywhere: 0 for a clean run, 1 for invalid
input, 2 for a run that finished but did not certify (non-convergence, failed
checks).  Commands raise InvalidInput before they write; ``main`` alone turns
it into exit 1.  Partial results are still written on exit 2 so pipelines can
inspect them.  Each command imports the solver, the diagnostics and the
thread pool only if it uses them, so ``bridge`` starts without them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .bridge import BridgeNotConverged, SinkhornConfig, sinkhorn_bridge
from .core import InvalidInput, Problem, check_count, check_marginal, mutual_information
from .io import (
    load_marginal,
    load_problem,
    load_solution,
    save_bridge,
    save_report,
    save_solution,
    write_csv,
    write_manifest,
)

if TYPE_CHECKING:
    from .solver import SolverConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    from .solver import SolverConfig

    return SolverConfig(
        foc_tolerance=args.foc_tolerance,
        max_iterations=args.max_iters,
        init=args.init,
        seed=args.seed,
        sinkhorn=SinkhornConfig(tolerance=args.tolerance),
    )


def _manifest(
    args: argparse.Namespace, out: Path, files: list[Path], start: float, **extra
) -> None:
    """Write the run's manifest, recording every subcommand flag plus ``extra``."""
    skip = ("command", "problem", "output_dir", "func")
    arguments = {k: v for k, v in vars(args).items() if k not in skip}
    arguments.update(extra)
    elapsed = time.perf_counter() - start
    write_manifest(out, args.command, args.problem, arguments, files, elapsed)


def _out_dir(args: argparse.Namespace) -> Path:
    """Create the output directory; commands call this after their input
    checks and before any solve, so a path that cannot be a directory exits 1
    at once."""
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InvalidInput(f"cannot use {out} as output directory: {err.strerror}") from None
    return out


def _solution_files(problem: Problem, solution, out: Path, stem: str = "solution") -> list[Path]:
    files = [save_solution(problem, solution, out / f"{stem}.json")]
    with np.errstate(divide="ignore"):  # a dead action (residual -1) has potential -inf
        action_potentials = [float(np.log1p(r)) for r in solution.foc_residuals]
    files.append(
        write_csv(
            out / f"{stem}_actions.csv",
            ["index", "action", "weight", "action_potential", "foc_residual", "supported"],
            [
                [
                    i,
                    problem.actions[i],
                    solution.marginal.weights[i],
                    action_potentials[i],
                    solution.foc_residuals[i],
                    i in solution.consideration_set,
                ]
                for i in range(problem.num_actions)
            ],
        )
    )
    files.append(
        write_csv(
            out / f"{stem}_states.csv",
            ["index", "state", "prior", "state_potential"],
            [
                [j, problem.states[j], problem.prior[j], solution.potentials.state[j]]
                for j in range(problem.num_states)
            ],
        )
    )
    return files


def cmd_solve(args: argparse.Namespace) -> int:
    from .solver import SolverNotConverged, solve

    start = time.perf_counter()
    problem = load_problem(args.problem)
    config = _solver_config(args)
    out = _out_dir(args)
    code = EXIT_OK
    try:
        solution = solve(problem, config)
    except SolverNotConverged as err:
        solution = err.solution
        code = EXIT_NOT_CONVERGED
        print(f"warning: {err}", file=sys.stderr)

    files = _solution_files(problem, solution, out)
    _manifest(args, out, files, start)
    labels = ", ".join(problem.actions[i] for i in solution.consideration_set)
    print(f"f_value: {solution.f_value!r}")
    print(f"iterations: {solution.iterations}")
    print(f"converged: {solution.converged}")
    print(f"consideration set: [{labels}]")
    print(f"wrote: {', '.join(str(f) for f in files)}")
    return code


def cmd_bridge(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    problem = load_problem(args.problem)
    config = SinkhornConfig(tolerance=args.tolerance, max_iterations=args.max_iters)
    nu = load_marginal(args.marginal)
    check_marginal(problem, nu)
    out = _out_dir(args)
    code = EXIT_OK
    try:
        result = sinkhorn_bridge(problem, nu, config)
    except BridgeNotConverged as err:
        result = err.result
        code = EXIT_NOT_CONVERGED
        print(f"warning: {err}", file=sys.stderr)

    files = [save_bridge(result, out / "bridge.json")]
    _manifest(args, out, files, start)
    print(f"value_primal: {result.value_primal!r}")
    print(f"value_dual: {result.value_dual!r}")
    print(f"duality_gap: {result.duality_gap!r}")
    print(f"residual: {result.residual!r} after {result.iterations} sweeps")
    return code


def cmd_diagnose(args: argparse.Namespace) -> int:
    from .diagnostics import check_arguments, run_diagnostics

    start = time.perf_counter()
    problem = load_problem(args.problem)
    solution = load_solution(args.solution)
    check_arguments(problem, solution, args.seed)
    out = _out_dir(args)
    report = run_diagnostics(problem, solution, seed=args.seed)
    files = [save_report(report, out / "report.json")]
    files.append(
        write_csv(
            out / "report.csv",
            ["check", "max_violation", "tolerance", "passed"],
            [[c.name, c.max_violation, c.tolerance, c.passed] for c in report],
        )
    )
    _manifest(args, out, files, start)
    for check in report:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.max_violation:.3e} (tolerance {check.tolerance:.0e})")
    print(f"all checks pass: {report.all_pass}")
    return EXIT_OK if report.all_pass else EXIT_NOT_CONVERGED


def _sweep_one(problem: Problem, config: SolverConfig):
    from .solver import SolverNotConverged, solve

    try:
        return solve(problem, config), None
    except SolverNotConverged as err:
        return err.solution, str(err)


def cmd_sweep(args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor

    start = time.perf_counter()
    problem = load_problem(args.problem)
    config = _solver_config(args)
    check_count("--jobs", args.jobs, 1)
    try:
        lambdas = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
    except ValueError as err:
        raise InvalidInput(f"bad lambda list: {err}") from None
    if not lambdas:
        raise InvalidInput("no lambda values given")
    problems = [
        Problem(problem.actions, problem.states, problem.utility, lam, problem.prior)
        for lam in lambdas
    ]
    out = _out_dir(args)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(lambda scaled: _sweep_one(scaled, config), problems))

    files = []
    rows = []
    failures: dict[str, str] = {}
    for k, (solution, error) in enumerate(results):
        files.extend(_solution_files(problems[k], solution, out, stem=f"solution_{k:02d}"))
        rows.append(
            [
                lambdas[k],
                len(solution.consideration_set),
                solution.f_value,
                mutual_information(solution.coupling),
            ]
        )
        if error is not None:
            failures[repr(lambdas[k])] = error
            print(f"warning: lambda={lambdas[k]}: {error}", file=sys.stderr)
    files.append(
        write_csv(
            out / "summary.csv",
            ["lambda", "consideration_size", "f_value", "mutual_information"],
            rows,
        )
    )
    _manifest(args, out, files, start, failures=failures)
    print(f"swept {len(lambdas)} lambda values, {len(failures)} failures")
    print(f"wrote: {out / 'summary.csv'}")
    return EXIT_OK if not failures else EXIT_NOT_CONVERGED


def _add_common(parser: argparse.ArgumentParser, solver_flags: bool = True) -> None:
    parser.add_argument("--tolerance", type=float, default=1e-12, help="inner marginal residual target")
    parser.add_argument("--max-iters", type=int, default=100_000, help="iteration budget")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    if solver_flags:
        parser.add_argument("--foc-tolerance", type=float, default=1e-9, help="first-order plateau target")
        parser.add_argument("--seed", type=int, default=0, help="seed for random initialization")
        parser.add_argument("--init", choices=["uniform", "random"], default="uniform", help="initial marginal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgehead",
        description="Solve rational-inattention problems as nested entropic optimal transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full outer/inner solver on a problem file")
    p_solve.add_argument("problem", help="problem JSON file")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bridge = sub.add_parser("bridge", help="solve the inner coupling problem at a fixed marginal")
    p_bridge.add_argument("problem", help="problem JSON file")
    p_bridge.add_argument("marginal", help="JSON file with the action marginal (bare array)")
    _add_common(p_bridge, solver_flags=False)
    p_bridge.set_defaults(func=cmd_bridge)

    p_diag = sub.add_parser("diagnose", help="run every certificate against a solved instance")
    p_diag.add_argument("problem", help="problem JSON file")
    p_diag.add_argument("solution", help="solution JSON file to audit")
    p_diag.add_argument("--seed", type=int, default=20240817, help="seed for randomized checks")
    p_diag.add_argument("--output-dir", default=".", help="directory for output files")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser("sweep", help="re-solve one problem across a list of lambda values")
    p_sweep.add_argument("problem", help="problem JSON file")
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated positive lambda values")
    p_sweep.add_argument("--jobs", type=int, default=1, help="concurrent solves")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""bridgehead benchmark: certified-solve time on suite, inner and cli.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark imports bridgehead from the
checkout's ``src`` and times it only from outside, through its public
functions and the ``python -m bridgehead`` command.  Each workload is a
closed loop: one op at a time, from one thread.  A pass runs every op of the
workload once; passes repeat until ``--seconds`` have passed, so the last
one may end after them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes of the same ops and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric names and
units come from BENCHMARK.json.  See perfbench/NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import logsumexp

import child

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
# The host's speed drifts by up to 1.4x over tens of seconds (co-tenants, CPU
# frequency), which no run length averages out.  A probe that runs no
# bridgehead code, timed before every op, tracks that drift: each op's latency
# is rescaled by the median probe time of the ops around it, to the speed at
# which one probe takes the probe's reference time.  On `suite` and `inner`
# the probe is a fixed NumPy and Python kernel in this process, with
# reference PROBE_REFERENCE_S.  Fresh interpreters drift differently: their
# start-up moved by up to 1.4x over minutes while that kernel stayed flat.
# For them (set-up, and every command of `cli` and `stress`) the probe is a
# reference interpreter that imports the third-party modules bridgehead
# imports, and nothing of bridgehead, with reference REFERENCE_START_S.
PROBE_REFERENCE_S = 0.004
PROBE_WINDOW = 5
REFERENCE_ARGV = ["-c", "import numpy, scipy.special, scipy.optimize"]
REFERENCE_START_S = 0.9


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["suite", "inner", "cli", "stress"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """OpenBLAS pool size of every OpenBLAS library loaded in this process."""
    threads = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return threads
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                threads[Path(path).name] = int(getter())
                break
    return threads


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        # one op at a time from one thread; the program's own `sweep --jobs 2`
        # is the only op that runs two
        "benchmark_threads": 1,
        "program_threads_max": 2,
        "host_control": "CPU frequency, turbo and co-tenant load on the host cannot be controlled "
        "from inside the guest; the benchmark changes no kernel or cgroup setting.",
    }


# ---------------------------------------------------------------------------
# Set-up, passes, statistics
# ---------------------------------------------------------------------------


def _timed_python(args: list[str]) -> float:
    start = time.perf_counter()
    done = child.run_python(args, CHILD_TIMEOUT_S, stderr_to_parent=True)
    elapsed = time.perf_counter() - start
    if done.exit_code != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {done.exit_code}")
    return elapsed


def measure_setup(args: argparse.Namespace, workdir: Path) -> tuple[float, float]:
    """Set-up time of fresh interpreters that import, generate and write inputs.

    Returns the median over SETUP_REPEATS of each set-up's wall time over the
    mean of the reference interpreters run just before and after it, times
    REFERENCE_START_S; and the unscaled median."""
    argv = [str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only", str(workdir)]
    references = [reference_interpreter()]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(_timed_python(argv))
        references.append(reference_interpreter())
    ratios = [s / ((before + after) / 2) for s, before, after in zip(setups, references, references[1:])]
    return REFERENCE_START_S * statistics.median(ratios), statistics.median(setups)


def measure_import() -> float:
    """Median wall time of a fresh interpreter importing ``bridgehead.cli``."""
    return statistics.median(_timed_python(["-c", "import bridgehead.cli"]) for _ in range(IMPORT_REPEATS))


def reference_interpreter() -> float:
    """Wall time of a fresh interpreter that imports what bridgehead imports."""
    return _timed_python(REFERENCE_ARGV)


_PROBE_KERNEL = np.linspace(0.0, 20.0, 256).reshape(16, 16)


def kernel_probe() -> float:
    """Wall time of a fixed NumPy and Python kernel that no change to bridgehead touches."""
    log_w = np.full(16, -np.log(16.0))
    a = np.zeros(16)
    start = time.perf_counter()
    for _ in range(15):
        b = logsumexp(_PROBE_KERNEL + log_w[:, None] - a[:, None], axis=0)
        a = logsumexp(_PROBE_KERNEL + log_w[None, :] - b[None, :], axis=1)
        np.exp(_PROBE_KERNEL - a[:, None] - b[None, :]).sum(axis=0)
    total = 0
    for i in range(5_000):
        total += i % 7
    return time.perf_counter() - start


@dataclass
class Pass:
    """Latencies, failures and deterministic counts of one pass over the ops."""

    latencies: list[float] = field(default_factory=list)
    named: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    ops_failed: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    max_rss_kb: int = 0
    probes: list[float] = field(default_factory=list)

    def rescaled(self, reference_s: float) -> list[float]:
        """Op latencies at the speed at which one probe takes ``reference_s``."""
        return [
            t * reference_s / statistics.median(self.probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
            for i, t in enumerate(self.latencies)
        ]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, recorder=None, probe: Callable[[], float] | None = None) -> Pass:
    result = Pass()
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        if probe is not None:
            result.probes.append(probe())
        if recorder is not None:
            recorder.begin_op(op.name)
        start = time.perf_counter()
        try:
            outputs, error = op.run(), None
        except Exception:  # an op that raises is a failed op; the benchmark keeps going
            outputs, error = None, traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.end_op()
        if error is None:
            reasons, counts = op.check(outputs)
            result.max_rss_kb = max(result.max_rss_kb, getattr(outputs, "max_rss_kb", None) or 0)
        else:
            reasons, counts = [f"raised {error}"], {}
        result.latencies.append(elapsed)
        result.named[op.name] = elapsed
        for key, value in counts.items():
            result.counts[key] = result.counts.get(key, 0) + value
        if reasons:
            result.ops_failed += 1
            result.failures.extend(f"{op.name}: {r}" for r in reasons)
    result.counts["ops_failed"] = result.ops_failed
    return result


def passes(budget_s: float):
    """Yield pass indices until the budget is spent.  At least one pass runs,
    and the last one may end after the budget: a prediction of the next pass
    from the passes so far would let one pass slowed by a rare hard instance
    (an `inner` marginal that needs tens of thousands of sweeps) end the run
    early and leave its median to that pass."""
    start = time.perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        if time.perf_counter() - start >= budget_s:
            return


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, workdir, workloads) -> tuple[dict, list[Pass]]:
    in_this_process = args.workload in ("suite", "inner")
    if in_this_process:
        probe, reference_s = kernel_probe, PROBE_REFERENCE_S
        warm_up(workloads.build_ops(args.workload, args.seed, 0, workdir, in_process=False))
    else:
        probe, reference_s = reference_interpreter, REFERENCE_START_S
    done: list[Pass] = []
    for k in passes(args.seconds):
        ops = workloads.build_ops(args.workload, args.seed, k, workdir, in_process=False)
        done.append(run_pass(ops, probe=probe))
    print("pass walls (s): " + " ".join(f"{p.wall:.4f}" for p in done))
    raw = [t for p in done for t in p.latencies]
    print(f"unscaled: wall_s {statistics.median(p.wall for p in done):.6g} s, "
          f"op_p50_ms {1e3 * statistics.median(raw):.6g} ms, op_p90_ms {1e3 * percentile(raw, 90):.6g} ms, "
          f"median probe {statistics.median(q for p in done for q in p.probes):.6g} s")
    walls = [sum(p.rescaled(reference_s)) for p in done]
    latencies = [t for p in done for t in p.rescaled(reference_s)]
    if in_this_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(p.max_rss_kb for p in done)
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, done


def warm_up(ops) -> None:
    """Run the first op once, untimed, so lazy imports and first-call set-up
    inside the process do not land in the first timed pass."""
    if ops[0].prepare is not None:
        ops[0].prepare()
    ops[0].run()


def traced(args, workdir, workloads, tracing) -> tuple[dict, list[Pass]]:
    """Untraced and traced passes of the same ops in pairs, alternating which
    runs first; cli commands replay in-process through ``bridgehead.cli.main``."""
    recorder = tracing.Recorder()

    def traced_pass(k: int) -> Pass:
        first = len(recorder.op_names)
        recorder.install()
        try:
            result = run_pass(workloads.build_ops(args.workload, args.seed, k, workdir, True), recorder)
        finally:
            recorder.uninstall()
        layers.append(tracing.layer_metrics(recorder, range(first, len(recorder.op_names))))
        return result

    untraced_passes, traced_passes, layers = [], [], []
    warm_up(workloads.build_ops(args.workload, args.seed, 0, workdir, True))
    for k in passes(args.seconds):
        if k % 2:
            traced_passes.append(traced_pass(k))
        untraced_passes.append(run_pass(workloads.build_ops(args.workload, args.seed, k, workdir, True)))
        if not k % 2:
            traced_passes.append(traced_pass(k))
        layers[-1]["trace.overhead_s"] = traced_passes[-1].wall - untraced_passes[-1].wall
    metrics = tracing.median_over(layers)
    metrics["cli.import_s"] = measure_import()
    plain = untraced_passes[0].named
    jobs1, jobs2 = plain.get("sweep[jobs=1]"), plain.get("sweep[jobs=2]")
    metrics["cli.sweep_jobs2_speedup"] = jobs1 / jobs2 if jobs1 and jobs2 else 0.0
    if jobs1 and jobs2:
        print(f"sweep: --jobs 1 {jobs1:.4f} s, --jobs 2 {jobs2:.4f} s (in-process, untraced)")
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
    recorder.dump(spans_path, {"workload": args.workload, "seed": args.seed})
    print(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    # the traced counts must equal the untraced counts of the same ops
    for plain_pass, span_pass in zip(untraced_passes, traced_passes):
        if plain_pass.counts != span_pass.counts:
            span_pass.failures.append(
                f"tracing changed the counts: {plain_pass.counts} untraced, {span_pass.counts} traced"
            )
            span_pass.ops_failed += 1
    return metrics, untraced_passes + traced_passes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bridgehead" / "__init__.py").is_file():
        print("error: no bridgehead sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)

    import workloads

    if args.setup_only:
        workloads.set_up(args.workload, args.seed, Path(args.setup_only))
        return 0

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        machine = machine_record()
        print("machine:", json.dumps(machine))
        print("host: " + machine["host_control"])
        if args.trace:
            import tracing

            workloads.set_up(args.workload, args.seed, workdir)
            metrics, done = traced(args, workdir, workloads, tracing)
        else:
            setup_s, setup_unscaled_s = measure_setup(args, workdir)
            print(f"setup: unscaled median {setup_unscaled_s:.6g} s over {SETUP_REPEATS} interpreters")
            metrics, done = end_to_end(args, workdir, workloads)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in done)
    failed = sum(p.ops_failed for p in done)
    print(f"workload {args.workload}, seed {args.seed}: {len(done)} passes, ops {attempted}, "
          f"ops_failed {failed}, fail_ratio {failed / attempted:.4g}")
    print("counts of the first pass: " + json.dumps(done[0].counts, sort_keys=True))
    print("ms per op of the first pass: " + ", ".join(f"{k} {1e3 * v:.1f}" for k, v in done[0].named.items()))
    for line in sorted({f for p in done for f in p.failures}):
        print("FAILED " + line)
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

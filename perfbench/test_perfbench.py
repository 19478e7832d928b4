"""Self-checks of the benchmark: its counts repeat exactly, tracing leaves
them unchanged, and it refuses to run without the program's sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# counts that every run at the same seed must repeat exactly
DETERMINISTIC = ("solver.iterations", "bridge.sweeps", "oracle.points", "core.gibbs_kernel_calls")
SEED = 5


def _short_ops(workload: str, workdir: Path):
    """A few cheap ops of each workload; suite keeps two oracle instances."""
    ops = workloads.build_ops(workload, SEED, 0, workdir, in_process=True)
    if workload == "suite":
        return [op for op in ops if op.name in ("suite[0]", "suite[1]", "suite[4]")]
    if workload == "inner":
        return ops[:8]
    return [op for op in ops if "lam100" in op.name or op.name.startswith("sweep")]


def _traced(workload: str, workdir: Path):
    recorder = tracing.Recorder()
    ops = _short_ops(workload, workdir)
    recorder.install()
    try:
        result = run.run_pass(ops, recorder)
    finally:
        recorder.uninstall()
    return result, tracing.layer_metrics(recorder, range(len(ops)))


@pytest.mark.parametrize("workload", ["suite", "inner", "cli"])
def test_counts_repeat_and_tracing_does_not_change_them(workload, tmp_path):
    if workload == "cli":
        workloads.write_stress_inputs(SEED, tmp_path / "inputs")
    plain_a = run.run_pass(_short_ops(workload, tmp_path))
    plain_b = run.run_pass(_short_ops(workload, tmp_path))
    traced_a, layers_a = _traced(workload, tmp_path)
    traced_b, layers_b = _traced(workload, tmp_path)

    assert plain_a.failures == []
    assert plain_a.counts == plain_b.counts == traced_a.counts == traced_b.counts
    assert {k: layers_a[k] for k in DETERMINISTIC} == {k: layers_b[k] for k in DETERMINISTIC}
    if workload == "suite":
        assert layers_a["solver.iterations"] == plain_a.counts["solver.iterations"]
        assert layers_a["oracle.points"] == plain_a.counts["oracle.points"] > 0
    if workload == "inner":
        assert layers_a["bridge.sweeps"] == plain_a.counts["bridge.sweeps"]
        assert layers_a["bridge.calls.direct"] == len(plain_a.latencies)
    if workload == "cli":
        assert layers_a["cli.commands"] == len(plain_a.latencies)
        assert layers_a["io.bytes_written"] > 0


def test_one_slow_pass_does_not_end_the_run():
    started = time.perf_counter()
    count = 0
    for k in run.passes(0.5):
        time.sleep(0.3 if k == 0 else 0.02)
        count += 1
    assert count > 3
    assert time.perf_counter() - started < 1.0


def test_tracing_restores_every_namespace():
    before = {name: vars(module).copy() for name, module in sys.modules.items() if name.startswith("bridgehead")}
    recorder = tracing.Recorder()
    recorder.install()
    recorder.uninstall()
    after = {name: vars(sys.modules[name]) for name in before}
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_printed_counts_repeat_between_runs_and_trace_modes():
    args = ("--workload", "inner", "--seed", str(SEED), "--seconds", "1")
    runs = [_bench(HERE.parent, *args, "--trace", t) for t in ("0", "1", "1")]
    firsts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert json.loads(lines[-1])["correct"] is True
        firsts.append(next(line for line in lines if line.startswith("counts of the first pass")))
    assert firsts[0] == firsts[1] == firsts[2]
    metrics = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in runs[1:]]
    for key in DETERMINISTIC:
        assert metrics[0][key]["value"] == metrics[1][key]["value"], key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "suite", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

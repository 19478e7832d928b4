"""Run one child interpreter to completion and report its own peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


@dataclass
class Finished:
    exit_code: int
    stdout: str
    stderr: str
    max_rss_kb: int


def _python_env() -> dict[str, str]:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_python(args: list[str], timeout_s: float, stderr_to_parent: bool = False) -> Finished:
    """Run ``python args...`` from the checkout root and reap it with wait4.

    wait4 returns the rusage of that one child, so ``max_rss_kb`` is its own
    peak resident memory.  A child still running after ``timeout_s`` is killed.
    """
    WORK.mkdir(exist_ok=True)
    with open(os.devnull, "rb") as stdin, tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        child = subprocess.Popen(
            [sys.executable, *args], stdin=stdin, stdout=out,
            stderr=None if stderr_to_parent else err, cwd=ROOT, env=_python_env(),
        )
        watchdog = threading.Timer(timeout_s, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(child.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)

"""A bad ``REPRO_BENCH_SCALE`` is a one-line usage error, never a traceback.

Every perf script and the benchmark suite read their world scale from
the environment; a value that is not a positive number must stop them
with ``error: ...`` on stderr and exit status 2, before any work.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "benchmarks" / "perf"
SCRIPTS = (
    "run_bench.py",
    "delta_scan.py",
    "monitor_smoke.py",
    "fault_matrix.py",
    "chaos_drill.py",
)


def _run(args, scale, tmp_path):
    env = dict(os.environ, REPRO_BENCH_SCALE=scale)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_rejects_non_numeric_scale(script, tmp_path):
    done = _run([str(PERF / script)], "fast", tmp_path)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: REPRO_BENCH_SCALE must be a positive number, got 'fast'"
    ]
    assert "Traceback" not in done.stdout


@pytest.mark.parametrize("scale", ["0", "-0.5", "nan", "inf", ""])
def test_non_positive_or_non_finite_scale_rejected(scale, tmp_path):
    done = _run([str(PERF / "delta_scan.py")], scale, tmp_path)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"error: REPRO_BENCH_SCALE must be a positive number, got {scale!r}"
    ]


def test_benchmark_suite_stops_before_collecting(tmp_path):
    done = _run(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "benchmarks")],
        "abc",
        tmp_path,
    )
    assert done.returncode == 2
    assert (
        "error: REPRO_BENCH_SCALE must be a positive number, got 'abc'"
        in done.stdout + done.stderr
    )
    assert "Traceback" not in done.stdout + done.stderr

"""Helpers shared by the benchmark modules."""

from __future__ import annotations

from perf.bench_env import parse_scale


def bench_scale() -> float:
    """The benchmark world scale (REPRO_BENCH_SCALE, default 1.0).

    A bad value never gets this far: ``conftest.py`` validates it before
    collection and stops the run with one ``error: ...`` line, exit 2.
    """
    return parse_scale(1.0)

"""The ``REPRO_BENCH_SCALE`` setting, validated in one place.

The perf scripts and the benchmark suite read their world scale from
``REPRO_BENCH_SCALE``.  A value that is not a positive number is a
usage error: the scripts print one ``error: ...`` line and exit 2, and
the benchmark suite stops the same way before it collects anything.
"""

from __future__ import annotations

import math
import os
import sys


def parse_scale(default: float) -> float:
    """``REPRO_BENCH_SCALE`` as a positive number (``default`` when unset).

    Raises ValueError naming the offending value otherwise.
    """
    text = os.environ.get("REPRO_BENCH_SCALE")
    if text is None:
        return default
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(
            f"REPRO_BENCH_SCALE must be a positive number, got {text!r}"
        )
    return scale


def scale_or_exit(default: float) -> float:
    """:func:`parse_scale` for scripts: one error line and exit 2 if bad."""
    try:
        return parse_scale(default)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None

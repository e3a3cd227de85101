"""Regenerate ``pins.json``: the expected outputs of every pinned world.

Runs one campaign unit and one paper unit on each world of
``WORLD_SEEDS`` at the benchmark scale, and on ``TEST_WORLD`` at the
benchmark tests' ``TEST_SCALE``, and records the seven scans'
``result_digest`` hashes and the paper report's row hashes.  Re-pin only together with a change
that is meant to alter the program's outputs, and say so.

Usage (from the repository root)::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import (
        PINS_PATH,
        TEST_SCALE,
        TEST_WORLD,
        WORLD_SEEDS,
        Context,
        pin_key,
        run_unit,
    )

    # (scale, world); a None scale is the workload's benchmark scale.
    worlds = [(None, seed) for seed in WORLD_SEEDS] + [(TEST_SCALE, TEST_WORLD)]
    outputs = {"campaign": "scan_digests", "paper": "row_hashes"}
    workdir = ROOT / ".perfbench_out" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins: dict[str, dict] = {}
    try:
        for scale, world_seed in worlds:
            for workload, fact in outputs.items():
                ctx = Context(workload, world_seed, workdir, scale=scale)
                unit = run_unit(ctx)
                key = pin_key(ctx.scale, world_seed)
                pins.setdefault(key, {})[fact] = unit.facts[fact]
                print(f"pinned {workload} {key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Delta-scan CI drill: one worker-count cell of the delta-scan gates.

Seeds the incremental engine from a full scan of both relay domains,
runs three steady-state delta rounds, injects one deployment change of
every churn kind, and runs three more rounds.  Three gates:

* **query budget** — the steady-state delta round may cost at most 30 %
  of a full rescan's queries (``delta_queries_frac``);
* **detection horizon** — every injected change must surface within 3
  delta rounds (``detection_rounds``);
* **state equivalence** — the delta-accumulated state must be
  digest-identical to a fresh full rescan of the churned world.

The first gate is a budget check on the written result; the other two
are exact correctness invariants enforced inside the leg itself (a
violation raises and the drill exits 1 before writing gates output).
The result is written in the ``BENCH_scan.json`` shape so CI uploads
line up with the perf harness artifacts.

Usage::

    PYTHONPATH=src python benchmarks/perf/delta_scan.py --workers 4

Environment: ``REPRO_BENCH_SCALE`` (default 0.2) and
``REPRO_BENCH_SEED`` (default 2022), as for ``run_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench_env import scale_or_exit
from run_bench import DeltaDivergence, _delta_leg, check_delta, current_commit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the scans across N worker processes (default 1)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_scan.json"),
        help="result path (default BENCH_scan.json)",
    )
    args = parser.parse_args(argv)
    scale = scale_or_exit(0.2)
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2022"))
    print(
        f"delta-scan drill at scale={scale} seed={seed} "
        f"workers={args.workers} ..."
    )
    try:
        fields = _delta_leg(scale, seed, args.workers)
    except DeltaDivergence as divergence:
        print("FAIL: delta-scan drill violated a correctness invariant:")
        for problem in divergence.problems:
            print(f"  {problem}")
        return 1
    result = {
        "commit": current_commit(),
        "scale": scale,
        "seed": seed,
        "workers": args.workers,
        **fields,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {args.output}")
    return check_delta(result)


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 25 --trace 0

``--workload`` is one of ``campaign``, ``campaign_sharded``, ``monitor``
and ``paper`` (see ``perfbench/README.md``).  The run repeats *units* —
a fresh world build (timed as set-up) and one pass of the workload —
taking turns over the four pinned worlds from ``WORLD_SEEDS[n % 4]``
on (``--seed n``; it also picks the monitor's churn sets, so the same
seed gives the same input).  It runs at least one unit per world, then
more while the next is expected to end within ``--seconds``, checks
every unit's outputs, and prints the end-to-end metrics as medians
over the units.

``--trace 1`` is the separate traced run, on the first world only:
two untraced units (the
reference for the tracing overhead; on ``campaign_sharded`` one
sequential and one sharded, the bases of the speed-up), then traced
units with a live ``Telemetry()`` and the layer wrappers of
``perfbench/layers.py`` installed.  It prints the per-layer metrics
(per traced unit) and writes the layer table and a Chrome trace under
``.perfbench_out/``.

The last line of standard output is the result object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

A failed output check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and
    that percentile; with ten values or fewer, the maximum (100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timings(units, normalised: bool) -> dict:
    """The wall-time metrics over a run's units: raw, or each time
    divided (each rate multiplied) by the host's slowdown around it."""

    def factor(unit, name: str) -> float:
        return unit.factors[name] if normalised else 1.0

    def rounds(unit) -> list[float]:
        if not normalised:
            return list(unit.rounds_s)
        return [w / f for w, f in zip(unit.rounds_s, unit.round_factors)]

    pooled = [wall for u in units for wall in rounds(u)]
    if min(len(u.rounds_s) for u in units) > 10:
        tail_s, tail_pct = tail(pooled)
    else:
        # A calendar's months differ in work (one domain or two, QUIC
        # or not), so the pooled tail's rank would fall on the line
        # between month kinds or off it as the unit count changes.
        # Take each calendar's own tail (of ten rounds or fewer: its
        # slowest) and the median of those.
        tail_s = statistics.median(tail(rounds(u))[0] for u in units)
        tail_pct = 100.0
    return {
        "setup_s": statistics.median(
            u.setup_s / factor(u, "setup_s") for u in units
        ),
        "queries_per_s": statistics.median(
            u.queries / u.scan_wall_s * factor(u, "scan_wall_s") for u in units
        ),
        "seed_s": statistics.median(u.seed_s / factor(u, "seed_s") for u in units),
        "round_p50_s": statistics.median(pooled),
        "round_tail_s": tail_s,
        "round_tail_percentile": tail_pct,
        "report_s": statistics.median(
            u.report_s / factor(u, "report_s") for u in units
        ),
    }


def end_to_end(units) -> tuple[dict, dict]:
    """The end-to-end metrics over a run's units, and their context.

    Wall times are host-normalised (see ``hostspeed``); the context
    keeps the raw figures beside them.
    """
    normal = timings(units, normalised=True)
    raw = timings(units, normalised=False)
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    values = {
        "setup_s": (normal["setup_s"], "s"),
        "queries_per_s": (normal["queries_per_s"], "1/s"),
        "sim_scan_h": (statistics.median(u.sim_scan_h for u in units), "h"),
        "seed_s": (normal["seed_s"], "s"),
        "round_p50_s": (normal["round_p50_s"], "s"),
        "round_tail_s": (normal["round_tail_s"], "s"),
        "round_queries_frac": (
            statistics.median(f for u in units for f in u.round_fracs),
            "ratio",
        ),
        "detection_rounds": (max(u.detection_rounds for u in units), "rounds"),
        "report_s": (normal["report_s"], "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    context = {
        "units": len(units),
        "rounds": sum(len(u.rounds_s) for u in units),
        "round_tail_percentile": normal["round_tail_percentile"],
        "queries_per_unit": units[0].queries,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "worker_peak_rss_mb": max(u.worker_peak_rss_mb for u in units),
        "host_factor": statistics.median(u.factors["report_s"] for u in units),
        "unit_host_factor": [u.factors["report_s"] for u in units],
        "raw": raw,
        "unit_setup_s": [u.setup_s for u in units],
        "unit_report_s": [u.report_s for u in units],
    }
    return values, context


def input_record(args, ctx, units) -> dict:
    """What the run measured: enough to show two runs had equal input."""
    per_world = {}
    for unit in units:
        facts = unit.facts
        per_world.setdefault(str(unit.world_seed), {
            "planned_queries": facts["planned_queries"],
            "routed_slash24s": facts["routed_slash24s"],
            "rounds_per_unit": facts["rounds"],
            "churn_records": facts["churn_records"],
            **({"churn_seed": facts["churn_seed"]} if "churn_seed" in facts else {}),
        })
    return {
        "workload": args.workload,
        "scale": ctx.scale,
        "seed": args.seed,
        "worlds": list(ctx.worlds),
        "unit_worlds": [unit.world_seed for unit in units],
        "per_world": per_world,
        "fault_profile": units[0].facts["fault_profile"],
        "workers": units[0].facts["workers"],
    }


def child_pids() -> list[int]:
    """This process's live child processes (Linux ``/proc``)."""
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError):
            pids.extend(int(pid) for pid in children.read_text().split())
    return sorted(set(pids))


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process the run started and wait until each has ended.

    A sharded scan starts multiprocessing's resource tracker, which is
    built to outlive its parent; stopping it here closes its pipe (it
    unlinks any shared memory still registered) and reaps it.  Anything
    else still a child by now is a leak: it gets ``grace_s`` to exit
    after SIGTERM, then SIGKILL, and is reaped either way.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        with contextlib.suppress(Exception):
            tracker._resource_tracker._stop()
    pids = child_pids()
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while time.monotonic() < deadline:
            with contextlib.suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    time.sleep(0.02)
                    continue
            break
        else:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import tracing
        from perfbench.workloads import (
            WORKLOADS,
            Context,
            load_pins,
            run_units,
            world_rotation,
        )
    except ImportError as exc:
        print(f"perfbench: cannot load the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    worlds = world_rotation(args.seed)
    ctx = Context(
        args.workload,
        worlds[0],
        workdir,
        pins=load_pins(),
        worlds=worlds[:1] if args.trace else worlds,
        seed=args.seed,
    )
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            units, metrics, report = tracing.traced_run(ctx, args.seconds)
            (OUT_DIR / f"trace-{tag}.md").write_text(report["markdown"])
            (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps(report["trace"]))
            print(report["markdown"], file=sys.stderr)
            record = {"input": input_record(args, ctx, units), **report["summary"]}
        else:
            units = run_units(ctx, args.seconds, len(worlds))
            values, context = end_to_end(units)
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
            }
            record = {"input": input_record(args, ctx, units), **context}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = sorted({p for unit in units for p in unit.problems})
    record["problems"] = problems
    (OUT_DIR / f"run-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fault-matrix smoke: one (profile, workers) cell of the CI matrix.

Runs the monthly campaign under a named fault profile and proves the
robustness invariants end to end:

* **worker-count equivalence** — with ``--workers`` > 1 a sharded
  campaign runs next to the sequential reference and every externally
  visible output must match: query accounting, retry/give-up/injection
  accounting, the rate-limit timeline, ingress address sets, per-AS
  attribution, server stats, the longitudinal archive CSVs, and the
  deterministic telemetry totals.  The ``hostile`` profile crashes a
  shard worker on its first attempt, so this leg also exercises pool
  recovery.
* **kill-and-resume** — a checkpointing campaign is run, its later
  month checkpoints are deleted (the simulated kill point), and a
  resumed campaign must reproduce the reference archives bit for bit.

Exit status 0 means every check passed; 1 lists the divergences.

Usage::

    PYTHONPATH=src python benchmarks/perf/fault_matrix.py \
        --profile hostile --workers 4 --telemetry-out fault-telemetry.json

Environment: ``REPRO_BENCH_SCALE`` (default 0.05) and
``REPRO_BENCH_SEED`` (default 2022), as for ``run_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from bench_env import scale_or_exit


def _campaign_scans(campaign):
    for month in campaign.months:
        yield month.default
        if month.fallback is not None:
            yield month.fallback


def _run_campaign(
    scale: float,
    seed: int,
    profile: str,
    workers: int,
    telemetry=None,
    checkpoint_dir=None,
    resume: bool = False,
):
    from repro.faults import FaultPlan
    from repro.scan.campaign import ScanCampaign
    from repro.scan.ecs_scanner import EcsScanSettings
    from repro.worldgen import WorldConfig, build_world

    plan = None if profile == "none" else FaultPlan(profile, seed=seed)
    world = build_world(WorldConfig(seed=seed, scale=scale))
    campaign = ScanCampaign(
        server=world.route53,
        routing=world.routing,
        clock=world.clock,
        settings=EcsScanSettings(
            workers=workers, campaign_seed=seed, fault_plan=plan
        ),
        telemetry=telemetry if telemetry is not None else _null_telemetry(),
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    with campaign:
        campaign.run(world.scan_months())
    return world, campaign


def _null_telemetry():
    from repro.telemetry import NULL_TELEMETRY

    return NULL_TELEMETRY


def _compare_campaigns(tag: str, reference, candidate) -> list[str]:
    """Divergences between two campaigns' externally visible outputs."""
    ref_world, ref_campaign = reference
    cand_world, cand_campaign = candidate
    problems: list[str] = []
    ref_scans = list(_campaign_scans(ref_campaign))
    cand_scans = list(_campaign_scans(cand_campaign))
    if len(ref_scans) != len(cand_scans):
        return [f"{tag}: scan count {len(ref_scans)} vs {len(cand_scans)}"]
    for a, b in zip(ref_scans, cand_scans):
        scan_tag = f"{tag}: {a.domain} @{a.started_at:.0f}"
        for name in (
            "queries_sent",
            "sparse_queries",
            "sparse_answered",
            "retries",
            "gave_up",
            "fault_injected",
            "fault_wait_seconds",
            "finished_at",
        ):
            if getattr(a, name) != getattr(b, name):
                problems.append(
                    f"{scan_tag}: {name} {getattr(a, name)!r} vs "
                    f"{getattr(b, name)!r}"
                )
        if [(r.subnet, r.scope) for r in a.responses] != [
            (r.subnet, r.scope) for r in b.responses
        ]:
            problems.append(f"{scan_tag}: query streams differ")
        if a.addresses() != b.addresses():
            problems.append(f"{scan_tag}: ingress sets differ")
        if a.addresses_by_asn() != b.addresses_by_asn():
            problems.append(f"{scan_tag}: per-AS attribution differs")
    if ref_world.route53.stats != cand_world.route53.stats:
        problems.append(f"{tag}: server stats differ")
    for archive in ("default_archive", "fallback_archive"):
        if (
            getattr(ref_campaign, archive).to_csv()
            != getattr(cand_campaign, archive).to_csv()
        ):
            problems.append(f"{tag}: {archive} CSV differs")
    return problems


def _check_workers(scale, seed, profile, workers, telemetry_out) -> list[str]:
    from repro.telemetry import Telemetry, deterministic_totals

    seq_telemetry = Telemetry()
    reference = _run_campaign(scale, seed, profile, 1, telemetry=seq_telemetry)
    snapshot = seq_telemetry.snapshot()
    problems: list[str] = []
    if workers > 1:
        sharded_telemetry = Telemetry()
        sharded = _run_campaign(
            scale, seed, profile, workers, telemetry=sharded_telemetry
        )
        problems += _compare_campaigns(
            f"workers 1 vs {workers}", reference, sharded
        )
        seq_totals = deterministic_totals(snapshot)
        snapshot = sharded_telemetry.snapshot()
        sharded_totals = deterministic_totals(snapshot)
        problems += [
            f"telemetry: {key} sequential {seq_totals.get(key)} vs "
            f"sharded {sharded_totals.get(key)}"
            for key in sorted(set(seq_totals) | set(sharded_totals))
            if seq_totals.get(key) != sharded_totals.get(key)
        ]
    if telemetry_out is not None:
        telemetry_out.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {telemetry_out}")
    return problems


def _check_kill_and_resume(scale, seed, profile, workers) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="fault-matrix-ckpt-") as tmp:
        directory = Path(tmp)
        straight = _run_campaign(
            scale, seed, profile, workers, checkpoint_dir=directory
        )
        month_files = sorted(directory.glob("month-*.json"))
        if not month_files:
            return ["kill-and-resume: no checkpoints were written"]
        # The simulated kill: everything after the first half of the
        # campaign is lost and must be re-scanned on resume.
        for path in month_files[len(month_files) // 2 :]:
            path.unlink()
        resumed = _run_campaign(
            scale, seed, profile, workers, checkpoint_dir=directory, resume=True
        )
        return _compare_campaigns("kill-and-resume", straight, resumed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="none",
                        help="fault profile name (none, lossy, hostile)")
    parser.add_argument("--workers", type=int, default=1,
                        help="sharded worker count; 1 skips the sharded leg")
    parser.add_argument("--telemetry-out", type=Path, default=None,
                        metavar="PATH",
                        help="write the cell's telemetry snapshot here")
    args = parser.parse_args(argv)

    scale = scale_or_exit(0.05)
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2022"))
    print(
        f"fault matrix cell: profile={args.profile} workers={args.workers} "
        f"scale={scale} seed={seed}"
    )
    problems = _check_workers(
        scale, seed, args.profile, args.workers, args.telemetry_out
    )
    problems += _check_kill_and_resume(scale, seed, args.profile, args.workers)
    if problems:
        print("FAIL:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("OK: worker-count equivalence and kill-and-resume both reproduce")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Chaos drill: the always-on daemon's failure playbook, end to end.

Three legs, each proving one DESIGN.md §12 recovery contract against a
real campaign (not a mock):

* **SIGTERM drain** — a checkpointing full campaign is launched as a
  subprocess and sent ``SIGTERM`` the moment its first month checkpoint
  lands.  The process must drain (finish the in-flight month, persist,
  emit ``campaign_interrupted``) and exit 0; a resume with the same
  arguments must complete the calendar and leave checkpoint files
  byte-identical to an uninterrupted reference run.  The drill runs at
  workers 1, 2 and 4, and the worker-invariant projection of the final
  checkpoints (query accounting, probe streams, ingress address sets)
  must be digest-identical across all three.
* **storage-fault matrix** — full and delta campaigns run under the
  ``hostile`` profile's storage rates with every persistence surface
  gated, and the accounting identity must close exactly:
  ``faults.storage.injected == absorbed + surfaced``, with no ``.tmp``
  file left anywhere.
* **hung shard** — a sharded campaign with the watchdog armed runs the
  hostile hang drill; the hang must be detected (``shard_hung``), the
  pool recycled, and the results must match the same campaign run
  without a watchdog bit for bit.

After all legs the drill asserts zero leaked ``/dev/shm/repro-*``
segments.  Exit status 0 means every contract held; 1 lists the
violations.

Usage::

    PYTHONPATH=src python benchmarks/perf/chaos_drill.py

Environment: ``REPRO_BENCH_SCALE`` (default 0.05) and
``REPRO_BENCH_SEED`` (default 2022), as for ``run_bench.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_env import scale_or_exit

STARTUP_TIMEOUT_S = 180.0
POLL_INTERVAL_S = 0.05


class DrillFailure(Exception):
    """A hardening contract did not hold."""


# ----------------------------------------------------------------------
# Leg 1: SIGTERM drain + resume, digest-compared across worker counts
# ----------------------------------------------------------------------


def _campaign_command(scale, seed, workers, checkpoint_dir, event_log=None,
                      resume=False):
    command = [
        sys.executable, "-m", "repro.cli", "campaign",
        "--scale", str(scale),
        "--seed", str(seed),
        "--workers", str(workers),
        "--checkpoint-dir", str(checkpoint_dir),
    ]
    if event_log is not None:
        command += ["--event-log", str(event_log)]
    if resume:
        command.append("--resume")
    return command


def _run_to_completion(command) -> str:
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise DrillFailure(
            f"campaign exited {result.returncode}:\n{result.stderr[-2000:]}"
        )
    return result.stdout


def _interrupt_on_first_checkpoint(command, checkpoint_dir) -> str:
    """Start the campaign, SIGTERM it at the first checkpoint, expect 0."""
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    try:
        while not list(Path(checkpoint_dir).glob("month-*.json")):
            if process.poll() is not None:
                raise DrillFailure(
                    "campaign finished before the drill could interrupt it "
                    "(raise REPRO_BENCH_SCALE)"
                )
            if time.monotonic() > deadline:
                raise DrillFailure("no checkpoint within the startup window")
            time.sleep(POLL_INTERVAL_S)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=STARTUP_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise DrillFailure(
            f"drained campaign exited {process.returncode}, expected 0:\n"
            f"{output[-2000:]}"
        )
    if "interrupted: drained in-flight work" not in output:
        raise DrillFailure("drained campaign did not announce the interrupt")
    return output


def _checkpoint_bytes(directory) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).glob("month-*.json"))
    }


def _worker_invariant_digest(directory) -> str:
    """Digest the checkpoint content that must not depend on workers.

    Per month: query/retry accounting, the (value, length, scope) probe
    stream, and the sorted ingress address set.  Per-response address
    *windows* are excluded on purpose — shard rotation streams start at
    seeded offsets (see tests/scan/test_sharded_equivalence.py), so
    windows legitimately differ across worker counts.
    """
    projection = []
    for path in sorted(Path(directory).glob("month-*.json")):
        document = json.loads(path.read_text())
        months = []
        for key in ("default", "fallback"):
            result = document.get(key)
            if result is None:
                months.append(None)
                continue
            addresses = sorted({
                tuple(pair)
                for window, _asn in result["responses"]["table"]
                for pair in window
            })
            months.append({
                "queries": result["queries_sent"],
                "sparse": [result["sparse_queries"], result["sparse_answered"]],
                "retries": result["retries"],
                "stream": [row[:3] for row in result["responses"]["rows"]],
                "addresses": addresses,
            })
        projection.append([document["year"], document["month"], months])
    canonical = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _drill_sigterm(scale, seed, workers_list) -> None:
    digests = {}
    for workers in workers_list:
        with tempfile.TemporaryDirectory(prefix="chaos-drain-") as tmp:
            ref_dir = Path(tmp) / "reference"
            drill_dir = Path(tmp) / "drill"
            event_log = Path(tmp) / "events.jsonl"

            _run_to_completion(
                _campaign_command(scale, seed, workers, ref_dir)
            )
            _interrupt_on_first_checkpoint(
                _campaign_command(scale, seed, workers, drill_dir, event_log),
                drill_dir,
            )
            kinds = [
                json.loads(line)["event"]
                for line in event_log.read_text().splitlines()
            ]
            if "campaign_interrupted" not in kinds:
                raise DrillFailure(
                    "no campaign_interrupted event in the drained log"
                )
            if "campaign_finished" in kinds:
                raise DrillFailure("drained campaign also claims it finished")
            drained = len(list(drill_dir.glob("month-*.json")))
            reference = _checkpoint_bytes(ref_dir)
            if not 0 < drained < len(reference):
                raise DrillFailure(
                    f"drain landed {drained} checkpoints of "
                    f"{len(reference)}; expected a strict mid-campaign cut"
                )

            _run_to_completion(
                _campaign_command(
                    scale, seed, workers, drill_dir, resume=True
                )
            )
            resumed = _checkpoint_bytes(drill_dir)
            if resumed != reference:
                diverged = sorted(
                    name for name in reference
                    if resumed.get(name) != reference[name]
                )
                raise DrillFailure(
                    f"workers={workers}: resumed checkpoints diverge from "
                    f"the straight run: {diverged or 'missing files'}"
                )
            digests[workers] = _worker_invariant_digest(drill_dir)
            print(
                f"  workers={workers}: drained at {drained}/{len(reference)} "
                f"months, resume byte-identical, digest {digests[workers][:12]}"
            )
    if len(set(digests.values())) != 1:
        raise DrillFailure(
            f"worker-invariant digests diverge across worker counts: {digests}"
        )


# ----------------------------------------------------------------------
# Leg 2: storage-fault accounting identity on every surface
# ----------------------------------------------------------------------


def _counter_totals(registry, name) -> int:
    return sum(
        entry["value"]
        for entry in registry.snapshot()["counters"]
        if entry["name"] == name
    )


def _assert_accounting_closes(registry, context) -> tuple[int, int, int]:
    injected = _counter_totals(registry, "faults.storage.injected")
    absorbed = _counter_totals(registry, "faults.storage.absorbed")
    surfaced = _counter_totals(registry, "faults.storage.surfaced")
    if injected == 0:
        raise DrillFailure(f"{context}: the storage drill injected nothing")
    if injected != absorbed + surfaced:
        raise DrillFailure(
            f"{context}: accounting identity broken: injected={injected} "
            f"!= absorbed={absorbed} + surfaced={surfaced}"
        )
    return injected, absorbed, surfaced


def _assert_no_temp_files(directory) -> None:
    leaked = list(Path(directory).rglob("*.tmp"))
    if leaked:
        raise DrillFailure(f"leaked temp files: {leaked}")


def _drill_storage(scale, seed) -> None:
    from repro.faults import FaultPlan
    from repro.monitor import EventLog, StatusBoard
    from repro.scan.campaign import ScanCampaign
    from repro.scan.ecs_scanner import EcsScanSettings
    from repro.telemetry import Telemetry
    from repro.worldgen import WorldConfig, build_world

    with tempfile.TemporaryDirectory(prefix="chaos-storage-") as tmp:
        # Full campaign: checkpoint + eventlog surfaces under fire.
        telemetry = Telemetry()
        plan = FaultPlan("hostile", seed=seed)
        world = build_world(WorldConfig(seed=seed, scale=scale))
        events = EventLog(
            Path(tmp) / "events.jsonl",
            clock=world.clock,
            gate=plan.storage,
            registry=telemetry.registry,
            status=StatusBoard(),
        )
        campaign = ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
            settings=EcsScanSettings(campaign_seed=seed, fault_plan=plan),
            telemetry=telemetry,
            checkpoint_dir=Path(tmp) / "checkpoints",
            events=events,
        )
        with campaign:
            months = campaign.run(world.scan_months())
        events.close()
        if len(months) != len(world.scan_months()):
            raise DrillFailure("full campaign lost months under storage faults")
        injected, absorbed, surfaced = _assert_accounting_closes(
            telemetry.registry, "full campaign"
        )
        _assert_no_temp_files(tmp)
        print(
            f"  full campaign: injected={injected} absorbed={absorbed} "
            f"surfaced={surfaced} (identity holds)"
        )

        # Delta campaign: the snapshot surface's retry/carry-forward path.
        telemetry = Telemetry()
        plan = FaultPlan("hostile", seed=seed)
        world = build_world(WorldConfig(seed=seed, scale=scale))
        campaign = ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
            settings=EcsScanSettings(campaign_seed=seed, fault_plan=plan),
            telemetry=telemetry,
            mode="delta",
            snapshot_dir=Path(tmp) / "snapshots",
        )
        with campaign:
            rounds = campaign.run_continuous(2022, 1, rounds=4)
        if len(rounds) != 4:
            raise DrillFailure("delta campaign lost rounds under storage faults")
        injected, absorbed, surfaced = _assert_accounting_closes(
            telemetry.registry, "delta campaign"
        )
        _assert_no_temp_files(tmp)
        print(
            f"  delta campaign: injected={injected} absorbed={absorbed} "
            f"surfaced={surfaced} (identity holds)"
        )


# ----------------------------------------------------------------------
# Leg 3: hung-shard detection and bit-identical recovery
# ----------------------------------------------------------------------


class _EventSink:
    def __init__(self):
        self.kinds = []

    def emit(self, event, **fields):
        self.kinds.append(event)


def _hostile_campaign(scale, seed, workers, shard_deadline, telemetry, events):
    from repro.faults import FaultPlan
    from repro.scan.campaign import ScanCampaign
    from repro.scan.ecs_scanner import EcsScanSettings
    from repro.worldgen import WorldConfig, build_world

    world = build_world(WorldConfig(seed=seed, scale=scale))
    campaign = ScanCampaign(
        server=world.route53,
        routing=world.routing,
        clock=world.clock,
        settings=EcsScanSettings(
            workers=workers,
            campaign_seed=seed,
            fault_plan=FaultPlan("hostile", seed=seed),
        ),
        telemetry=telemetry,
        events=events,
        shard_deadline=shard_deadline,
    )
    with campaign:
        campaign.run(world.scan_months()[:1])
    return campaign


def _drill_hang(scale, seed, workers, deadline) -> None:
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    events = _EventSink()
    started = time.monotonic()
    drilled = _hostile_campaign(
        scale, seed, workers, deadline, telemetry, events
    )
    elapsed = time.monotonic() - started
    if "shard_hung" not in events.kinds:
        raise DrillFailure(
            "watchdog never fired (is the hostile hang drill keyed to a "
            "shard this worker count plans?)"
        )
    hung = _counter_totals(telemetry.registry, "shards.hung")
    if hung < 1:
        raise DrillFailure("shards.hung counter did not advance")

    reference = _hostile_campaign(
        scale, seed, workers, None, Telemetry(), _EventSink()
    )
    month, ref_month = drilled.months[0], reference.months[0]
    for scan, ref_scan in (
        (month.default, ref_month.default),
        (month.fallback, ref_month.fallback),
    ):
        if scan is None or ref_scan is None:
            if scan is not ref_scan:
                raise DrillFailure("hang recovery dropped a scan entirely")
            continue
        if (
            scan.queries_sent != ref_scan.queries_sent
            or scan.responses != ref_scan.responses
            or scan.sparse_responses != ref_scan.sparse_responses
        ):
            raise DrillFailure(
                "hang recovery diverged from the undisturbed sharded run"
            )
    print(
        f"  hang detected ({hung} shard[s]), recovered bit-identically "
        f"in {elapsed:.1f}s wall"
    )


def _assert_no_leaked_segments() -> None:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return
    leaked = [p.name for p in shm.glob(f"repro-{os.getpid()}-*")]
    leaked += [p.name for p in shm.glob("repro-*-hb")
               if not Path(f"/proc/{p.name.split('-')[1]}").is_dir()]
    if leaked:
        raise DrillFailure(f"leaked shared-memory segments: {sorted(set(leaked))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts for the SIGTERM drain leg (default: 1 2 4)",
    )
    parser.add_argument(
        "--hang-workers",
        type=int,
        default=4,
        help="worker count for the hung-shard leg (default 4; the hostile "
        "profile hangs shard 2, which needs >= 3 planned shards)",
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=1.0,
        help="watchdog deadline for the hung-shard leg, seconds (default 1.0)",
    )
    parser.add_argument(
        "--skip",
        choices=["sigterm", "storage", "hang"],
        nargs="*",
        default=[],
        help="legs to skip (local iteration only; CI runs all three)",
    )
    args = parser.parse_args(argv)
    scale = scale_or_exit(0.05)
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2022"))
    print(f"chaos drill at scale={scale} seed={seed} ...")
    try:
        if "sigterm" not in args.skip:
            print("leg 1: SIGTERM drain + resume")
            _drill_sigterm(scale, seed, args.workers)
        if "storage" not in args.skip:
            print("leg 2: storage-fault accounting")
            _drill_storage(scale, seed)
        if "hang" not in args.skip:
            print("leg 3: hung-shard watchdog")
            _drill_hang(scale, seed, args.hang_workers, args.shard_deadline)
        _assert_no_leaked_segments()
    except DrillFailure as error:
        print(f"CHAOS DRILL FAILED: {error}", file=sys.stderr)
        return 1
    print("chaos drill passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

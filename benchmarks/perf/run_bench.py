"""Scan-engine performance harness.

Times every measurement stage of the pipeline — world generation, one
ECS scan, the full monthly campaign (sequential and, with ``--workers``
> 1, sharded), an Atlas measurement round, a relay egress-rotation scan
day, and the traceroute campaign — at a pinned seed and scale, writes
the numbers to ``BENCH_scan.json``, and (by default) fails when the
campaign wall time regresses more than the tolerance — or the campaign
throughput (``queries_per_s``) drops more than the tolerance below —
the checked-in ``baseline.json``.

The sharded campaign runs on a fresh same-seed world and is *verified*
against the sequential run before its timing is recorded: any
divergence in query counts, ingress sets, per-AS attribution, or server
stats fails the harness with exit 1.

Telemetry legs: the sharded campaign and extra sequential campaigns
run with live telemetry.  The harness gates (always, even with
``--no-check``) on ``deterministic_totals`` matching between the two —
the same invariant the sharded-telemetry tests and the CI cross-leg
comparison enforce — and on the telemetry-on sequential campaign
staying within 3 % (plus a 0.1 s noise floor) of the telemetry-off one
(check mode only).  A faults-off leg runs the sequential campaign with
the ``none`` fault profile attached: it must reproduce the plain
campaign exactly, and (check mode) stay within 2 % — the robustness
hooks may not tax the fault-free path.  A monitoring leg attaches the
live observability plane (StatusBoard + flushed EventLog + HTTP
endpoint thread) the same way, gated at 2 %: monitoring may observe,
never perturb — the monitored campaign must also reproduce the plain
one exactly.  All overhead legs run as
back-to-back (hooked, plain) pairs in process-CPU seconds and gate on
the best per-pair delta: wall-clock steal on shared machines dwarfs
the single-digit budgets, and even CPU-time noise is time-correlated
at minute scale, so only a paired delta reliably isolates what the
hooks themselves add.  Negative best-pair deltas are clamped at zero —
noise, not a speedup.  A delta-scan leg seeds the incremental engine,
measures the steady-state round cost as a fraction of a full rescan
(gated at 30 %), and drills one deployment change of each kind through
it (every change must surface within 3 rounds, and the accumulated
state must match a fresh full rescan digest-for-digest).  The reported ``campaign_s`` (and
with it ``queries_per_s``) is the best-of-N plain wall time — every
plain run is bit-identical work, so the minimum is the least-noisy
measurement of the same computation.  ``--telemetry-out PATH`` saves
a snapshot: the
sharded campaign's when that leg ran, else the sequential one's (so the
CI workers=1 and workers=4 artifacts compare across worker counts).

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # check
    PYTHONPATH=src python benchmarks/perf/run_bench.py --no-check # measure
    PYTHONPATH=src python benchmarks/perf/run_bench.py --update-baseline

Environment:

``REPRO_BENCH_SCALE``
    World scale (default 0.2, the acceptance scale).  CI smoke runs use
    0.05.
``REPRO_BENCH_SEED``
    World seed (default 2022).
``REPRO_BENCH_WORKERS``
    Shard worker count for the sharded campaign leg (default 4; set to
    1 to skip the sharded leg, e.g. in the CI workers=1 matrix cell).

Baseline refresh: run with ``--update-baseline`` on a quiet machine and
commit the new ``baseline.json`` together with the change that moved the
numbers.  The baseline records the *same scale* the check runs at; a
check against a baseline from a different scale is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_env import scale_or_exit

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"
OUTPUT_PATH = Path("BENCH_scan.json")


def current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def _campaign_scans(months):
    for month in months:
        yield month.default
        if month.fallback is not None:
            yield month.fallback


def _verify_sharded(sequential_months, sharded_months) -> list[str]:
    """Divergences between a sequential and a sharded campaign run."""
    problems = []
    seq = list(_campaign_scans(sequential_months))
    sharded = list(_campaign_scans(sharded_months))
    if len(seq) != len(sharded):
        return [f"scan count differs: {len(seq)} vs {len(sharded)}"]
    for a, b in zip(seq, sharded):
        tag = f"{a.domain} @{a.started_at:.0f}"
        if a.queries_sent != b.queries_sent:
            problems.append(f"{tag}: queries {a.queries_sent} vs {b.queries_sent}")
        if a.finished_at != b.finished_at:
            problems.append(f"{tag}: finish {a.finished_at} vs {b.finished_at}")
        if a.addresses() != b.addresses():
            problems.append(f"{tag}: ingress sets differ")
        if a.addresses_by_asn() != b.addresses_by_asn():
            problems.append(f"{tag}: per-AS attribution differs")
        if a.slash24s_by_asn() != b.slash24s_by_asn():
            problems.append(f"{tag}: per-AS subnet counts differ")
    return problems


def _delta_leg(scale: float, seed: int, workers: int) -> dict:
    """The delta-scan engine leg: seed, steady rounds, a churn drill.

    Measures the steady-state round cost as a fraction of a full rescan
    and how many rounds the engine needs to surface one injected change
    of every churn kind.  Two correctness invariants are enforced here
    rather than gated (they are exact, not budgets): every injected
    change must be detected within the refresh horizon, and the
    delta-accumulated state must be digest-identical to a fresh full
    rescan of the churned world.  Violations raise
    :class:`DeltaDivergence`.
    """
    from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
    from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
    from repro.scan.incremental import DeltaScanEngine, result_digest
    from repro.scan.sharding import ShardedCampaignExecutor
    from repro.worldgen import WorldConfig, build_world
    from repro.worldgen.deployment import DeploymentChurn, scan_time

    world = build_world(WorldConfig(seed=seed, scale=scale))
    world.clock.advance_to(scan_time(2022, 1))
    settings = EcsScanSettings(workers=workers, campaign_seed=seed)
    scanner = EcsScanner(world.route53, world.routing, world.clock, settings)
    executor = scanner
    if workers > 1 and ShardedCampaignExecutor.supported():
        executor = ShardedCampaignExecutor(scanner, workers)
    problems: list[str] = []
    try:
        engine = DeltaScanEngine(executor, refresh_rounds=3)
        t0 = time.perf_counter()
        engine.ensure_seeded()
        seed_s = time.perf_counter() - t0

        steady_frac = 0.0
        round_s = None
        for _ in range(engine.refresh_rounds):
            t0 = time.perf_counter()
            rnd = engine.run_round()
            elapsed = time.perf_counter() - t0
            if round_s is None or elapsed < round_s:
                round_s = elapsed
            steady_frac = max(steady_frac, rnd.queries_frac)

        churn = DeploymentChurn(world.assignment, world.ingress_v4, world.clock.now)
        records = churn.inject_standard(seed=seed)
        detected: dict[int, int] = {}
        for attempt in range(engine.refresh_rounds):
            rnd = engine.run_round()
            for event in rnd.events:
                detected.setdefault(event.value, attempt + 1)
        detection_rounds = 0
        for record in records:
            rounds_needed = detected.get(record.block_value)
            if rounds_needed is None:
                problems.append(
                    f"{record.kind} at {record.prefix} undetected after "
                    f"{engine.refresh_rounds} delta rounds"
                )
            else:
                detection_rounds = max(detection_rounds, rounds_needed)

        # The rescan a round replaces: full scans of both domains, timed
        # best-of-N like the rounds.  The first one also checks the
        # accumulated state against the fresh answers.
        rescan_s = None
        for repeat in range(engine.refresh_rounds):
            elapsed = 0.0
            for domain in (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK):
                t0 = time.perf_counter()
                fresh = executor.scan(domain)
                elapsed += time.perf_counter() - t0
                if repeat == 0 and result_digest(
                    engine.accumulated(domain)
                ) != result_digest(fresh):
                    problems.append(
                        f"{domain}: delta-accumulated state diverges from a "
                        f"fresh full rescan"
                    )
            if rescan_s is None or elapsed < rescan_s:
                rescan_s = elapsed
    finally:
        if executor is not scanner:
            executor.close()
    if problems:
        raise DeltaDivergence(problems)
    return {
        "delta_seed_s": round(seed_s, 3),
        "delta_round_s": round(round_s, 3),
        "delta_rescan_s": round(rescan_s, 3),
        "delta_round_over_rescan": round(round_s / rescan_s, 3),
        "delta_queries_frac": round(steady_frac, 4),
        "detection_rounds": detection_rounds,
    }


def run_bench(scale: float, seed: int, workers: int) -> dict:
    from repro.scan.campaign import ScanCampaign
    from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
    from repro.scan.sharding import ShardedCampaignExecutor
    from repro.scan.atlas_scanner import AtlasIngressScanner
    from repro.scan.relay_scanner import RelayScanConfig, RelayScanner
    from repro.scan.traceroute_campaign import (
        LabelledTarget,
        run_traceroute_campaign,
    )
    from repro.relay.service import RELAY_DOMAIN_QUIC
    from repro.telemetry import NULL_TELEMETRY, Telemetry, deterministic_totals
    from repro.worldgen import WorldConfig, build_world

    t0 = time.perf_counter()
    world = build_world(WorldConfig(seed=seed, scale=scale))
    worldgen_s = time.perf_counter() - t0

    # One QUIC scan at the April vantage, on its own world so the
    # campaign below starts from a cold server.
    scan_world = build_world(WorldConfig(seed=seed, scale=scale))
    scan_world.clock.advance_to(scan_world.deployment.april_scan_start)
    scanner = EcsScanner(
        scan_world.route53, scan_world.routing, scan_world.clock
    )
    t0 = time.perf_counter()
    scan = scanner.scan(RELAY_DOMAIN_QUIC)
    scan_s = time.perf_counter() - t0

    # The other measurement legs, on the April-vantage world.
    atlas = AtlasIngressScanner(
        scan_world.atlas, scan_world.routing, {714, 36183}
    )
    t0 = time.perf_counter()
    atlas.measure_ingress_v4(RELAY_DOMAIN_QUIC)
    atlas_s = time.perf_counter() - t0

    client = scan_world.make_vantage_client()
    relay_scanner = RelayScanner(
        client, scan_world.web_server, scan_world.echo_server, scan_world.clock
    )
    t0 = time.perf_counter()
    relay_scanner.run(RelayScanConfig(300.0, 21_600.0), "bench")
    relay_scan_s = time.perf_counter() - t0

    targets = [
        LabelledTarget(address, "ingress", asn)
        for asn, addresses in sorted(scan.addresses_by_asn().items())
        for address in sorted(addresses)
    ]
    t0 = time.perf_counter()
    run_traceroute_campaign(
        scan_world.topology, scan_world.vantage_router_id, targets
    )
    traceroute_s = time.perf_counter() - t0

    traceroute_targets = len(targets)
    # Drop the scan world before the campaign legs: the sharded leg
    # forks the interpreter, and every live world in the parent inflates
    # the copy-on-write cost of the workers.
    del scan_world, scanner, scan, atlas, client, relay_scanner, targets

    # Sharded leg first, while the parent heap holds only the two
    # campaign worlds (its fork cost depends on live parent state; the
    # sequential leg's timing does not).
    sharded_s = None
    sharded_months = None
    sharded_snapshot = None
    if workers > 1 and ShardedCampaignExecutor.supported():
        sharded_telemetry = Telemetry()
        sharded_world = build_world(
            WorldConfig(seed=seed, scale=scale), telemetry=sharded_telemetry
        )
        with ScanCampaign(
            server=sharded_world.route53,
            routing=sharded_world.routing,
            clock=sharded_world.clock,
            settings=EcsScanSettings(workers=workers, campaign_seed=seed),
            telemetry=sharded_telemetry,
        ) as sharded_campaign:
            t0 = time.perf_counter()
            sharded_months = sharded_campaign.run(sharded_world.scan_months())
            sharded_s = time.perf_counter() - t0
        sharded_snapshot = sharded_telemetry.snapshot()
        del sharded_world, sharded_campaign, sharded_telemetry

    campaign = ScanCampaign(
        server=world.route53,
        routing=world.routing,
        clock=world.clock,
        settings=EcsScanSettings(),
    )
    t0 = time.perf_counter()
    c0 = time.process_time()
    months = campaign.run(world.scan_months())
    campaign_cpu_s = time.process_time() - c0
    campaign_s = time.perf_counter() - t0

    campaign_queries = sum(
        scan_result.queries_sent for scan_result in _campaign_scans(months)
    )

    # Overhead legs (telemetry-on, faults-off) are measured in
    # **process-CPU seconds**: on shared machines, wall-clock steal
    # dwarfs the 2-3 % budgets (identical campaigns have been observed
    # to differ 3x run to run), while CPU time counts only the
    # instructions this process executed — exactly what a hook's
    # overhead adds.  Each hooked run is paired with an immediate plain
    # re-run and the gate takes the best per-pair delta (see the pairing
    # comment below).  The plain re-runs also tighten the shared
    # campaign base seeded by the headline run above.
    from repro.faults import FaultPlan

    def _campaign_leg(fault_plan=None, with_telemetry=False, with_monitor=False):
        telemetry = Telemetry() if with_telemetry else None
        leg_world = build_world(
            WorldConfig(seed=seed, scale=scale), telemetry=telemetry
        )
        status = events = server = event_dir = None
        if with_monitor:
            from repro.monitor import EventLog, MonitorServer, StatusBoard

            status = StatusBoard()
            event_dir = tempfile.TemporaryDirectory(prefix="repro-monitor-")
            events = EventLog(
                Path(event_dir.name) / "events.jsonl", clock=leg_world.clock
            )
            server = MonitorServer(
                status, telemetry if telemetry is not None else NULL_TELEMETRY
            ).start()
        leg_campaign = ScanCampaign(
            server=leg_world.route53,
            routing=leg_world.routing,
            clock=leg_world.clock,
            settings=EcsScanSettings(fault_plan=fault_plan),
            telemetry=telemetry if telemetry is not None else NULL_TELEMETRY,
            status=status,
            events=events,
        )
        try:
            t0 = time.perf_counter()
            c0 = time.process_time()
            leg_months = leg_campaign.run(leg_world.scan_months())
            cpu = time.process_time() - c0
            elapsed = time.perf_counter() - t0
        finally:
            if server is not None:
                server.stop()
            if events is not None:
                events.close()
            if event_dir is not None:
                event_dir.cleanup()
        snapshot = telemetry.snapshot() if telemetry is not None else None
        return elapsed, cpu, leg_months, snapshot

    OVERHEAD_RUNS = 3
    campaign_base_s = campaign_s
    campaign_base_cpu_s = campaign_cpu_s

    # Overhead legs run as back-to-back (hooked, plain) *pairs* and gate
    # on the minimum per-pair CPU delta.  CPU-time noise on shared boxes
    # is time-correlated at minute scale (a slow window inflates every
    # sample in it by 10-20 %), so comparing independent minima can
    # fabricate large overheads when one side's runs all land in a slow
    # window; members of one pair see the same window, so their delta
    # cancels the drift.
    campaign_telemetry_cpu_s = None
    telemetry_delta_cpu_s = None
    seq_snapshot = None
    for attempt in range(OVERHEAD_RUNS):
        _, cpu, leg_months, snapshot = _campaign_leg(with_telemetry=True)
        if campaign_telemetry_cpu_s is None or cpu < campaign_telemetry_cpu_s:
            campaign_telemetry_cpu_s = cpu
        if attempt == 0:
            problems = _verify_sharded(months, leg_months)
            if problems:
                raise ShardDivergence(
                    [f"telemetry-on sequential: {p}" for p in problems]
                )
            seq_snapshot = snapshot
        del leg_months
        elapsed, plain_cpu, leg_months, _ = _campaign_leg()
        delta = cpu - plain_cpu
        if telemetry_delta_cpu_s is None or delta < telemetry_delta_cpu_s:
            telemetry_delta_cpu_s = delta
        if elapsed < campaign_base_s:
            campaign_base_s = elapsed
        if plain_cpu < campaign_base_cpu_s:
            campaign_base_cpu_s = plain_cpu
        del leg_months

    # Faults-off leg: an attached "none" profile exercises every fault
    # hook (gate checks in the scan kernels, the retry plumbing) without
    # injecting anything.  It must reproduce the plain campaign exactly,
    # and its overhead is gated like telemetry's — robustness hooks may
    # not tax the fault-free path.
    campaign_faults_off_cpu_s = None
    faults_off_delta_cpu_s = None
    for attempt in range(OVERHEAD_RUNS):
        _, cpu, leg_months, _ = _campaign_leg(
            fault_plan=FaultPlan("none", seed=seed)
        )
        if campaign_faults_off_cpu_s is None or cpu < campaign_faults_off_cpu_s:
            campaign_faults_off_cpu_s = cpu
        if attempt == 0:
            problems = _verify_sharded(months, leg_months)
            if problems:
                raise ShardDivergence(
                    [f"faults-off (none profile): {p}" for p in problems]
                )
        del leg_months
        elapsed, plain_cpu, leg_months, _ = _campaign_leg()
        delta = cpu - plain_cpu
        if faults_off_delta_cpu_s is None or delta < faults_off_delta_cpu_s:
            faults_off_delta_cpu_s = delta
        if elapsed < campaign_base_s:
            campaign_base_s = elapsed
        if plain_cpu < campaign_base_cpu_s:
            campaign_base_cpu_s = plain_cpu
        del leg_months

    # Monitoring leg: the live plane (StatusBoard publishes, a flushed
    # EventLog, and an idle HTTP endpoint on its own thread) attached to
    # an otherwise plain campaign.  It must reproduce the plain campaign
    # exactly — monitoring may observe, never perturb — and its overhead
    # is gated at 2 % like the fault hooks': the board is only touched
    # once per scan/month, so the budget is generous.
    campaign_monitor_cpu_s = None
    monitor_delta_cpu_s = None
    for attempt in range(OVERHEAD_RUNS):
        _, cpu, leg_months, _ = _campaign_leg(with_monitor=True)
        if campaign_monitor_cpu_s is None or cpu < campaign_monitor_cpu_s:
            campaign_monitor_cpu_s = cpu
        if attempt == 0:
            problems = _verify_sharded(months, leg_months)
            if problems:
                raise ShardDivergence(
                    [f"monitoring-on sequential: {p}" for p in problems]
                )
        del leg_months
        elapsed, plain_cpu, leg_months, _ = _campaign_leg()
        delta = cpu - plain_cpu
        if monitor_delta_cpu_s is None or delta < monitor_delta_cpu_s:
            monitor_delta_cpu_s = delta
        if elapsed < campaign_base_s:
            campaign_base_s = elapsed
        if plain_cpu < campaign_base_cpu_s:
            campaign_base_cpu_s = plain_cpu
        del leg_months

    # Even the best-of-pairs delta can come out slightly negative when
    # the hooked member of every pair got the quieter CPU window; a
    # negative overhead is measurement noise, not a speedup, so clamp
    # at zero rather than publishing a nonsensical negative cost.
    telemetry_delta_cpu_s = max(telemetry_delta_cpu_s, 0.0)
    faults_off_delta_cpu_s = max(faults_off_delta_cpu_s, 0.0)
    monitor_delta_cpu_s = max(monitor_delta_cpu_s, 0.0)

    delta_fields = _delta_leg(scale, seed, workers)

    result = {
        "commit": current_commit(),
        "scale": scale,
        "seed": seed,
        "workers": workers,
        "worldgen_s": round(worldgen_s, 3),
        "scan_s": round(scan_s, 3),
        "atlas_s": round(atlas_s, 3),
        "relay_scan_s": round(relay_scan_s, 3),
        "traceroute_s": round(traceroute_s, 3),
        "traceroute_targets": traceroute_targets,
        "campaign_s": round(campaign_base_s, 3),
        "queries_per_s": round(campaign_queries / campaign_base_s, 1),
        "campaign_cpu_s": round(campaign_base_cpu_s, 3),
        "campaign_telemetry_cpu_s": round(campaign_telemetry_cpu_s, 3),
        "telemetry_overhead_cpu_s": round(telemetry_delta_cpu_s, 3),
        "telemetry_overhead": round(
            telemetry_delta_cpu_s / campaign_base_cpu_s, 4
        ),
        "campaign_faults_off_cpu_s": round(campaign_faults_off_cpu_s, 3),
        "fault_hook_overhead_cpu_s": round(faults_off_delta_cpu_s, 3),
        "fault_hook_overhead": round(
            faults_off_delta_cpu_s / campaign_base_cpu_s, 4
        ),
        "campaign_monitor_cpu_s": round(campaign_monitor_cpu_s, 3),
        "monitor_overhead_cpu_s": round(monitor_delta_cpu_s, 3),
        "monitor_overhead": round(
            monitor_delta_cpu_s / campaign_base_cpu_s, 4
        ),
        **delta_fields,
        "telemetry": {"metrics": seq_snapshot["metrics"]},
    }
    snapshot_out = seq_snapshot

    if sharded_months is not None:
        problems = _verify_sharded(months, sharded_months)
        if problems:
            raise ShardDivergence(problems)
        result["campaign_sharded_s"] = round(sharded_s, 3)
        result["sharded_speedup"] = round(campaign_base_s / sharded_s, 2)
        # The merged shard totals must be bit-identical to the
        # sequential run's — the same invariant the CI cross-leg
        # comparison checks between the workers=1 and workers=4 jobs.
        seq_totals = deterministic_totals(seq_snapshot)
        sharded_totals = deterministic_totals(sharded_snapshot)
        diffs = [
            f"{key}: sequential {seq_totals.get(key)} vs "
            f"sharded {sharded_totals.get(key)}"
            for key in sorted(set(seq_totals) | set(sharded_totals))
            if seq_totals.get(key) != sharded_totals.get(key)
        ]
        if diffs:
            raise ShardDivergence([f"telemetry totals: {d}" for d in diffs])
        result["telemetry_deterministic_keys"] = len(seq_totals)
        snapshot_out = sharded_snapshot
    return result, snapshot_out


class ShardDivergence(Exception):
    """The sharded campaign did not reproduce the sequential outputs."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


class DeltaDivergence(Exception):
    """The delta-scan leg missed a change or diverged from a full rescan."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


#: Telemetry-on vs telemetry-off campaign budget: 3 % of the campaign,
#: with an absolute noise floor for very fast (smoke-scale) runs.
TELEMETRY_OVERHEAD_FRACTION = 0.03
TELEMETRY_OVERHEAD_FLOOR_S = 0.1

#: Attached-but-inactive fault plan ("none" profile) budget: 2 % of the
#: campaign, same absolute noise floor.
FAULT_HOOK_OVERHEAD_FRACTION = 0.02
FAULT_HOOK_OVERHEAD_FLOOR_S = 0.1

#: Live monitoring plane (StatusBoard + EventLog + HTTP endpoint)
#: budget: 2 % of the campaign, same absolute noise floor.
MONITOR_OVERHEAD_FRACTION = 0.02
MONITOR_OVERHEAD_FLOOR_S = 0.1

#: A steady-state delta round may cost at most this fraction of a full
#: rescan's queries.
DELTA_QUERIES_FRAC_LIMIT = 0.30

#: Every injected deployment change must surface within this many delta
#: rounds (the refresh-wheel horizon).
DELTA_DETECTION_ROUNDS_LIMIT = 3


def check_delta(result: dict) -> int:
    frac = result["delta_queries_frac"]
    rounds = result["detection_rounds"]
    print(
        f"delta scan: steady round {frac:.1%} of a full rescan "
        f"(limit {DELTA_QUERIES_FRAC_LIMIT:.0%}), changes detected within "
        f"{rounds} rounds (limit {DELTA_DETECTION_ROUNDS_LIMIT})"
    )
    if frac > DELTA_QUERIES_FRAC_LIMIT:
        print(
            f"FAIL: steady-state delta round exceeded "
            f"{DELTA_QUERIES_FRAC_LIMIT:.0%} of a full rescan"
        )
        return 1
    if rounds > DELTA_DETECTION_ROUNDS_LIMIT:
        print(
            f"FAIL: change detection took more than "
            f"{DELTA_DETECTION_ROUNDS_LIMIT} delta rounds"
        )
        return 1
    print("OK: delta scan within budget")
    return 0


def check_fault_hook_overhead(result: dict) -> int:
    off = result["campaign_cpu_s"]
    delta = result["fault_hook_overhead_cpu_s"]
    budget = max(FAULT_HOOK_OVERHEAD_FRACTION * off, FAULT_HOOK_OVERHEAD_FLOOR_S)
    print(
        f"fault-hook overhead: {delta:+.3f} CPU s (best pair, "
        f"{result['fault_hook_overhead']:+.2%}, budget {budget:.3f}s)"
    )
    if delta > budget:
        print(
            f"FAIL: faults-off campaign exceeded the "
            f"{FAULT_HOOK_OVERHEAD_FRACTION:.0%} fault-hook overhead budget"
        )
        return 1
    print("OK: fault-hook overhead within budget")
    return 0


def check_monitor_overhead(result: dict) -> int:
    off = result["campaign_cpu_s"]
    delta = result["monitor_overhead_cpu_s"]
    budget = max(MONITOR_OVERHEAD_FRACTION * off, MONITOR_OVERHEAD_FLOOR_S)
    print(
        f"monitoring overhead: {delta:+.3f} CPU s (best pair, "
        f"{result['monitor_overhead']:+.2%}, budget {budget:.3f}s)"
    )
    if delta > budget:
        print(
            f"FAIL: monitoring-on campaign exceeded the "
            f"{MONITOR_OVERHEAD_FRACTION:.0%} overhead budget"
        )
        return 1
    print("OK: monitoring overhead within budget")
    return 0


def check_telemetry_overhead(result: dict) -> int:
    off = result["campaign_cpu_s"]
    delta = result["telemetry_overhead_cpu_s"]
    budget = max(TELEMETRY_OVERHEAD_FRACTION * off, TELEMETRY_OVERHEAD_FLOOR_S)
    print(
        f"telemetry overhead: {delta:+.3f} CPU s (best pair, "
        f"{result['telemetry_overhead']:+.2%}, budget {budget:.3f}s)"
    )
    if delta > budget:
        print(
            f"FAIL: telemetry-on campaign exceeded the "
            f"{TELEMETRY_OVERHEAD_FRACTION:.0%} overhead budget"
        )
        return 1
    print("OK: telemetry overhead within budget")
    return 0


def check_regression(result: dict, tolerance: float) -> int:
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run --update-baseline first")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline["scale"] != result["scale"]:
        print(
            f"baseline scale {baseline['scale']} != run scale {result['scale']}; "
            "refusing to compare (set REPRO_BENCH_SCALE or refresh the baseline)"
        )
        return 1
    limit = baseline["campaign_s"] * (1.0 + tolerance)
    print(
        f"campaign: {result['campaign_s']:.2f}s "
        f"(baseline {baseline['campaign_s']:.2f}s, limit {limit:.2f}s)"
    )
    if result["campaign_s"] > limit:
        print(
            f"FAIL: campaign regressed >{tolerance:.0%} vs baseline "
            f"commit {baseline.get('commit', '?')}"
        )
        return 1
    baseline_qps = baseline.get("queries_per_s")
    if baseline_qps:
        floor = baseline_qps * (1.0 - tolerance)
        print(
            f"throughput: {result['queries_per_s']:,.0f} queries/s "
            f"(baseline {baseline_qps:,.0f}, floor {floor:,.0f})"
        )
        if result["queries_per_s"] < floor:
            print(
                f"FAIL: queries_per_s regressed >{tolerance:.0%} vs baseline "
                f"commit {baseline.get('commit', '?')}"
            )
            return 1
    print("OK: within tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        dest="check",
        action="store_true",
        default=True,
        help="fail on regression vs baseline.json (default)",
    )
    parser.add_argument(
        "--no-check",
        dest="check",
        action="store_false",
        help="measure and write BENCH_scan.json only",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's numbers to baseline.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional campaign_s regression (default 0.2)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=OUTPUT_PATH,
        help=f"result path (default {OUTPUT_PATH})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_WORKERS", "4")),
        help="worker count for the sharded campaign leg; 1 skips it "
        "(default $REPRO_BENCH_WORKERS or 4)",
    )
    parser.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the campaign telemetry snapshot here (the sharded "
        "campaign's when that leg ran, else the sequential one's)",
    )
    args = parser.parse_args(argv)

    if args.telemetry_out is not None:
        # Fail now, not after minutes of benchmarking: the snapshot is
        # written at the very end of the run.
        parent = args.telemetry_out.resolve().parent
        if not parent.is_dir():
            print(
                f"error: --telemetry-out directory {parent} does not exist",
                file=sys.stderr,
            )
            return 2
        if not os.access(parent, os.W_OK):
            print(
                f"error: --telemetry-out directory {parent} is not writable",
                file=sys.stderr,
            )
            return 2

    scale = scale_or_exit(0.2)
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2022"))
    print(
        f"benchmarking at scale={scale} seed={seed} workers={args.workers} ..."
    )
    try:
        result, snapshot = run_bench(scale, seed, args.workers)
    except ShardDivergence as divergence:
        print("FAIL: sharded campaign diverged from sequential:")
        for problem in divergence.problems:
            print(f"  {problem}")
        return 1
    except DeltaDivergence as divergence:
        print("FAIL: delta-scan leg violated a correctness invariant:")
        for problem in divergence.problems:
            print(f"  {problem}")
        return 1
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    summary = {k: v for k, v in result.items() if k != "telemetry"}
    print(json.dumps(summary, indent=2))
    print(f"wrote {args.output}")
    if args.telemetry_out is not None:
        args.telemetry_out.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.telemetry_out}")

    if args.update_baseline:
        # The baseline pins timings, not the (bulky) metric values.
        baseline = {k: v for k, v in result.items() if k != "telemetry"}
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if args.check:
        status = check_regression(result, args.tolerance)
        return (
            status
            or check_telemetry_overhead(result)
            or check_fault_hook_overhead(result)
            or check_monitor_overhead(result)
            or check_delta(result)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads, driven through the public API.

Every workload is closed loop: one client process makes each call only
after the previous one returned.  A *unit* is one pass of a workload on
a freshly built world: the world build is timed as set-up, the rest as
the workload.  The runner (``run.py``) repeats units until the run's
time is up and reports medians over them.

* ``campaign`` — the paper's Jan–Apr calendar (7 scans), sequential,
  no faults: the batch-replay kernel and replay-program compile.
* ``campaign_sharded`` — the same calendar with ``workers=2``: fork,
  shared-memory IPC and merge in ``scan.sharding``.
* ``monitor`` — continuous delta monitoring as the daemon runs it:
  snapshot dir, event log, the ``lossy`` fault profile, one steady
  wheel cycle, then ``DeploymentChurn.inject_standard`` and a second
  cycle in which every change must surface.
* ``paper`` — ``examples/reproduce_paper.py`` from a ready world to the
  written report (campaign, Atlas, relay scans, analysis tables).

Each unit also checks its outputs; a failed check is a ``problem``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import WorldConfig, build_world
from repro.faults import FaultPlan
from repro.monitor import EventLog
from repro.scan import EcsScanner, EcsScanSettings, RelayScanner, ScanCampaign
from repro.scan.incremental import result_digest
from repro.telemetry import NULL_TELEMETRY, NullTracer, Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.worldgen.deployment import DeploymentChurn

from perfbench import hostspeed
from perfbench.layers import FUNCTION_TARGETS

ROOT = Path(__file__).resolve().parent.parent
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
EXAMPLE_PATH = ROOT / "examples" / "reproduce_paper.py"

WORKLOADS = ("campaign", "campaign_sharded", "monitor", "paper")
#: World scale per workload.  The monitor's delta rounds cost about the
#: same wall time at scale 0.05 as at 0.1, so the smaller world buys the
#: 30+ rounds a tail percentile needs within one run.
SCALES = {"campaign": 0.2, "campaign_sharded": 0.2, "monitor": 0.05, "paper": 0.2}
#: The pinned worlds.  A run's units take turns over all four, starting
#: at ``WORLD_SEEDS[seed % 4]`` (see ``world_rotation``).
WORLD_SEEDS = (2022, 2023, 2024, 2025)
#: The small world the benchmark's own tests run on (also pinned).
TEST_SCALE = 0.02
TEST_WORLD = 2022
SHARD_WORKERS = 2
MONITOR_FAULT_PROFILE = "lossy"
#: Rounds per refresh-wheel cycle: the secondary domain's period
#: (``refresh_rounds * secondary_stretch``), so every cycle covers the
#: same mix of wheel slots.
MONITOR_REFRESH_ROUNDS = 3
MONITOR_CYCLE = 6
#: The month whose scan slot the monitor starts from.
MONITOR_MONTH = (2022, 1)


def world_rotation(seed: int) -> tuple[int, ...]:
    """The order in which a run's units visit the pinned worlds.

    Every run covers every world, so runs with different seeds measure
    the same mix of inputs and differ in order, churn sets and timing;
    a per-world count such as the monitor's detection latency then
    reads the same in every run.
    """
    n = len(WORLD_SEEDS)
    return tuple(WORLD_SEEDS[(seed + i) % n] for i in range(n))


def short_hash(payload) -> str:
    """A 16-hex-digit content hash of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scan_digest(result) -> str:
    """The pinned form of ``result_digest`` for one scan."""
    return short_hash(result_digest(result))


def report_rows(report: str) -> list[str]:
    """The paper report's table rows (header and rule included)."""
    return [line for line in report.splitlines() if line.startswith("|")]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def pin_key(scale: float, world_seed: int) -> str:
    return f"{scale}:{world_seed}"


@dataclass
class Unit:
    """What one unit measured and checked."""

    setup_s: float = 0.0
    report_s: float = 0.0
    seed_s: float = 0.0
    rounds_s: list[float] = field(default_factory=list)
    queries: int = 0
    scan_wall_s: float = 0.0
    sim_scan_h: float = 0.0
    round_fracs: list[float] = field(default_factory=list)
    detection_rounds: int = 0
    attempted: int = 0
    failed: int = 0
    worker_peak_rss_mb: float = 0.0
    budget_deferred: int = 0
    change_events: int = 0
    problems: list[str] = field(default_factory=list)
    #: The world the unit ran on.
    world_seed: int = 0
    #: Deterministic facts about the input, for the run record.
    facts: dict = field(default_factory=dict)
    #: The unit's metrics registry (None when the unit ran without one).
    registry: MetricsRegistry | None = None
    #: Cache and server counters read off the world after the unit.
    world_stats: dict = field(default_factory=dict)
    #: Host-speed samples (``hostspeed.sample``) taken before, between
    #: and after the unit's timed parts.
    host_s: list[float] = field(default_factory=list)
    #: Wall time spent taking those samples; timed windows that hold a
    #: sample leave it out.
    sampling_s: float = 0.0
    #: How many times slower than nominal the host ran around each timed
    #: quantity (``setup_s``, ``seed_s``, ``report_s``, ``scan_wall_s``)
    #: and around each round.
    factors: dict = field(default_factory=dict)
    round_factors: list[float] = field(default_factory=list)

    def sample_host(self) -> None:
        t0 = time.perf_counter()
        self.host_s.append(hostspeed.sample())
        self.sampling_s += time.perf_counter() - t0

    def mark(self) -> int:
        """The index of the latest host sample, taken before an interval."""
        return len(self.host_s) - 1

    def factor_since(self, mark: int) -> float:
        """The host's slowdown over the samples from ``mark`` on (those
        just before, inside and just after an interval)."""
        return statistics.fmean(self.host_s[mark:]) / hostspeed.NOMINAL_S


@dataclass
class Context:
    """Per-run settings shared by every unit."""

    workload: str
    #: The current unit's world (the first of ``worlds`` before any ran).
    world_seed: int
    workdir: Path
    #: The traced phase's tracer (None for untraced units).
    tracer: object | None = None
    pins: dict | None = None
    #: World scale; defaults to the workload's entry in ``SCALES``.
    scale: float | None = None
    #: State shared by the run's units (the first unit's fingerprints).
    seen: dict = field(default_factory=dict)
    #: The worlds the run's units take turns over; just ``world_seed``
    #: when not given.
    worlds: tuple[int, ...] = ()
    #: The benchmark seed (picks the monitor's churn sets).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale is None:
            self.scale = SCALES[self.workload]
        if not self.worlds:
            self.worlds = (self.world_seed,)

    def span(self, name: str):
        """A span of the traced phase's tracer (a no-op when untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def sample_host(self, unit: Unit) -> None:
        """A host-speed sample inside a unit's timed window (none in the
        traced phase, whose spans would count it)."""
        if self.tracer is None:
            unit.sample_host()

    def telemetry(self) -> Telemetry:
        """A fresh live telemetry for a traced unit, else the null one."""
        if self.tracer is None:
            return NULL_TELEMETRY
        return Telemetry(MetricsRegistry(), self.tracer)

    def expected(self, name: str):
        key = pin_key(self.scale, self.world_seed)
        pins = (self.pins or {}).get(key)
        return None if pins is None else pins.get(name)


def _routed_slash24s(world) -> int:
    spans, _ = EcsScanner(world.route53, world.routing, world.clock).routed_ranges()
    return sum((end - start + 1) >> 8 for start, end in spans)


def _world_stats(world) -> dict:
    cache = world.route53.answer_cache.stats
    return {
        "answer_plan_hits": cache.hits,
        "answer_plan_misses": cache.misses,
        "answer_plan_invalidations": cache.invalidations,
        "server_queries": world.route53.stats.queries,
    }


def _scan_fingerprint(scan) -> list:
    """A cheap stand-in for ``result_digest`` when comparing two runs of
    the same input: counts and simulated times, no per-row work."""
    return [
        scan.domain,
        scan.queries_sent,
        scan.response_count(),
        scan.sparse_answered,
        scan.retries,
        len(scan.gave_up),
        scan.finished_at,
    ]


def _check_digests(unit: Unit, ctx: Context, scans) -> None:
    """The first unit's scans must match the pinned ``result_digest``
    values; every later unit of the run must reproduce the first."""
    fingerprints = [_scan_fingerprint(scan) for scan in scans]
    seen = ctx.seen.setdefault("scan_fingerprints", {})
    first = seen.get(ctx.world_seed)
    if first is not None:
        if fingerprints != first:
            unit.problems.append(
                f"campaign scans differ from the run's first unit on world "
                f"{ctx.world_seed}"
            )
        return
    seen[ctx.world_seed] = fingerprints
    digests = [scan_digest(scan) for scan in scans]
    unit.facts["scan_digests"] = digests
    expected = ctx.expected("scan_digests")
    if expected is None:
        unit.problems.append(
            f"no pinned campaign digests for scale {ctx.scale} world {ctx.world_seed}"
        )
    elif digests != expected:
        bad = [i for i, (a, b) in enumerate(zip(digests, expected)) if a != b]
        unit.problems.append(
            f"campaign digests differ from the pins (scans {bad}, "
            f"{len(digests)} vs {len(expected)} scans)"
        )


def run_unit(ctx: Context, workers: int | None = None) -> Unit:
    """Build a world and run one unit of the context's workload."""
    # Reclaim the previous unit's world now, not in a later timed region.
    gc.collect()
    index = ctx.seen.get("units", 0)
    ctx.seen["units"] = index + 1
    ctx.world_seed = ctx.worlds[index % len(ctx.worlds)]
    telemetry = ctx.telemetry()
    unit = Unit(world_seed=ctx.world_seed)
    unit.sample_host()
    t0 = time.perf_counter()
    with ctx.span("bench.setup"):
        world = build_world(
            WorldConfig(seed=ctx.world_seed, scale=ctx.scale), telemetry=telemetry
        )
    unit.setup_s = time.perf_counter() - t0
    unit.sample_host()
    unit.factors["setup_s"] = unit.factor_since(0)
    if ctx.workload in ("campaign", "campaign_sharded"):
        if workers is None:
            workers = SHARD_WORKERS if ctx.workload == "campaign_sharded" else 1
        _campaign(ctx, world, telemetry, unit, workers)
    elif ctx.workload == "monitor":
        _monitor(ctx, world, telemetry, unit)
    else:
        _paper(ctx, world, telemetry, unit)
    unit.sample_host()
    unit.world_stats = _world_stats(world)
    unit.facts.setdefault("routed_slash24s", _routed_slash24s(world))
    return unit


def run_units(ctx: Context, seconds: float, minimum: int, **kwargs) -> list[Unit]:
    """Run at least ``minimum`` units, then more while the next one is
    expected to end within ``seconds`` of the start (a unit is expected
    to take as long as the slowest so far)."""
    units = []
    start = time.perf_counter()
    longest = 0.0
    while (
        len(units) < minimum
        or time.perf_counter() - start + longest <= seconds
    ):
        u0 = time.perf_counter()
        units.append(run_unit(ctx, **kwargs))
        longest = max(longest, time.perf_counter() - u0)
    return units


# ----------------------------------------------------------------------
# campaign / campaign_sharded
# ----------------------------------------------------------------------


def _campaign(ctx: Context, world, telemetry, unit: Unit, workers: int) -> None:
    settings = EcsScanSettings(workers=workers, campaign_seed=ctx.world_seed)
    months = []
    start = unit.mark()
    paused = unit.sampling_s
    t0 = time.perf_counter()
    with ctx.span("bench.workload"), ScanCampaign(
        world.route53, world.routing, world.clock, settings, telemetry
    ) as campaign:
        for year, month in world.scan_months():
            before = unit.mark()
            m0 = time.perf_counter()
            months.append(campaign.run_month(year, month))
            unit.rounds_s.append(time.perf_counter() - m0)
            ctx.sample_host(unit)
            unit.round_factors.append(unit.factor_since(before))
    unit.report_s = time.perf_counter() - t0 - unit.sampling_s + paused
    unit.factors["report_s"] = unit.factor_since(start)
    unit.registry = telemetry.registry if telemetry.enabled else None
    scans = [
        scan
        for month in months
        for scan in (month.default, month.fallback)
        if scan is not None
    ]
    # A month that scans both domains in full costs what seeding the
    # delta engine costs, without its fold.
    both = [i for i, month in enumerate(months) if month.fallback]
    unit.seed_s = statistics.median(unit.rounds_s[i] for i in both)
    unit.factors["seed_s"] = unit.seed_s / statistics.median(
        unit.rounds_s[i] / unit.round_factors[i] for i in both
    )
    unit.queries = sum(scan.queries_sent for scan in scans)
    unit.scan_wall_s = unit.report_s
    unit.factors["scan_wall_s"] = unit.factors["report_s"]
    unit.sim_scan_h = sum(scan.duration_hours() for scan in scans)
    # Every round of a full-rescan calendar is a full rescan, and a
    # change surfaces in the first round after it.
    unit.round_fracs = [1.0] * len(months)
    unit.detection_rounds = 1
    unit.attempted = unit.queries
    unit.failed = sum(len(scan.gave_up) for scan in scans)
    if workers > 1:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        unit.worker_peak_rss_mb = children / 1024.0
    unit.facts.update(
        planned_queries=unit.queries,
        rounds=len(months),
        churn_records=0,
        fault_profile="none",
        workers=workers,
    )
    _check_digests(unit, ctx, scans)


# ----------------------------------------------------------------------
# monitor
# ----------------------------------------------------------------------


def _counter_sum(snapshot: dict, name: str, **labels) -> float:
    total = 0.0
    for entry in snapshot["counters"]:
        if entry["name"] != name:
            continue
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


def _monitor(ctx: Context, world, telemetry, unit: Unit) -> None:
    # The daemon always runs with a live registry: the fault and
    # persistence accounting the checks read comes from it.
    if not telemetry.enabled:
        telemetry = Telemetry(MetricsRegistry(), NullTracer())
    unit.registry = telemetry.registry
    plan = FaultPlan(MONITOR_FAULT_PROFILE, seed=ctx.world_seed)
    settings = EcsScanSettings(campaign_seed=ctx.world_seed, fault_plan=plan)
    workdir = ctx.workdir / f"monitor-{time.perf_counter_ns()}"
    events = EventLog(
        workdir / "events.jsonl",
        clock=world.clock,
        gate=plan.storage,
        registry=telemetry.registry,
    )
    year, month = MONITOR_MONTH
    # One churn set per (seed, world): a unit that revisits a world
    # replays its churn, so the run's detection latency does not depend
    # on how many units the run fits.
    churn_seed = ctx.world_seed * 1000 + ctx.seed % 1000
    records = []
    detected: dict[int, int] = {}
    steady = []
    with ctx.span("bench.workload"), events, ScanCampaign(
        world.route53,
        world.routing,
        world.clock,
        settings,
        telemetry,
        mode="delta",
        snapshot_dir=workdir / "snapshots",
        refresh_rounds=MONITOR_REFRESH_ROUNDS,
        events=events,
    ) as campaign:
        start = unit.mark()
        paused = unit.sampling_s
        t0 = time.perf_counter()
        campaign.run_continuous(year, month, 0)
        unit.seed_s = time.perf_counter() - t0
        ctx.sample_host(unit)
        unit.factors["seed_s"] = unit.factor_since(start)
        for cycle in ("steady", "churn"):
            if cycle == "churn":
                churn = DeploymentChurn(
                    world.assignment, world.ingress_v4, world.clock.now
                )
                records = churn.inject_standard(seed=churn_seed)
            for index in range(MONITOR_CYCLE):
                before = unit.mark()
                r0 = time.perf_counter()
                (delta,) = campaign.run_continuous(year, month, 1)
                unit.rounds_s.append(time.perf_counter() - r0)
                ctx.sample_host(unit)
                unit.round_factors.append(unit.factor_since(before))
                unit.budget_deferred += delta.budget_deferred
                unit.change_events += len(delta.events)
                if cycle == "steady":
                    steady.append(delta)
                    continue
                for event in delta.events:
                    detected.setdefault(event.value, index + 1)
        unit.report_s = time.perf_counter() - t0 - unit.sampling_s + paused
        unit.factors["report_s"] = unit.factor_since(start)
        engine = campaign.delta_engine()
        accumulated = {domain: engine.accumulated(domain) for domain in engine.domains}
    snapshot = telemetry.registry.snapshot()
    unit.queries = int(_counter_sum(snapshot, "ecs.probes_sent"))
    unit.scan_wall_s = unit.report_s
    unit.factors["scan_wall_s"] = unit.factors["report_s"]
    unit.round_fracs = [delta.queries_frac for delta in steady]
    unit.sim_scan_h = statistics.median(
        (delta.finished_at - delta.started_at) / 3600.0 for delta in steady
    )
    gave_up = _dns_sum(snapshot, "scan.gaveup", engine.domains)
    saves = 2 * (1 + len(unit.rounds_s))
    unsaved = _counter_sum(snapshot, "persistence.rounds_unpersisted")
    unit.attempted = unit.queries + saves + events.emitted + events.dropped
    unit.failed = int(gave_up + unsaved + events.dropped)
    unit.facts.update(
        planned_queries=steady[0].full_cost,
        rounds=len(unit.rounds_s),
        churn_records=len(records),
        churn_seed=churn_seed,
        fault_profile=MONITOR_FAULT_PROFILE,
        workers=1,
        event_log_bytes=(workdir / "events.jsonl").stat().st_size,
        snapshot_bytes=sum(
            path.stat().st_size for path in (workdir / "snapshots").glob("*.json")
        ),
        events_emitted=events.emitted,
        events_dropped=events.dropped,
    )
    # -- checks ----------------------------------------------------------
    latencies = []
    for record in records:
        rounds = detected.get(record.block_value)
        if rounds is None or rounds > MONITOR_REFRESH_ROUNDS:
            unit.problems.append(
                f"{record.kind} at {record.prefix} not detected within "
                f"{MONITOR_REFRESH_ROUNDS} rounds (got {rounds})"
            )
        else:
            latencies.append(rounds)
    unit.detection_rounds = max(latencies, default=0)
    if not records:
        unit.problems.append("churn injected no records")
    fresh = EcsScanner(world.route53, world.routing, world.clock, settings)
    for domain, state in accumulated.items():
        if result_digest(state) != result_digest(fresh.scan(domain)):
            unit.problems.append(
                f"{domain}: delta-accumulated state differs from a fresh rescan"
            )
    lost = sum(
        _dns_sum(snapshot, "faults.injected", engine.domains, kind=kind)
        for kind in ("drop", "servfail", "refused", "truncated")
    )
    retries = _dns_sum(snapshot, "scan.retries", engine.domains)
    if lost != retries + gave_up:
        unit.problems.append(
            f"fault accounting: {lost} lost attempts != {retries} retries "
            f"+ {gave_up} gave up"
        )
    shutil.rmtree(workdir)


def _dns_sum(snapshot: dict, name: str, domains, **labels) -> float:
    return sum(
        _counter_sum(snapshot, name, surface=domain, **labels) for domain in domains
    )


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------


def load_example():
    """``examples/reproduce_paper.py`` as a module (its main is not run)."""
    spec = importlib.util.spec_from_file_location("reproduce_paper", EXAMPLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sampled(function, ctx: Context, unit: Unit):
    """``function``, taking a host sample after each call: the analysis
    half of the report has no scans to sample around."""

    def call(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        finally:
            ctx.sample_host(unit)

    return call


def _paper(ctx: Context, world, telemetry, unit: Unit) -> None:
    example = load_example()
    # (wall, host factor around it, result) per ECS scan.
    scans: list[tuple[float, float, object]] = []
    series = []

    class TimedScanner(EcsScanner):
        """The example's ECS scanner, timing each scan from outside."""

        def __init__(self, server, routing, clock):
            super().__init__(server, routing, clock, telemetry=telemetry)

        def scan(self, domain, *args, **kwargs):
            ctx.sample_host(unit)
            before = unit.mark()
            s0 = time.perf_counter()
            result = super().scan(domain, *args, **kwargs)
            wall = time.perf_counter() - s0
            ctx.sample_host(unit)
            scans.append((wall, unit.factor_since(before), result))
            return result

    class KeptRelayScanner(RelayScanner):
        """The example's relay scanner, keeping each series for the
        failure accounting."""

        def run(self, config, label="scan"):
            out = super().run(config, label)
            series.append(out)
            ctx.sample_host(unit)
            return out

    example.build_world = lambda config: world
    example.EcsScanner = TimedScanner
    example.RelayScanner = KeptRelayScanner
    output = ctx.workdir / f"report-{time.perf_counter_ns()}.md"
    argv = sys.argv
    sys.argv = [
        str(EXAMPLE_PATH),
        "--scale", str(ctx.scale),
        "--seed", str(ctx.world_seed),
        "--output", str(output),
    ]
    # A traced phase wraps these functions in their modules; rebind the
    # example's by-name imports to whatever the modules hold now.
    for module_name, attr, _ in FUNCTION_TARGETS:
        if attr in example.__dict__:
            example.__dict__[attr] = _sampled(
                sys.modules[module_name].__dict__[attr], ctx, unit
            )
    try:
        start = unit.mark()
        paused = unit.sampling_s
        t0 = time.perf_counter()
        with ctx.span("bench.workload"), contextlib.redirect_stderr(io.StringIO()):
            example.main()
        unit.report_s = time.perf_counter() - t0 - unit.sampling_s + paused
        unit.factors["report_s"] = unit.factor_since(start)
    finally:
        sys.argv = argv
    report = output.read_text()
    output.unlink()
    unit.registry = telemetry.registry if telemetry.enabled else None
    walls = [wall for wall, _, _ in scans]
    normal = [wall / factor for wall, factor, _ in scans]
    results = [result for _, _, result in scans]
    # Months: January scans one domain, February to April both.
    months = [[0]] + [[i, i + 1] for i in range(1, len(walls) - 1, 2)]
    unit.rounds_s = [sum(walls[i] for i in month) for month in months]
    unit.round_factors = [
        wall / sum(normal[i] for i in month)
        for wall, month in zip(unit.rounds_s, months)
    ]
    unit.seed_s = statistics.median(unit.rounds_s[1:])
    unit.factors["seed_s"] = unit.seed_s / statistics.median(
        wall / factor
        for wall, factor in zip(unit.rounds_s[1:], unit.round_factors[1:])
    )
    unit.queries = sum(result.queries_sent for result in results)
    unit.scan_wall_s = sum(walls)
    unit.factors["scan_wall_s"] = unit.scan_wall_s / sum(normal)
    unit.sim_scan_h = sum(result.duration_hours() for result in results)
    unit.round_fracs = [1.0] * len(unit.rounds_s)
    unit.detection_rounds = 1
    relay_attempts = sum(len(s.rounds) + s.failures for s in series)
    unit.attempted = unit.queries + relay_attempts
    unit.failed = sum(len(r.gave_up) for r in results) + sum(
        s.failures for s in series
    )
    rows = report_rows(report)
    unit.facts.update(
        planned_queries=unit.queries,
        rounds=len(unit.rounds_s),
        churn_records=0,
        fault_profile="none",
        workers=1,
        report_rows=len(rows),
        relay_rounds=relay_attempts,
    )
    got = [short_hash(row) for row in rows]
    unit.facts["row_hashes"] = got
    expected = ctx.expected("row_hashes")
    if expected is None:
        unit.problems.append(
            f"no pinned report rows for scale {ctx.scale} world {ctx.world_seed}"
        )
    elif got != expected:
        bad = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        unit.problems.append(
            f"report rows differ from the pins ({len(got)} vs {len(expected)} "
            f"rows; differing rows {bad[:5]})"
        )

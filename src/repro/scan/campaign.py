"""The monthly scan campaign orchestrator.

Encapsulates the paper's measurement calendar: for each month of the
observation window, run the default-domain (QUIC) ECS scan and — from
February on — the fallback-domain scan; keep the longitudinal archives
up to date; and expose the results in the shape the Table 1/2 analyses
expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.dns.name import DnsName
from repro.dns.server import AuthoritativeServer, ServerStats
from repro.errors import WorkerCrashed
from repro.faults.storage import InjectedStorageFault, count_handled
from repro.netmodel.bgp import RoutingTable
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan.checkpoint import CampaignCheckpointer, decode_result, encode_result
from repro.scan.ecs_scanner import EcsScanResult, EcsScanner, EcsScanSettings
from repro.scan.incremental import DeltaRound, DeltaScanEngine, SnapshotStore
from repro.scan.longitudinal import IngressArchive
from repro.simtime import SimClock
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.worldgen.deployment import scan_time


@dataclass(frozen=True, slots=True)
class MonthlyScan:
    """One month's scans."""

    year: int
    month: int
    default: EcsScanResult
    fallback: EcsScanResult | None

    def as_tuple(self) -> tuple[int, int, EcsScanResult, EcsScanResult | None]:
        """The tuple shape ``build_table1`` consumes."""
        return (self.year, self.month, self.default, self.fallback)


@dataclass
class ScanCampaign:
    """Runs the Jan–Apr 2022 campaign against an authoritative server."""

    server: AuthoritativeServer
    routing: RoutingTable
    clock: SimClock
    settings: EcsScanSettings = field(default_factory=EcsScanSettings)
    #: Observability sink, threaded into the scanner (and through it the
    #: sharded executor).  Null by default: recording costs nothing.
    telemetry: Telemetry = field(default=NULL_TELEMETRY, repr=False)
    #: Months without a fallback-domain scan (the paper's January gap).
    skip_fallback_months: frozenset[tuple[int, int]] = frozenset({(2022, 1)})
    months: list[MonthlyScan] = field(default_factory=list)
    default_archive: IngressArchive = field(
        default_factory=lambda: IngressArchive(RELAY_DOMAIN_QUIC)
    )
    fallback_archive: IngressArchive = field(
        default_factory=lambda: IngressArchive(RELAY_DOMAIN_FALLBACK)
    )
    #: Where to write per-month checkpoints (None disables them).
    checkpoint_dir: str | Path | None = None
    #: Restore already-checkpointed months instead of re-scanning them.
    resume: bool = False
    #: Extra fingerprint material from the caller (e.g. the CLI folds in
    #: the world scale and seed), so checkpoints refuse to splice across
    #: different worlds even though the campaign itself never sees them.
    checkpoint_meta: dict | None = None
    #: ``"full"`` — the paper's monthly full-rescan calendar;
    #: ``"delta"`` — continuous monitoring via :meth:`run_continuous`.
    #: The mode is part of the persistence fingerprint: full-campaign
    #: checkpoints and delta snapshots can never splice into each other.
    mode: str = "full"
    #: Where delta snapshots persist (None keeps them in memory only).
    snapshot_dir: str | Path | None = None
    #: Per-round delta query budget (None = unbounded).
    budget: int | None = None
    #: Full re-coverage horizon of the delta refresh wheel, in rounds.
    refresh_rounds: int = 3
    #: Live monitoring plane (``repro.monitor``), both optional and
    #: fanned out to the scanner / sharded executor / delta engine:
    #: a ``StatusBoard`` updated with coarse progress, and an
    #: ``EventLog`` receiving the schema-versioned milestone stream.
    status: object | None = field(default=None, repr=False)
    events: object | None = field(default=None, repr=False)
    #: Graceful-drain hook (``repro.scan.drain.DrainController`` or any
    #: object with a ``requested`` flag): when set, the campaign checks
    #: it at month/round boundaries and stops cleanly — in-flight work
    #: drained, state persisted, ``campaign_interrupted`` emitted.
    drain: object | None = field(default=None, repr=False)
    #: Hung-shard watchdog deadline in wall seconds, threaded into the
    #: sharded executor (None disables the watchdog).
    shard_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("full", "delta"):
            raise ValueError(
                f"unknown campaign mode {self.mode!r}; expected 'full' or 'delta'"
            )

    def _scanner(self) -> EcsScanner:
        """The campaign's scanner, built once and reused across months.

        Reuse keeps the scanner's subnet-intern and routed-span caches
        warm from month to month (the BGP feed is static between scans).
        """
        scanner = self.__dict__.get("_scanner_instance")
        if scanner is None:
            scanner = EcsScanner(
                self.server,
                self.routing,
                self.clock,
                self.settings,
                telemetry=self.telemetry,
            )
            scanner.status = self.status
            self.__dict__["_scanner_instance"] = scanner
        return scanner

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    def _publish(self, **fields) -> None:
        if self.status is not None:
            self.status.publish(**fields)

    def _executor(self):
        """The campaign's scan front-end: the scanner itself with
        ``workers=1``, a (lazily built, month-to-month reused) sharded
        executor wrapping it otherwise.  Both expose the same ``scan()``.
        """
        from repro.scan.sharding import ShardedCampaignExecutor

        if self.settings.workers <= 1 or not ShardedCampaignExecutor.supported():
            return self._scanner()
        executor = self.__dict__.get("_executor_instance")
        if executor is None:
            executor = ShardedCampaignExecutor(
                self._scanner(),
                self.settings.workers,
                heartbeat_deadline=self.shard_deadline,
            )
            executor.status = self.status
            executor.events = self.events
            self.__dict__["_executor_instance"] = executor
        return executor

    def close(self) -> None:
        """Release campaign resources (the shard worker pool, if any)."""
        executor = self.__dict__.pop("_executor_instance", None)
        if executor is not None:
            executor.close()

    def __enter__(self) -> "ScanCampaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- checkpoint/resume ----------------------------------------------

    def _storage_gate(self):
        """The fault plan's storage gate (None without an active plan)."""
        plan = self.settings.fault_plan
        return plan.storage if plan is not None else None

    def _checkpointer(self) -> CampaignCheckpointer | None:
        if self.checkpoint_dir is None:
            return None
        checkpointer = self.__dict__.get("_checkpointer_instance")
        if checkpointer is None:
            checkpointer = CampaignCheckpointer(
                self.checkpoint_dir,
                self._fingerprint(),
                gate=self._storage_gate(),
                registry=self.telemetry.registry,
            )
            self.__dict__["_checkpointer_instance"] = checkpointer
        return checkpointer

    def _fingerprint(self) -> dict:
        """Every setting that can change results, and nothing else.

        Worker count is excluded on purpose — it is verified
        result-invariant by the sharded equivalence suite, so a campaign
        may be killed under one worker count and resumed under another.
        """
        settings = self.settings
        plan = settings.fault_plan
        fingerprint = {
            "rate": settings.rate,
            "burst": settings.burst,
            "source_prefix_len": settings.source_prefix_len,
            "respect_scope": settings.respect_scope,
            "prune_unrouted": settings.prune_unrouted,
            "sparse_stride": settings.sparse_stride,
            "campaign_seed": settings.campaign_seed,
            "max_attempts": settings.max_attempts,
            "backoff": [
                settings.backoff_base,
                settings.backoff_factor,
                settings.backoff_jitter,
            ],
            "fault_plan": (
                None if plan is None else [plan.profile.name, plan.seed]
            ),
            "skip_fallback": sorted(map(list, self.skip_fallback_months)),
            "mode": self.mode,
        }
        if self.checkpoint_meta:
            fingerprint.update(self.checkpoint_meta)
        return fingerprint

    def _rotation_hooks(self) -> list:
        """The scanned zones' rotation hooks, deduplicated by identity
        (both relay domains live in one zone sharing one counter set)."""
        hooks: list = []
        seen: set[int] = set()
        for domain in (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK):
            zone = self.server.zone_for(DnsName.parse(domain))
            if zone is None:
                continue
            for hook in zone.shard_hooks():
                if id(hook) not in seen:
                    seen.add(id(hook))
                    hooks.append(hook)
        return hooks

    def _month_payload(self, result: MonthlyScan) -> dict:
        return {
            "clock_now": self.clock.now,
            "default": encode_result(result.default),
            "fallback": (
                None if result.fallback is None else encode_result(result.fallback)
            ),
            "server_stats": {
                name: getattr(self.server.stats, name)
                for name in ServerStats._FIELDS
            },
            "rotation": [hook.state_snapshot() for hook in self._rotation_hooks()],
        }

    def _restore_month(self, year: int, month: int, data: dict) -> MonthlyScan:
        """Splice one checkpointed month in as if it had just been scanned."""
        default = decode_result(data["default"])
        self.default_archive.record(default)
        fallback = None
        if data["fallback"] is not None:
            fallback = decode_result(data["fallback"])
            self.fallback_archive.record(fallback)
        stats = self.server.stats
        for name, value in data["server_stats"].items():
            setattr(stats, name, value)
        for hook, state in zip(self._rotation_hooks(), data["rotation"]):
            hook.restore_state(state)
        if self.clock.now < data["clock_now"]:
            self.clock.advance_to(data["clock_now"])
        registry = self.telemetry.registry
        if registry.enabled:
            registry.counter("campaign.months_restored").inc()
        result = MonthlyScan(year, month, default, fallback)
        self.months.append(result)
        self._publish(phase="restore", year=year, month=month)
        self._emit("month_restored", year=year, month=month)
        return result

    def run_month(self, year: int, month: int) -> MonthlyScan:
        """Run one month's scans (advancing the clock to the scan slot).

        With a checkpoint directory configured, a completed month is
        persisted atomically afterwards; with ``resume`` set, a month
        whose checkpoint already exists is restored instead of scanned.
        """
        checkpointer = self._checkpointer()
        if checkpointer is not None and self.resume:
            data = checkpointer.load(year, month)
            if data is not None:
                return self._restore_month(year, month, data)
        target = scan_time(year, month)
        if self.clock.now < target:
            self.clock.advance_to(target)
        scanner = self._executor()
        self._publish(phase="scan", year=year, month=month)
        self._emit("month_started", year=year, month=month)
        with self.telemetry.tracer.span("campaign.month", year=year, month=month):
            default = scanner.scan(RELAY_DOMAIN_QUIC)
            self.default_archive.record(default)
            fallback = None
            if (year, month) not in self.skip_fallback_months:
                fallback = scanner.scan(RELAY_DOMAIN_FALLBACK)
                self.fallback_archive.record(fallback)
        result = MonthlyScan(year, month, default, fallback)
        self.months.append(result)
        self._emit(
            "month_completed",
            year=year,
            month=month,
            queries=default.queries_sent
            + (0 if fallback is None else fallback.queries_sent),
            fallback=fallback is not None,
        )
        if self.status is not None:
            self.status.add("months_completed")
        if checkpointer is not None:
            try:
                checkpointer.save(year, month, self._month_payload(result))
            except OSError as exc:
                # Degraded mode: the month's results are kept in memory
                # and the campaign continues — a resume after this run
                # re-scans the unpersisted month, bit-identically.
                self._checkpoint_degraded(year, month, exc)
            else:
                self._emit("checkpoint_written", year=year, month=month)
                if self.status is not None:
                    self.status.record_checkpoint(self.clock.now)
        return result

    def _checkpoint_degraded(self, year: int, month: int, exc: OSError) -> None:
        """Account one failed checkpoint write and flag degraded mode."""
        registry = self.telemetry.registry
        if isinstance(exc, InjectedStorageFault):
            # The injected raise was counted at the fault site; a
            # checkpoint gets one attempt, so it surfaces immediately.
            count_handled(registry, "checkpoint", 0, 1)
        if registry.enabled:
            registry.counter(
                "persistence.save_failures", surface="checkpoint"
            ).inc()
        if self.status is not None:
            self.status.publish(checkpoint_degraded=True)
            self.status.add("months_unpersisted")
        self._emit("persistence_degraded", surface="checkpoint", year=year, month=month)

    def _drain_requested(self) -> bool:
        return self.drain is not None and self.drain.requested

    def _interrupt(self, **fields) -> None:
        """Record a graceful drain: persisted state is already on disk."""
        self._publish(phase="interrupted")
        self._emit("campaign_interrupted", mode=self.mode, **fields)

    def run(self, calendar: list[tuple[int, int]]) -> list[MonthlyScan]:
        """Run the whole calendar in order.

        With a :attr:`drain` controller attached, a stop request is
        honoured at month boundaries: the in-flight month completes (and
        checkpoints) as usual, then the campaign returns the months it
        finished instead of starting the next one.
        """
        self._publish(phase="campaign", mode=self.mode)
        self._emit("campaign_started", mode=self.mode, months=len(calendar))
        out: list[MonthlyScan] = []
        for year, month in calendar:
            if self._drain_requested():
                self._interrupt(months=len(out), planned=len(calendar))
                return out
            out.append(self.run_month(year, month))
        self._publish(phase="finished")
        self._emit("campaign_finished", months=len(out))
        return out

    # -- continuous monitoring (mode="delta") ---------------------------

    def _snapshot_store(self) -> SnapshotStore | None:
        if self.snapshot_dir is None:
            return None
        store = self.__dict__.get("_snapshot_store_instance")
        if store is None:
            store = SnapshotStore(
                self.snapshot_dir,
                self._fingerprint(),
                gate=self._storage_gate(),
                registry=self.telemetry.registry,
            )
            self.__dict__["_snapshot_store_instance"] = store
        return store

    def delta_engine(self) -> DeltaScanEngine:
        """The campaign's delta-scan engine (mode ``"delta"`` only)."""
        if self.mode != "delta":
            raise ValueError(
                f"delta engine requires mode='delta' (campaign mode is {self.mode!r})"
            )
        engine = self.__dict__.get("_delta_engine_instance")
        if engine is None:
            engine = DeltaScanEngine(
                self._executor(),
                self._snapshot_store(),
                budget=self.budget,
                refresh_rounds=self.refresh_rounds,
                telemetry=self.telemetry,
            )
            engine.status = self.status
            engine.events = self.events
            self.__dict__["_delta_engine_instance"] = engine
        return engine

    def _archive_for(self, domain: str) -> IngressArchive | None:
        if domain == RELAY_DOMAIN_QUIC:
            return self.default_archive
        if domain == RELAY_DOMAIN_FALLBACK:
            return self.fallback_archive
        return None

    def run_continuous(self, year: int, month: int, rounds: int) -> list[DeltaRound]:
        """Continuous monitoring: seed (or restore) snapshots, then run
        ``rounds`` delta rounds from the given month's scan slot.

        Fresh seed scans and each round's accumulated state are recorded
        into the longitudinal archives, so the continuous mode feeds the
        same growth/churn analyses as the monthly calendar.
        """
        if self.mode != "delta":
            raise ValueError(
                f"run_continuous requires mode='delta' (campaign mode is {self.mode!r})"
            )
        target = scan_time(year, month)
        if self.clock.now < target:
            self.clock.advance_to(target)
        engine = self.delta_engine()
        self._publish(phase="delta_seed", year=year, month=month, mode=self.mode)
        self._emit(
            "campaign_started", mode=self.mode, year=year, month=month, rounds=rounds
        )
        with self.telemetry.tracer.span("campaign.delta_seed", year=year, month=month):
            seeds = engine.ensure_seeded()
        for domain, result in seeds.items():
            archive = self._archive_for(domain)
            if archive is not None and result is not None:
                archive.record(result)
        out: list[DeltaRound] = []
        for _ in range(rounds):
            if self._drain_requested():
                self._interrupt(rounds=len(out), planned=rounds)
                return out
            try:
                with self.telemetry.tracer.span("campaign.delta_round"):
                    delta = engine.run_round()
            except WorkerCrashed:
                # Respawn exhaustion mid-round: the continuous campaign
                # outlives it.  Skip the round, discard whatever partial
                # in-memory state it left, and re-seed from the last
                # persisted snapshots (a fresh seed scan without a
                # store) before the next round.
                self._round_skipped(engine)
                continue
            for domain in engine.domains:
                archive = self._archive_for(domain)
                if archive is not None:
                    archive.record(engine.accumulated(domain))
            out.append(delta)
        self._publish(phase="finished")
        self._emit("campaign_finished", rounds=len(out))
        return out

    def _round_skipped(self, engine: DeltaScanEngine) -> None:
        """Account one abandoned round and restore a consistent engine."""
        registry = self.telemetry.registry
        if registry.enabled:
            registry.counter("campaign.rounds_skipped").inc()
        if self.status is not None:
            self.status.add("rounds_skipped")
            self.status.publish(phase="round_skipped")
        self._emit("round_skipped", reason="worker_crashed")
        # The executor already tore its broken pool down before raising;
        # the next scan submission forks a fresh one.
        engine.reseed_from_store()

    def table1_input(self) -> list[tuple[int, int, EcsScanResult, EcsScanResult | None]]:
        """All months in the shape ``build_table1`` expects."""
        return [m.as_tuple() for m in self.months]

    def latest_default(self) -> EcsScanResult:
        """The most recent default-domain scan."""
        if not self.months:
            raise ValueError("campaign has not run yet")
        return self.months[-1].default

    def ingress_asns(self) -> set[int]:
        """All ASes observed hosting ingress relays across the campaign."""
        asns: set[int] = set()
        for month in self.months:
            asns.update(month.default.addresses_by_asn())
            if month.fallback is not None:
                asns.update(month.fallback.addresses_by_asn())
        return asns

"""ECS-based ingress enumeration.

Implements the paper's core scan: iterate client subnets over the IPv4
space, attach each as an EDNS Client Subnet option to an A query for a
relay domain, and collect the returned ingress addresses.

The ethics measures from Section 7 are first-class here:

* a strict token-bucket **rate limit** (a full scan takes tens of hours
  of simulated time);
* **routed-space pruning** — address space not visible in the local BGP
  feed is only sparsely sampled;
* **scope pruning** — when the server declares an ECS scope wider than
  /24, no further query is sent inside that scope block.

Both prunings can be disabled for the ablation benchmarks.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.dns.edns import ClientSubnetOption, EdnsOptions
from repro.dns.message import DnsMessage, Question, Rcode
from repro.dns.name import DnsName
from repro.dns.ratelimit import TokenBucket
from repro.faults.plan import (
    MASK64,
    MIX_MULT_A,
    MIX_MULT_B,
    QUERY_VALUE_MULT,
    FaultKind,
    FaultPlan,
    fault_key,
)
from repro.dns.rr import RRType
from repro.scan.columnar import ColumnarResponses
from repro.dns.server import AuthoritativeServer
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.bgp import RoutingTable
from repro.perfstats import gc_paused
from repro.simtime import SimClock
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.registry import DURATION_BUCKETS, SCOPE_BUCKETS

#: Record types whose rdata is an address (hot-loop constant).
_ADDRESS_RTYPES = (RRType.A, RRType.AAAA)


class EcsResponse(NamedTuple):
    """One answered ECS query.

    A NamedTuple rather than a dataclass: scans append hundreds of
    thousands of these and shard workers ship them across process
    boundaries, and tuple construction/pickling is several times cheaper
    than frozen-dataclass ``__init__``.  Field semantics are unchanged.
    """

    subnet: Prefix
    scope: int
    addresses: tuple[IPAddress, ...]
    answer_asn: int | None

    def covered_slash24s(self) -> int:
        """How many /24 client subnets this answer is valid for."""
        if self.scope >= 24:
            return 1
        return 1 << (24 - self.scope)


@dataclass
class EcsScanSettings:
    """Scanner behaviour knobs."""

    #: Queries per second (the strict rate limit).
    rate: float = 2.2
    burst: float = 10.0
    #: ECS source prefix length sent with every query.
    source_prefix_len: int = 24
    #: Honour server scopes wider than /24 (skip the rest of the block).
    respect_scope: bool = True
    #: Only scan space covered by BGP routes; unrouted space is sampled
    #: once every ``sparse_stride`` /24 blocks.
    prune_unrouted: bool = True
    sparse_stride: int = 4096
    #: Shard worker processes for campaign scans.  ``1`` scans
    #: in-process; ``>1`` partitions the routed space into
    #: contiguous shards executed by :mod:`repro.scan.sharding` workers.
    workers: int = 1
    #: Campaign seed: each shard's rotation streams are reseeded from
    #: (campaign seed, shard index), making shard results deterministic.
    campaign_seed: int = 0
    #: Deterministic fault plan (None = a perfectly reliable network).
    #: Decisions are keyed by query content, so any worker count and any
    #: kill-and-resume split replays exactly the same faults.
    fault_plan: FaultPlan | None = None
    #: Query attempts before the scanner gives the block up (the block
    #: is then recorded in ``EcsScanResult.gave_up``, never silently
    #: missing).
    max_attempts: int = 3
    #: Exponential backoff between retries: ``backoff_base *
    #: backoff_factor**(retry-1)`` seconds, jittered by a deterministic
    #: factor in ``[1 - backoff_jitter, 1 + backoff_jitter)``.  The
    #: waits accumulate into ``fault_wait_seconds`` and advance the sim
    #: clock once at scan end (mid-scan advancement could refill the
    #: token bucket and move the schedule the sharded merge reproduces).
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5


@dataclass
class EcsScanResult:
    """The outcome of one full ECS scan of one domain.

    The batch-replay kernel and the sharded merge deliver routed
    answers in columnar form (:class:`~repro.scan.columnar.ColumnarResponses`)
    instead of building the ``responses`` list eagerly.  ``responses``
    stays the public interface: reading it materialises the classic
    ``list[EcsResponse]`` once (the property installed below the class),
    while the aggregate accessors and the telemetry recorder serve
    themselves from the columns without ever materialising.
    """

    domain: str
    started_at: float
    finished_at: float = 0.0
    queries_sent: int = 0
    responses: list[EcsResponse] = field(default_factory=list)
    sparse_queries: int = 0
    #: Sparse probes of unrouted space that came back answered.  Kept
    #: separate from ``responses`` (the routed-scan answer list feeding
    #: the tables) so unrouted hits are visible instead of discarded.
    sparse_answered: int = 0
    sparse_responses: list[EcsResponse] = field(default_factory=list)
    #: Retried query attempts (faulted attempts that were re-sent).
    retries: int = 0
    #: Query subnets abandoned after ``max_attempts`` faulted attempts,
    #: in scan (address) order — the per-scope give-up accounting.
    gave_up: list[Prefix] = field(default_factory=list)
    #: Injected fault counts by kind name (``drop``, ``servfail``, ...).
    fault_injected: dict[str, int] = field(default_factory=dict)
    #: Simulated seconds spent in injected latency spikes and retry
    #: backoff.  Quantized to dyadic values, so shard partial sums are
    #: exact and the merged total is bit-identical to the sequential one.
    fault_wait_seconds: float = 0.0

    def attach_columnar(self, columnar: ColumnarResponses) -> None:
        """Adopt columnar routed answers (replaces any ``responses`` list)."""
        self._responses = []
        self._columnar = columnar

    def columnar_view(self) -> ColumnarResponses | None:
        """The columnar answers, or None once/if materialised."""
        return self._columnar

    def response_count(self) -> int:
        """``len(responses)`` without forcing materialisation."""
        columnar = self._columnar
        if columnar is not None:
            return len(columnar)
        return len(self._responses)

    def scope_tally(self) -> Counter:
        """Responses per declared scope, straight off the columns."""
        columnar = self._columnar
        if columnar is not None:
            return columnar.scope_tally()
        return Counter(response.scope for response in self._responses)

    def addresses(self) -> set[IPAddress]:
        """All distinct ingress addresses uncovered.

        The relay service memoises rotation windows, so answered queries
        share a small population of address tuples; deduplicating tuples
        by identity first skips most of the per-address set hashing.
        (Unshared tuples still produce the same set, just slower.)
        """
        columnar = self._columnar
        if columnar is not None:
            return columnar.addresses()
        out: set[IPAddress] = set()
        seen: set[int] = set()
        seen_add = seen.add
        update = out.update
        for response in self.responses:
            addresses = response.addresses
            key = id(addresses)
            if key not in seen:
                seen_add(key)
                update(addresses)
        return out

    def addresses_by_asn(self) -> dict[int, set[IPAddress]]:
        """Distinct addresses per answer AS (Table 1 cells)."""
        columnar = self._columnar
        if columnar is not None:
            return columnar.addresses_by_asn()
        out: dict[int, set[IPAddress]] = {}
        seen: set[tuple[int, int]] = set()
        seen_add = seen.add
        for response in self.responses:
            asn = response.answer_asn
            if asn is None:
                continue
            addresses = response.addresses
            key = (asn, id(addresses))
            if key in seen:
                continue
            seen_add(key)
            bucket = out.get(asn)
            if bucket is None:
                bucket = out[asn] = set()
            bucket.update(addresses)
        return out

    def slash24s_by_asn(self) -> dict[int, int]:
        """Served /24 client subnets per answer AS (Table 2 'Subnets')."""
        columnar = self._columnar
        if columnar is not None:
            return columnar.slash24s_by_asn()
        out: dict[int, int] = {}
        for response in self.responses:
            if response.answer_asn is None:
                continue
            out[response.answer_asn] = (
                out.get(response.answer_asn, 0) + response.covered_slash24s()
            )
        return out

    def duration_hours(self) -> float:
        """Simulated scan duration."""
        return (self.finished_at - self.started_at) / 3600.0


def _responses_get(self: EcsScanResult) -> list[EcsResponse]:
    columnar = self._columnar
    if columnar is not None:
        # Materialise once; from here on the list is the live view and
        # callers may mutate it (the checkpoint decoder does).
        self._columnar = None
        self._responses = columnar.materialize()
    return self._responses


def _responses_set(self: EcsScanResult, value: list[EcsResponse]) -> None:
    self._responses = value
    self._columnar = None


# Installed after the @dataclass pass so `responses` keeps its place in
# dataclasses.fields() (the fault-equivalence suite iterates the fields)
# while reads lazily materialise any attached columnar answers.  The
# generated __init__ assigns through the setter, which is what creates
# the backing _responses/_columnar attributes on every instance.
EcsScanResult.responses = property(_responses_get, _responses_set)  # type: ignore[assignment]


class _FaultGate:
    """Per-scan fault/retry state machine, shared by both kernels.

    One :meth:`send` call models one logical query — the first attempt
    plus any retries — performing every token take itself and accounting
    faults, backoff waits, and give-ups.  Both the batch-replay kernel
    and the message-level reference path route queries through the
    *same* gate methods, so fault semantics cannot diverge between them.

    Injected waits are accumulated here and applied to the clock once at
    scan end: advancing mid-scan could refill the token bucket and move
    its schedule off the one the sharded campaign's single ``take_many``
    of the merged query count reproduces.
    """

    __slots__ = (
        "_inject",
        "_dkey",
        "_max_attempts",
        "_base",
        "_factor",
        "_jitter",
        "_backoff",
        "_latency",
        "_take",
        "retries",
        "wait_seconds",
        "counts",
        "gave_up",
    )

    def __init__(
        self,
        plan: FaultPlan,
        domain: str,
        settings: EcsScanSettings,
        bucket: TokenBucket,
        gave_up: list[Prefix],
    ) -> None:
        self._inject = plan.query_outcome
        self._dkey = fault_key(domain)
        self._max_attempts = max(1, settings.max_attempts)
        self._base = settings.backoff_base
        self._factor = settings.backoff_factor
        self._jitter = settings.backoff_jitter
        self._backoff = plan.backoff_wait
        self._latency = plan.latency_wait
        self._take = bucket.take
        self.retries = 0
        self.wait_seconds = 0.0
        self.counts: dict[int, int] = {}
        self.gave_up = gave_up

    def send(self, value: int, subnet: Prefix) -> tuple[bool, int]:
        """Send one query with retries: ``(delivered, attempts taken)``.

        ``delivered`` False means every attempt faulted and ``subnet``
        was appended to the give-up list; the caller skips the query's
        server-side processing and advances its cursor by one step.
        """
        self._take()
        outcome = self._inject(self._dkey, value, 0)
        if not outcome:
            return True, 1
        return self.resolve(value, subnet, outcome)

    def resolve(self, value: int, subnet: Prefix, outcome: int) -> tuple[bool, int]:
        """Run the retry ladder for a faulted first attempt.

        The caller has already taken the first token and drawn the
        attempt-0 ``outcome`` (the batch kernel inlines that draw and
        only calls in here for the rare faulted query); the returned
        take count includes that first take, exactly like :meth:`send`.
        """
        take = self._take
        inject = self._inject
        dkey = self._dkey
        counts = self.counts
        takes = 1
        attempt = 0
        while True:
            if outcome == FaultKind.LATENCY:
                counts[outcome] = counts.get(outcome, 0) + 1
                self.wait_seconds += self._latency(dkey, value, attempt)
                return True, takes
            counts[outcome] = counts.get(outcome, 0) + 1
            attempt += 1
            if attempt >= self._max_attempts:
                self.gave_up.append(subnet)
                return False, takes
            self.retries += 1
            self.wait_seconds += self._backoff(
                self._base, self._factor, self._jitter, dkey, value, attempt
            )
            take()
            takes += 1
            outcome = inject(dkey, value, attempt)
            if not outcome:
                return True, takes

    def finish(self, result: EcsScanResult) -> None:
        """Fold the gate's accounting into the scan result."""
        result.retries += self.retries
        result.fault_wait_seconds += self.wait_seconds
        injected = result.fault_injected
        names = FaultKind.NAMES
        for kind, count in sorted(self.counts.items()):
            name = names[kind]
            injected[name] = injected.get(name, 0) + count


class EcsScanner:
    """Scans one authoritative server with ECS queries."""

    def __init__(
        self,
        server: AuthoritativeServer,
        routing: RoutingTable,
        clock: SimClock,
        settings: EcsScanSettings | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.server = server
        self.routing = routing
        self.clock = clock
        self.settings = settings or EcsScanSettings()
        #: Observability sink: scan-accounting counters, the scope
        #: histogram, and per-scan spans.  The default null telemetry
        #: records nothing — the hot loop is never touched either way
        #: (metrics are computed once at scan end).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Optional live StatusBoard (repro.monitor): batch-updated once
        #: per scan at scan end, so the hot loop never sees it.
        self.status = None
        #: Optional liveness callable for the parent-side hung-shard
        #: watchdog (repro.scan.sharding): bumped at scan start and at
        #: region/chunk boundaries — never per query, so a disabled
        #: watchdog costs one attribute load per region.
        self.heartbeat = None
        # Query-subnet intern table: a campaign walks the same routed /24
        # blocks once per scan, so later scans reuse the (immutable)
        # Prefix objects of the first instead of re-validating millions.
        # Keyed by network value; dropped if the source length changes.
        self._subnet_cache: dict[int, Prefix] = {}
        self._subnet_cache_len = self.settings.source_prefix_len
        # Routed span/gap cache: a campaign reuses one scanner across
        # monthly scans and the BGP feed is static between them, so the
        # prefix sort + span merge runs once.  Only engaged when the
        # routing table exposes a mutation ``version`` (test doubles
        # without one rebuild every scan, as before).
        self._span_cache: tuple[object, list, list] | None = None

    def scan(self, domain: str, rtype: RRType = RRType.A) -> EcsScanResult:
        """Run a full scan for one relay domain.

        Derives the routed spans and the unrouted gaps between them from
        the BGP feed and delegates to :meth:`scan_ranges` — the range-based
        core that shard workers invoke directly with clipped pieces.
        """
        settings = self.settings
        if not settings.prune_unrouted:
            return self.scan_ranges(domain, [(0, (1 << 32) - 1)], [], rtype)
        spans, gaps = self.routed_ranges()
        return self.scan_ranges(domain, spans, gaps, rtype)

    def scan_regions(
        self,
        domain: str,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]] | tuple = (),
        rtype: RRType = RRType.A,
    ) -> EcsScanResult:
        """Scan an explicit set of address regions (the delta-scan entry).

        ``spans`` are inclusive routed ranges to walk and ``gaps``
        inclusive unrouted ranges to sparse-probe, in any order and
        possibly overlapping; they are sorted and contiguous pieces
        merged before delegating to :meth:`scan_ranges`, so the walk
        inside each region issues exactly the queries a full scan would
        issue there — including the batch-replay kernel.
        """
        return self.scan_ranges(
            domain, merge_ranges(spans), merge_ranges(gaps), rtype
        )

    def routed_ranges(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The routed spans and the unrouted gaps between them (cached)."""
        version = getattr(self.routing, "version", None)
        cached = self._span_cache
        if cached is not None and version is not None and cached[0] == version:
            return cached[1], cached[2]
        prefixes = sorted(
            self.routing.routed_v4_prefixes(), key=lambda p: p.value
        )
        spans = _merge_spans(prefixes)
        gaps = _span_gaps(spans)
        if version is not None:
            self._span_cache = (version, spans, gaps)
        return spans, gaps

    def scan_ranges(
        self,
        domain: str,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]],
        rtype: RRType = RRType.A,
    ) -> EcsScanResult:
        """Scan explicit routed ``spans`` and sparse-probe ``gaps``.

        Both lists hold inclusive ``(start, end)`` integer ranges; they
        are walked interleaved in address order (each gap precedes the
        span that follows it), which for the full-space lists built by
        :meth:`scan` reproduces the sequential scan order exactly.  Shard
        workers call this with the ranges clipped to their shard.

        The batch-replay kernel (:meth:`_run_program`) serves every scan
        it can compile; anything it refuses runs through the
        message-level reference path (:meth:`_run_slow`).  Switching the
        server's ``answer_cache`` off makes the kernel refuse, so that
        flag alone selects the reference oracle.
        """
        settings = self.settings
        bucket = TokenBucket(settings.rate, settings.burst, self.clock)
        result = EcsScanResult(domain=domain, started_at=self.clock.now)
        server = self.server
        # The kernel replays AuthoritativeServer.handle()'s logic inline,
        # so it is only valid when the server actually runs that logic —
        # a subclass or instance overriding handle() (the tests' failure
        # injection point) must be driven through real messages.
        stock_handle = (
            getattr(server.handle, "__func__", None) is AuthoritativeServer.handle
        )
        plan = settings.fault_plan
        gate = None
        if plan is not None and plan.dns_active:
            gate = _FaultGate(plan, domain, settings, bucket, result.gave_up)
        if self.heartbeat is not None:
            self.heartbeat()
        # repro: allow[DET001] wall-time feeds the telemetry histogram only
        wall_start = time.perf_counter()
        # Pause cyclic GC for the scan: the hot loop allocates millions
        # of acyclic objects (responses, lookup results, record tuples)
        # that refcounting frees on its own.  The world is frozen out of
        # the collector, so the pause saves the young collections over
        # these allocations, not a walk of the world.
        with gc_paused(), self.telemetry.tracer.span("ecs.scan", domain=domain):
            served = stock_handle and self._run_program(
                result, domain, rtype, spans, gaps, bucket, gate
            )
            if not served:
                self._run_slow(result, domain, rtype, spans, gaps, bucket, gate)
        if gate is not None:
            gate.finish(result)
        # Injected waits advance the clock once, here: a shard worker's
        # scan therefore leaves the token bucket exactly where the
        # parent's take_many() of the merged query count expects it.
        if result.fault_wait_seconds:
            self.clock.advance(result.fault_wait_seconds)
        result.finished_at = self.clock.now
        # repro: allow[DET001] wall-time feeds the telemetry histogram only
        self._record_scan(result, bucket, time.perf_counter() - wall_start)
        if self.status is not None:
            # Once per scan (batch, like _record_scan) — never per query.
            self.status.add("queries_sent", result.queries_sent)
            self.status.add("scans_completed")
            self.status.publish(last_domain=domain, sim_time=self.clock.now)
        return result

    def _record_scan(
        self, result: EcsScanResult, bucket: TokenBucket, wall_seconds: float
    ) -> None:
        """Record one scan's accounting metrics (end-of-scan batch).

        Runs once per :meth:`scan_ranges` call — never per query — and
        only when telemetry is enabled.  Per-response work is one
        C-speed ``Counter`` tally over the scope values (a scan holds
        hundreds of thousands of responses but only ~30 distinct
        scopes), so recording stays well inside the overhead budget the
        perf harness enforces.  Every counter recorded here is
        *deterministic across worker counts*: shard workers each record
        their piece and the parent sums the pieces (``ratelimit.*``
        excepted — each shard's bucket starts with a full burst, see
        ``deterministic_totals``).
        """
        registry = self.telemetry.registry
        if not registry.enabled:
            return
        domain = result.domain
        registry.counter("ecs.probes_sent", domain=domain).inc(result.queries_sent)
        registry.counter("ecs.answers", domain=domain).inc(result.response_count())
        registry.counter("ecs.sparse_probes", domain=domain).inc(
            result.sparse_queries
        )
        registry.counter("ecs.sparse_answered", domain=domain).inc(
            result.sparse_answered
        )
        scope_hist = registry.histogram("ecs.scope", SCOPE_BUCKETS, domain=domain)
        tally = result.scope_tally()
        skipped = 0
        if self.settings.respect_scope:
            # covered_slash24s() is a pure function of the scope, so the
            # tally stands in for the per-response sum.
            skipped = sum(
                n * ((1 << (24 - scope)) - 1)
                for scope, n in tally.items()
                if scope < 24
            )
        for scope, n in sorted(tally.items()):
            scope_hist.observe_many(scope, n)
        sparse_tally = Counter(
            response.scope for response in result.sparse_responses
        )
        for scope, n in sorted(sparse_tally.items()):
            scope_hist.observe_many(scope, n)
        registry.counter("ecs.scope_skipped_slash24s", domain=domain).inc(skipped)
        registry.counter("ratelimit.waited_seconds").inc(bucket.total_waited)
        registry.histogram(
            "ecs.scan_wall_seconds", DURATION_BUCKETS, domain=domain
        ).observe(wall_seconds)
        if self.settings.fault_plan is not None:
            registry.counter("scan.retries", surface=domain).inc(result.retries)
            registry.counter("scan.gaveup", surface=domain).inc(len(result.gave_up))
            registry.counter("faults.wait_seconds", domain=domain).inc(
                result.fault_wait_seconds
            )
            for kind, count in sorted(result.fault_injected.items()):
                registry.counter("faults.injected", surface=domain, kind=kind).inc(
                    count
                )

    def _run_program(
        self,
        result: EcsScanResult,
        domain: str,
        rtype: RRType,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]],
        bucket: TokenBucket,
        gate: _FaultGate | None = None,
    ) -> bool:
        """The batch-replay kernel: execute a compiled answer program.

        Instead of calling ``answer_cache.lookup`` per probe, the scanned
        range is compiled once into a :class:`~repro.dns.answer_cache.ReplayProgram`
        — flat arrays of (span start, span end, answer index) covering
        the range contiguously — and the probe loop *replays* it: one
        row-pointer advance, one rotation-counter bump, and three column
        appends per answered query, with no ``LookupResult``, no record
        tuples, and no ``EcsResponse`` objects.  Emits columnar results
        (:class:`~repro.scan.columnar.ColumnarResponses`) directly.

        Exactness is preserved batch-wise rather than query-wise:

        * **Rotation state** advances through per-answer *local* counts
          against a snapshot of the shared rotation counters, flushed
          back (one store per counter) at batch boundaries — on epoch
          recompiles and at scan end.  Sparse gap probes are served from
          the very same program rows (the program covers gaps with
          fallback rows), so their rotation bumps flow through the same
          local counts in exact query order.
        * **Token takes** are batched: the bucket's closed-form schedule
          says how many takes are served strictly before the epoch
          horizon (:meth:`~repro.dns.ratelimit.TokenBucket.takes_before`),
          that run of queries is served against the linked program and
          taken in one :meth:`~repro.dns.ratelimit.TokenBucket.take_many`
          — the clock lands where per-query takes would leave it.
        * **Epoch boundaries**: the zone declares how long its current
          answers stay valid (:meth:`~repro.dns.zone.Zone.epoch_horizon`);
          the take after a batch is the one that crosses that horizon,
          so the kernel takes it, and when the clock has reached the
          horizon flushes, recompiles the program against the new epoch,
          and relinks before serving it — a per-query scan's take,
          post-take clock check, answer order, and the same
          invalidate-and-rebuild the per-query cache performs.
        * **Faults**: the attempt-0 draw is inlined (one splitmix64 hash
          against the plan's precomputed channel base); only faulted
          queries — identified by the exact same draw — fall back to the
          gate's retry ladder, so injected/retry/give-up identities hold
          bit-for-bit.  With a fault gate attached every query takes
          its own token (retry takes interleave with query takes, so
          only the gate knows how many takes a query costs).

        Returns False (without consuming anything) when the range cannot
        be compiled — no routed span, missing zone, ECS policy off or
        truncating, answer cache off, no registered enumerator, nested
        assignment units, unbounded epoch — and :meth:`scan_ranges` runs
        the reference path instead.
        """
        if not spans:
            return False
        settings = self.settings
        server = self.server
        qname = DnsName.parse(domain)
        zone = server.zone_for(qname)
        if zone is None:
            return False
        policy = server.ecs_policy
        source_len = settings.source_prefix_len
        max_source = policy.max_source_v4
        if not policy.enabled or source_len > max_source:
            return False
        horizon_of = zone.epoch_horizon
        horizon = horizon_of()
        if horizon is None:
            return False
        cache = server.answer_cache
        source_mask = ((1 << source_len) - 1) << (32 - source_len)
        # The program must cover every probed address, sparse included:
        # the gap before the first routed span is sparse-scanned too, so
        # the compile range starts at the leading gap when there is one.
        lo = spans[0][0]
        if gaps and gaps[0][0] < lo:
            lo = gaps[0][0]
        lo &= source_mask
        hi = spans[-1][1]
        program = cache.replay_program(zone, qname, rtype, lo, hi)
        if program is None:
            return False

        step = 1 << (32 - source_len)
        respect_scope = settings.respect_scope
        # source_len <= max_source here, so handle()'s default scope
        # min(source_len, max_source) is just the source length.
        routed_scope = source_len
        sparse_scope = 24 if 24 < max_source else max_source
        origin_of = self.routing.origin_of
        take = bucket.take
        clock = self.clock
        if self._subnet_cache_len != source_len:
            self._subnet_cache = {}
            self._subnet_cache_len = source_len
        subnet_cache = self._subnet_cache

        def link(program):
            """Bind the program's answer specs to this scan's settings.

            Columns indexed by answer: relay count, cursor-jump mask,
            routed response scope, sparse response scope, rotation slot
            (shared by answers driving the same rotation counter), the
            supplier, and a per-supplier rotation-window ref cache.  Per
            slot: the counter to write back, the counter value at link
            time, and a local bump count.  The scope/mask columns are
            pure per-answer maps, so they build as list comprehensions;
            only slot assignment needs a scalar pass.
            """
            answers = program.answers
            a_n = [spec[3] for spec in answers]
            a_scope = [
                routed_scope if spec[0] is None else spec[0] for spec in answers
            ]
            a_scope_sp = [
                sparse_scope if spec[0] is None else spec[0] for spec in answers
            ]
            step_mask = step - 1
            if respect_scope:
                a_mask = [
                    (1 << (32 - scope)) - 1 if scope < source_len else step_mask
                    for scope in a_scope
                ]
            else:
                a_mask = [step_mask] * len(answers)
            a_sup = [spec[4] for spec in answers]
            a_slot = [-1] * len(answers)
            a_refs: list = [None] * len(answers)
            slot_map: dict = {}
            writers: list = []
            bases: list[int] = []
            counts: list[int] = []
            refs_by_sup: dict[int, list] = {}
            for i, spec in enumerate(answers):
                n_relays = spec[3]
                if not n_relays:
                    continue
                counters = spec[1]
                counter_key = spec[2]
                slot_key = (id(counters), counter_key)
                slot = slot_map.get(slot_key)
                if slot is None:
                    slot = slot_map[slot_key] = len(writers)
                    writers.append((counters, counter_key))
                    bases.append(counters[counter_key])
                    counts.append(0)
                supplier_key = id(spec[4])
                refs = refs_by_sup.get(supplier_key)
                if refs is None:
                    refs = refs_by_sup[supplier_key] = [None] * n_relays
                a_slot[i] = slot
                a_refs[i] = refs
            return (
                a_n,
                a_mask,
                a_scope,
                a_scope_sp,
                a_slot,
                a_sup,
                a_refs,
                writers,
                bases,
                counts,
            )

        (
            a_n,
            a_mask,
            a_scope,
            a_scope_sp,
            a_slot,
            a_sup,
            a_refs,
            writers,
            bases,
            counts,
        ) = link(program)
        row_ends = program.row_ends
        row_answer = program.row_answer
        r = 0

        def flush() -> None:
            """Write pending rotation advances back to the shared counters."""
            for i in range(len(writers)):
                pending = counts[i]
                if pending:
                    counters, counter_key = writers[i]
                    counters[counter_key] = bases[i] + pending
                    bases[i] += pending
                    counts[i] = 0

        def refresh() -> None:
            """Cross an epoch horizon: flush, recompile, relink.

            Mirrors the per-query cache's epoch invalidation: pending
            rotation state is written back first, then the program is
            recompiled against the new epoch and relinked, and the row
            pointer restarts (the new partition may differ).
            """
            nonlocal program, a_n, a_mask, a_scope, a_scope_sp, a_slot
            nonlocal a_sup, a_refs, writers, bases, counts
            nonlocal row_ends, row_answer, r, horizon
            flush()
            program = cache.replay_program(zone, qname, rtype, lo, hi)
            if program is None:
                raise RuntimeError("replay program became uncompilable mid-scan")
            (
                a_n,
                a_mask,
                a_scope,
                a_scope_sp,
                a_slot,
                a_sup,
                a_refs,
                writers,
                bases,
                counts,
            ) = link(program)
            row_ends = program.row_ends
            row_answer = program.row_answer
            r = 0
            horizon = horizon_of()

        columnar = ColumnarResponses(source_len, prefixes=subnet_cache)
        values_col, scopes_col, refs_col, table = columnar.new_chunk()
        vapp = values_col.append
        sapp = scopes_col.append
        rapp = refs_col.append
        tapp = table.append

        if gate is not None:
            plan = settings.fault_plan
            qbase, thresholds = plan.query_channel(fault_key(domain))
            t_all = thresholds[-1]
            inject = gate._inject
            resolve = gate.resolve
            dkey = gate._dkey
            qmult = QUERY_VALUE_MULT
            m64 = MASK64
            mix_a = MIX_MULT_A
            mix_b = MIX_MULT_B

        append_sparse = result.sparse_responses.append
        sparse_stride = settings.sparse_stride << 8
        stats = server.stats
        take_many = bucket.take_many
        takes_before = bucket.takes_before
        sent = 0
        sparse_sent = 0
        sparse_served = 0
        sparse_answered = 0
        n_nodata_prog = 0

        def serve_routed(value: int) -> int:
            """Serve one routed query at ``value``; returns the next cursor.

            Same body as the inlined chunk loop — used only for the take
            that crosses an epoch horizon and on the fault-gated path,
            where a closure call costs nothing.
            """
            nonlocal r, n_nodata_prog
            while value > row_ends[r]:
                r += 1
            ai = row_answer[r]
            n = a_n[ai]
            if not n:
                n_nodata_prog += 1
                return value + step
            slot = a_slot[ai]
            j = counts[slot]
            counts[slot] = j + 1
            rot = (bases[slot] + j) % n
            refs = a_refs[ai]
            ref = refs[rot]
            if ref is None:
                addresses = a_sup[ai].rotation_addresses(rot)
                ref = refs[rot] = len(table)
                tapp((addresses, origin_of(addresses[0])))
            vapp(value)
            sapp(a_scope[ai])
            rapp(ref)
            return (value | a_mask[ai]) + 1

        def serve_sparse(cursor: int) -> None:
            """Serve one delivered sparse /24 probe from the program.

            The program's rows cover gaps too (fallback rows fill
            unassigned space), so the probe's answer — and its rotation
            bump, in exact query order — comes from the same columns as
            routed queries; only the response scope resolves against the
            sparse default instead of the routed one.
            """
            nonlocal r, sparse_served, sparse_answered
            while cursor > row_ends[r]:
                r += 1
            ai = row_answer[r]
            sparse_served += 1
            n = a_n[ai]
            if not n:
                return
            slot = a_slot[ai]
            j = counts[slot]
            counts[slot] = j + 1
            rot = (bases[slot] + j) % n
            refs = a_refs[ai]
            ref = refs[rot]
            if ref is None:
                addresses = a_sup[ai].rotation_addresses(rot)
                ref = refs[rot] = len(table)
                tapp((addresses, origin_of(addresses[0])))
            entry = table[ref]
            sparse_answered += 1
            append_sparse(
                EcsResponse(Prefix(4, cursor, 24), a_scope_sp[ai], entry[0], entry[1])
            )

        hb = self.heartbeat
        for start, end, is_gap in _interleave(spans, gaps):
            if hb is not None:
                hb()
            if is_gap:
                cursor = (start + sparse_stride - 1) // sparse_stride * sparse_stride
                if gate is not None:
                    while cursor + 255 <= end:
                        delivered, takes = gate.send(cursor, Prefix(4, cursor, 24))
                        sent += takes
                        sparse_sent += takes
                        if delivered:
                            if clock.now >= horizon:
                                refresh()
                            serve_sparse(cursor)
                        cursor += sparse_stride
                    continue
                while cursor + 255 <= end:
                    # Probe count to the gap's end is known up front:
                    # serve every probe taken before the horizon in one
                    # batch, then the take that crosses it.
                    k = (end - 255 - cursor) // sparse_stride + 1
                    allowed = takes_before(horizon)
                    if k > allowed:
                        k = allowed
                    if k:
                        take_many(k)
                        sent += k
                        sparse_sent += k
                        for _ in range(k):
                            serve_sparse(cursor)
                            cursor += sparse_stride
                    if cursor + 255 <= end:
                        take()
                        sent += 1
                        sparse_sent += 1
                        if clock.now >= horizon:
                            refresh()
                        serve_sparse(cursor)
                        cursor += sparse_stride
                continue
            cursor = start
            if gate is not None:
                while cursor <= end:
                    take()
                    sent += 1
                    if clock.now >= horizon:
                        refresh()
                    value = cursor & source_mask
                    # Inlined attempt-0 fault draw (plan.query_outcome's
                    # splitmix64, against the precomputed channel base);
                    # only actual faults re-enter the gate machinery.
                    h = (qbase + value * qmult) & m64
                    h = ((h ^ (h >> 30)) * mix_a) & m64
                    h = ((h ^ (h >> 27)) * mix_b) & m64
                    h ^= h >> 31
                    if h < t_all:
                        subnet = subnet_cache.get(value)
                        if subnet is None:
                            subnet = Prefix(4, value, source_len)
                            subnet_cache[value] = subnet
                        delivered, takes = resolve(
                            value, subnet, inject(dkey, value, 0)
                        )
                        sent += takes - 1
                        if not delivered:
                            cursor = value + step
                            continue
                    cursor = serve_routed(value)
                continue
            while cursor <= end:
                # The bucket says how many takes are served strictly
                # before the horizon: that run is served against the
                # linked program and taken in one take_many; the take
                # after it crosses the horizon, as a per-query scan's
                # post-take clock check would see it.
                allowed = takes_before(horizon)
                count = 0
                while cursor <= end and count < allowed:
                    value = cursor & source_mask
                    while value > row_ends[r]:
                        r += 1
                    ai = row_answer[r]
                    n = a_n[ai]
                    if n:
                        slot = a_slot[ai]
                        j = counts[slot]
                        counts[slot] = j + 1
                        rot = (bases[slot] + j) % n
                        refs = a_refs[ai]
                        ref = refs[rot]
                        if ref is None:
                            addresses = a_sup[ai].rotation_addresses(rot)
                            ref = refs[rot] = len(table)
                            tapp((addresses, origin_of(addresses[0])))
                        vapp(value)
                        sapp(a_scope[ai])
                        rapp(ref)
                        cursor = (value | a_mask[ai]) + 1
                    else:
                        n_nodata_prog += 1
                        cursor = value + step
                    count += 1
                if count:
                    take_many(count)
                    sent += count
                if cursor <= end:
                    take()
                    sent += 1
                    if clock.now >= horizon:
                        refresh()
                    cursor = serve_routed(cursor & source_mask)
                if hb is not None:
                    hb()
        flush()
        served = len(values_col) + n_nodata_prog + sparse_served
        cache.record_program_hits(served)
        stats.queries += served
        stats.ecs_queries += served
        stats.answered += len(values_col) + sparse_answered
        stats.nodata += n_nodata_prog + (sparse_served - sparse_answered)
        result.queries_sent += sent
        result.sparse_queries += sparse_sent
        result.sparse_answered += sparse_answered
        result.attach_columnar(columnar)
        return True

    def _run_slow(
        self,
        result: EcsScanResult,
        domain: str,
        rtype: RRType,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]],
        bucket: TokenBucket,
        gate: _FaultGate | None = None,
    ) -> None:
        """The reference path: one fresh ``DnsMessage`` through
        :meth:`AuthoritativeServer.handle` per query.

        Kept message-based on purpose — it is the oracle the kernel
        equivalence suites diff against, and it serves every scan the
        kernel refuses (see :meth:`_run_program`).
        """
        settings = self.settings
        question = Question(DnsName.parse(domain), rtype)

        def make_query(subnet: Prefix, message_id: int) -> DnsMessage:
            return DnsMessage(
                message_id=message_id,
                question=question,
                edns=EdnsOptions(client_subnet=ClientSubnetOption(subnet)),
            )

        message_id = 0
        source_len = settings.source_prefix_len
        step = 1 << (32 - source_len)
        source_mask = ((1 << source_len) - 1) << (32 - source_len)
        # Per-query attribute lookups hoisted out of both loops.
        append_response = result.responses.append
        take = bucket.take
        handle = self.server.handle
        origin_of = self.routing.origin_of
        respect_scope = settings.respect_scope
        noerror = Rcode.NOERROR
        sent = 0
        if self._subnet_cache_len != source_len:
            self._subnet_cache = {}
            self._subnet_cache_len = source_len
        subnet_cache = self._subnet_cache
        append_sparse = result.sparse_responses.append
        stride = settings.sparse_stride << 8
        sparse_sent = 0
        sparse_answered = 0
        hb = self.heartbeat
        for start, end, is_gap in _interleave(spans, gaps):
            if hb is not None:
                hb()
            if is_gap:
                # Sparse probing of unrouted space, once per stride: the
                # same gate calls (and hence the same fault draws) as the
                # kernel's gap loop, driven through real messages.  Ids
                # share the routed probes' counter, and answered probes
                # land in ``sparse_responses`` instead of being dropped.
                cursor = (start + stride - 1) // stride * stride
                while cursor + 255 <= end:
                    subnet = Prefix(4, cursor, 24)
                    message_id = (message_id + 1) & 0xFFFF
                    if gate is None:
                        take()
                        sparse_sent += 1
                    else:
                        delivered, takes = gate.send(cursor, subnet)
                        sparse_sent += takes
                        if not delivered:
                            cursor += stride
                            continue
                    response = handle(make_query(subnet, message_id))
                    answers = response.answers
                    if response.rcode == noerror and answers:
                        ecs = response.client_subnet
                        scope = ecs.scope_prefix_length if ecs is not None else 24
                        addresses = tuple(
                            rr.rdata for rr in answers if rr.rtype in _ADDRESS_RTYPES
                        )
                        answer_asn = origin_of(addresses[0]) if addresses else None
                        sparse_answered += 1
                        append_sparse(
                            EcsResponse(subnet, scope, addresses, answer_asn)
                        )
                    cursor += stride
                continue
            cursor = start
            while cursor <= end:
                value = cursor & source_mask
                subnet = subnet_cache.get(value)
                if subnet is None:
                    subnet = Prefix(4, value, source_len)
                    subnet_cache[value] = subnet
                message_id = (message_id + 1) & 0xFFFF
                if gate is None:
                    take()
                    sent += 1
                else:
                    delivered, takes = gate.send(value, subnet)
                    sent += takes
                    if not delivered:
                        cursor = value + step
                        continue
                response = handle(make_query(subnet, message_id))
                answers = response.answers
                if response.rcode == noerror and answers:
                    edns = response.edns
                    ecs = edns.client_subnet if edns is not None else None
                    scope = (
                        ecs.scope_prefix_length if ecs is not None else source_len
                    )
                    addresses = tuple(
                        rr.rdata for rr in answers if rr.rtype in _ADDRESS_RTYPES
                    )
                    answer_asn = origin_of(addresses[0]) if addresses else None
                    append_response(
                        EcsResponse(subnet, scope, addresses, answer_asn)
                    )
                    if respect_scope and scope < source_len:
                        # Skip to the end of the declared scope block
                        # (subnet.truncate(scope).broadcast_value + 1).
                        cursor = (
                            subnet.value | ((1 << (32 - scope)) - 1)
                        ) + 1
                        continue
                cursor = value + step
        result.queries_sent += sent + sparse_sent
        result.sparse_queries += sparse_sent
        result.sparse_answered += sparse_answered


def merge_ranges(
    ranges: list[tuple[int, int]] | tuple,
) -> list[tuple[int, int]]:
    """Sort inclusive ``(start, end)`` ranges and merge touching pieces.

    The normalisation :meth:`EcsScanner.scan_regions` applies to caller
    worklists: out-of-order, duplicate, or back-to-back block ranges
    collapse into the disjoint ascending shape ``scan_ranges`` walks.
    Merging adjacent ranges never changes the issued queries — a scope
    skip lands on the next block's start either way — it only shortens
    the span list the kernels and the shard planner iterate.
    """
    merged: list[tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1] + 1:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _merge_spans(prefixes: list[Prefix]) -> list[tuple[int, int]]:
    """Merge sorted prefixes into disjoint (start, end) integer spans."""
    spans: list[tuple[int, int]] = []
    for prefix in prefixes:
        start, end = prefix.value, prefix.broadcast_value
        if spans and start <= spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], max(spans[-1][1], end))
        else:
            spans.append((start, end))
    return spans


def _span_gaps(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The unrouted gaps *between* merged spans (sparse-probe targets).

    Mirrors the sequential scan semantics: space before the first span
    counts as a gap, the trailing space after the last span does not (it
    was never sparse-scanned, and stays that way).
    """
    gaps: list[tuple[int, int]] = []
    previous_end = 0
    for start, end in spans:
        if start > previous_end:
            gaps.append((previous_end, start - 1))
        previous_end = end + 1
    return gaps


def _interleave(
    spans: list[tuple[int, int]], gaps: list[tuple[int, int]]
) -> list[tuple[int, int, bool]]:
    """Merge spans and gaps into one address-ordered work list.

    Spans and gaps are each sorted and mutually disjoint, so sorting the
    union by start address puts every gap right before the span that
    follows it — the sequential scan order.
    """
    pieces = [(start, end, False) for start, end in spans]
    pieces += [(start, end, True) for start, end in gaps]
    pieces.sort()
    return pieces

"""Authoritative zone data.

A :class:`Zone` owns an apex name, an SOA, and a set of records indexed
by owner name and type.  Lookups distinguish NXDOMAIN (no records at the
name at all) from NODATA (records exist, but not of the queried type) —
a distinction the blocking study depends on, since blocking resolvers
forge exactly these shapes.

Besides static records, a zone supports *dynamic names*: a callable
registered for an (owner, rtype) pair computes the record set per query,
optionally as a function of the ECS client subnet.  The relay service
registers its ingress assignment logic this way, mirroring how Route 53
serves subnet-dependent answers for ``mask.icloud.com``.

A dynamic name may also register an *answer table*: the current epoch's
v4 answer partition (ascending row starts covering the whole IPv4
space, one answer index per row) plus the answers it indexes.  The
server's answer cache (:mod:`repro.dns.answer_cache`) answers an IPv4
ECS query on such a name by bisecting the row starts and calling the
row's ``answer.produce()``, which replays the per-query tail (the relay
service's record rotation) exactly as the handler would; the batch
kernel's replay programs are slices of the same partition.  Static
names and NXDOMAIN resolve to one constant :class:`LookupResult` per
(name, rtype) (:meth:`Zone.static_result`).  Freshness hangs off
:meth:`Zone.epoch_token`: the zone's content version plus any
registered epoch sources (the relay service contributes its fleets'
deployment epochs, driven by the shared SimClock).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ZoneError
from repro.dns.name import DnsName
from repro.dns.rr import RRClass, RRType, ResourceRecord, SoaData, record_addresses
from repro.netmodel.addr import IPAddress, Prefix

#: A dynamic name handler: receives the queried name and the effective
#: client subnet (the ECS source, or None), and returns the answer
#: records plus the ECS scope prefix length the answer is valid for
#: (None lets the server's EcsPolicy decide).
DynamicHandler = Callable[
    [DnsName, Optional[Prefix]], tuple[list[ResourceRecord], Optional[int]]
]


#: An answer-table source: returns ``(partition, answers)`` for the
#: current epoch, or None when the name's answers cannot be tabulated
#: (e.g. nested assignment units).  ``partition.starts`` holds ascending
#: ``array('I')`` row starts, the first at 0, so every IPv4 address
#: falls in exactly one row; ``partition.roster_index[row]`` indexes
#: ``answers``, whose ``produce()`` returns one query's
#: :class:`LookupResult` (advancing any per-query state exactly as the
#: dynamic handler would for a v4 client subnet inside that row).
AnswerTableSource = Callable[[], Optional[tuple[object, list]]]


@dataclass(slots=True)
class LookupResult:
    """Outcome of a zone lookup."""

    exists: bool
    records: list[ResourceRecord] = field(default_factory=list)
    scope_override: int | None = None
    #: The A/AAAA addresses of ``records`` in order, when the producer
    #: shares a decoded tuple (relay rotations, static constants); None
    #: leaves decoding to :meth:`repro.dns.message.DnsMessage.answer_addresses`.
    addresses: tuple[IPAddress, ...] | None = None

    @property
    def is_nodata(self) -> bool:
        """Name exists but has no records of the queried type."""
        return self.exists and not self.records


class Zone:
    """One authoritative zone."""

    def __init__(self, apex: DnsName | str, soa: SoaData | None = None) -> None:
        if isinstance(apex, str):
            apex = DnsName.parse(apex)
        self.apex = apex
        if soa is None:
            soa = SoaData(
                mname=apex.child("ns1"),
                rname=apex.child("hostmaster"),
                serial=1,
            )
        self.soa = soa
        #: Content version: bumped on every record/handler registration so
        #: answer caches keyed on :meth:`epoch_token` can never serve data
        #: from before a zone edit.
        self.version = 0
        self._static: dict[DnsName, dict[RRType, list[ResourceRecord]]] = {}
        self._dynamic: dict[tuple[DnsName, RRType], DynamicHandler] = {}
        self._tables: dict[tuple[DnsName, RRType], AnswerTableSource] = {}
        self._dynamic_names: set[DnsName] = set()
        self._epoch_sources: list[Callable[[], object]] = []
        self._epoch_horizons: list[Callable[[], float] | None] = []
        self._replay_enumerators: dict[tuple[DnsName, RRType], Callable] = {}
        self._shard_hooks: list[object] = []
        self._mutation_sources: list[Callable[[], object]] = []

    def _check_in_zone(self, name: DnsName) -> None:
        if not name.is_subdomain_of(self.apex):
            raise ZoneError(f"{name} is not within zone {self.apex}")

    def add_record(self, record: ResourceRecord) -> None:
        """Add a static record (owner must be inside the zone)."""
        self._check_in_zone(record.name)
        by_type = self._static.setdefault(record.name, {})
        by_type.setdefault(record.rtype, []).append(record)
        self.version += 1

    def add_dynamic(
        self,
        name: DnsName | str,
        rtype: RRType,
        handler: DynamicHandler,
        table: AnswerTableSource | None = None,
    ) -> None:
        """Register a per-query handler (and optional answer table) for (name, rtype)."""
        if isinstance(name, str):
            name = DnsName.parse(name)
        self._check_in_zone(name)
        key = (name, rtype)
        if key in self._dynamic:
            raise ZoneError(f"dynamic handler already registered for {name} {rtype.name}")
        self._dynamic[key] = handler
        if table is not None:
            self._tables[key] = table
        self._dynamic_names.add(name)
        self.version += 1

    def add_epoch_source(
        self,
        source: Callable[[], object],
        horizon: Callable[[], float] | None = None,
    ) -> None:
        """Register a callable whose value participates in :meth:`epoch_token`.

        Dynamic-handler owners whose answers depend on external state
        (e.g. relay fleet deployment) register a source returning that
        state's epoch; answer caches are invalidated whenever any source's
        value changes.

        ``horizon``, when given, returns the earliest sim-clock time at
        which the source's value may next change (see
        :meth:`epoch_horizon`).  A source without a horizon makes the
        zone's epochs unbounded-unknown, which disables the batch-replay
        scan kernel (it would have no safe batch length).
        """
        self._epoch_sources.append(source)
        self._epoch_horizons.append(horizon)

    def epoch_horizon(self) -> float | None:
        """Until when (sim time) the current :meth:`epoch_token` holds.

        The minimum over the registered sources' horizons: the current
        token is guaranteed stable for any ``clock.now`` strictly below
        the returned time, so batch executors may replay cached answers
        without re-checking the token until then.  ``math.inf`` when no
        epoch sources are registered (only explicit zone edits change the
        token, and those bump ``version`` between scans, not during one).
        None when any source declared no horizon — the token may change
        at any moment and per-query validation is required.
        """
        horizons = self._epoch_horizons
        if not horizons:
            return math.inf
        earliest = math.inf
        for horizon in horizons:
            if horizon is None:
                return None
            when = horizon()
            if when < earliest:
                earliest = when
        return earliest

    def add_replay_enumerator(
        self,
        name: DnsName | str,
        rtype: RRType,
        enumerator: Callable[[int, int], tuple | None],
    ) -> None:
        """Register a range enumerator for (name, rtype) replay programs.

        ``enumerator(lo, hi)`` returns the answer structure of the whole
        address range ``[lo, hi]`` for the *current* epoch as
        ``(row_starts, row_ends, row_answer, specs)``: three equal-length
        ``array('I')`` columns of rows in ascending address order
        (inclusive bounds, every address covered exactly once, the first
        row starting at ``lo`` and the last ending at ``hi``) and the
        replay spec tuples ``row_answer`` indexes (many rows may share
        one spec).  The enumerator owns contiguity: the answer cache
        checks only the endpoints and the column lengths when it wraps
        the columns in a replay program
        (:meth:`repro.dns.answer_cache.ScopeAnswerCache.replay_program`).
        It may return None when the current state cannot be enumerated
        safely (e.g. nested assignment units); the scan then falls back
        to per-query lookups.
        """
        if isinstance(name, str):
            name = DnsName.parse(name)
        self._check_in_zone(name)
        key = (name, rtype)
        if key in self._replay_enumerators:
            raise ZoneError(
                f"replay enumerator already registered for {name} {rtype.name}"
            )
        self._replay_enumerators[key] = enumerator
        self.version += 1

    def replay_enumerator(
        self, name: DnsName, rtype: RRType
    ) -> Callable[[int, int], tuple | None] | None:
        """The registered range enumerator for (name, rtype), or None."""
        return self._replay_enumerators.get((name, rtype))

    def add_shard_hook(self, hook: object) -> None:
        """Register per-query mutable state for sharded scan execution.

        A *shard hook* owns answer state that advances per query (the
        relay service registers its rotation counters).  The sharded
        campaign executor drives hooks in registration order:
        ``hook.reseed(base)`` in a worker before each shard task,
        ``hook.delta_snapshot()`` after it, and ``hook.apply_deltas(...)``
        on the parent's hooks when merging shard results — so the parent
        ends each scan in the same aggregate state a sequential scan
        would have produced.
        """
        self._shard_hooks.append(hook)

    def shard_hooks(self) -> list[object]:
        """Registered shard hooks, in registration order."""
        return list(self._shard_hooks)

    def add_mutation_source(self, source: Callable[[], object]) -> None:
        """Register backing state that can be *edited* between scans.

        Unlike epoch sources, mutation sources must exclude anything
        that is a pure function of simulated time: consumers compare
        :meth:`mutation_token` across clock advances to decide whether
        a forked replica of the served world has gone stale (the
        sharded executor respawns its worker pool on a change), so a
        time-derived term would force a pointless respawn every time
        the clock crosses an epoch boundary.
        """
        self._mutation_sources.append(source)

    def mutation_token(self) -> tuple:
        """Zone content version plus all registered mutable backing state."""
        return (self.version, *[source() for source in self._mutation_sources])

    def epoch_token(self) -> tuple:
        """The zone's current freshness token (content version + sources)."""
        sources = self._epoch_sources
        if not sources:
            return (self.version,)
        if len(sources) == 1:
            # One source is the common case (the relay zone) and this
            # runs per query on the fast path; skip the list build.
            return (self.version, sources[0]())
        return (self.version, *[source() for source in sources])

    def names(self) -> set[DnsName]:
        """All names with static records or dynamic handlers."""
        return set(self._static) | set(self._dynamic_names)

    def lookup(
        self, name: DnsName, rtype: RRType, client_subnet: Prefix | None = None
    ) -> LookupResult:
        """Resolve a (name, type) within this zone.

        Returns ``exists=False`` for NXDOMAIN; an empty record list with
        ``exists=True`` for NODATA.
        """
        self._check_in_zone(name)
        handler = self._dynamic.get((name, rtype))
        if handler is not None:
            records, scope = handler(name, client_subnet)
            return LookupResult(exists=True, records=list(records), scope_override=scope)
        by_type = self._static.get(name)
        if by_type is None and name not in self._dynamic_names:
            return LookupResult(exists=False)
        records = list(by_type.get(rtype, [])) if by_type else []
        # Chase CNAMEs one step within the zone (enough for our zones).
        if not records and by_type and RRType.CNAME in by_type:
            cname = by_type[RRType.CNAME][0]
            records = [cname]
            assert isinstance(cname.rdata, DnsName)
            if cname.rdata.is_subdomain_of(self.apex):
                target = self.lookup(cname.rdata, rtype, client_subnet)
                records.extend(target.records)
        return LookupResult(exists=True, records=records)

    def answer_table(self, name: DnsName, rtype: RRType) -> tuple[object, list] | None:
        """The current epoch's ``(partition, answers)`` for a dynamic name.

        None when (name, rtype) registered no :data:`AnswerTableSource`
        or its source declines (see :meth:`add_dynamic`).
        """
        source = self._tables.get((name, rtype))
        return source() if source is not None else None

    def static_result(self, name: DnsName, rtype: RRType) -> LookupResult | None:
        """The subnet-independent answer for (name, type), or None.

        Static records, NODATA and NXDOMAIN answers do not depend on the
        client subnet, so the answer cache keeps one per epoch.  None
        for a dynamic handler's (name, type) and for a CNAME chase,
        whose target may be dynamic: those derive per query.
        """
        if (name, rtype) in self._dynamic:
            return None
        by_type = self._static.get(name)
        if by_type and rtype not in by_type and RRType.CNAME in by_type:
            return None
        result = self.lookup(name, rtype)
        records = tuple(result.records)
        result.records = records
        result.addresses = record_addresses(records)
        return result

    def soa_record(self) -> ResourceRecord:
        """The zone's SOA as a resource record (for negative responses)."""
        return ResourceRecord(self.apex, RRType.SOA, RRClass.IN, 900, self.soa)

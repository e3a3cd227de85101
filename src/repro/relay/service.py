"""The iCloud Private Relay control plane.

:class:`PrivateRelayService` wires together everything a client touches:

* the **assignment map** — which ingress operator and regional pod
  serves each client subnet.  This is what the authoritative DNS zone's
  dynamic handlers consult, and its /24-or-coarser granularity is what
  ECS scope answers expose;
* the **DNS zone** for ``mask.icloud.com`` / ``mask-h2.icloud.com``,
  built from the assignment map and the ingress fleets;
* **egress selection** — sticky operator choice with rare re-draws,
  per-connection address rotation within the local pool;
* **tunnel establishment** via the MASQUE layer, producing
  :class:`RelaySession` objects whose legs encode the visibility split;
* the **QUIC listener** behaviour of every ingress address (silent to
  foreign handshakes, version negotiation on unknown versions).
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass, field

from repro.errors import ConnectionFailed, RelayError, RelayUnavailable
from repro.faults.plan import FaultPlan, fault_key
from repro.dns.name import DnsName
from repro.dns.rr import RRType, ResourceRecord, a_record, aaaa_record
from repro.dns.zone import LookupResult, Zone
from repro.masque.http import ConnectRequest, HttpVersion
from repro.masque.proxy import MasqueTunnel, establish_tunnel
from repro.masque.streams import Direction, PaddingPolicy, TunnelDataPlane
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.asn import WellKnownAS
from repro.netmodel.bgp import RoutingTable
from repro.netmodel.geo import GeoPoint
from repro.netmodel.prefix_trie import DualStackTrie
from repro.quic.endpoint import RelayQuicEndpoint
from repro.relay.egress import EgressFleet
from repro.relay.geohash import geohash_encode
from repro.relay.ingress import IngressFleet, RelayProtocol
from repro.simtime import SimClock
from repro.telemetry import NULL_TELEMETRY, Telemetry

RELAY_DOMAIN_QUIC = "mask.icloud.com."
RELAY_DOMAIN_FALLBACK = "mask-h2.icloud.com."
RELAY_ZONE_APEX = "icloud.com."

#: Maximum address records per DNS response, as observed in the paper
#: ("responses with up to eight different records").
MAX_RECORDS_PER_RESPONSE = 8


class RotationCounters(dict):
    """Per-pod answer-rotation counters with a configurable stream base.

    Behaves as a plain ``dict`` keyed ``(pod, protocol, version)`` except
    that a missing key reads as :attr:`base` instead of raising — with
    the default ``base=0`` the rotation sequence is bit-identical to the
    previous ``dict.get(key, 0)`` behaviour.

    The base is what makes sharded scans deterministic: the rotation
    offset a query observes is the one order-dependent piece of an ECS
    answer, so each shard worker reseeds its replica's counters from
    (campaign seed, shard index) before a task.  Shard results then
    depend only on the shard's own query order, never on which worker
    ran which shard first.
    """

    __slots__ = ("base",)

    def __init__(self, base: int = 0) -> None:
        super().__init__()
        self.base = base

    def __missing__(self, key) -> int:
        return self.base

    def reseed(self, base: int) -> None:
        """Drop all counters and restart every stream at ``base``."""
        self.clear()
        self.base = base

    def delta_snapshot(self) -> dict:
        """Per-key query counts accumulated since the last reseed."""
        base = self.base
        return {key: value - base for key, value in self.items()}

    def apply_deltas(self, deltas: dict) -> None:
        """Advance streams by merged per-key counts (parent-side merge).

        Every key's counter only ever increments by one per query, so the
        merged end state equals the sequential end state whenever the
        per-key query counts match — which the shard partition guarantees
        (same query set, split across shards).
        """
        for key, delta in deltas.items():
            self[key] = self[key] + delta

    def state_snapshot(self) -> dict:
        """A JSON-safe snapshot of the full rotation state.

        Campaign checkpoints persist this so a resumed run's rotation
        streams continue exactly where the killed run's left off — the
        one piece of scan-visible state that lives outside the results.
        """
        return {
            "base": self.base,
            "counters": sorted(
                (
                    [pod, protocol.value, version, count]
                    for (pod, protocol, version), count in self.items()
                ),
                # Unassigned-space streams use a None pod.
                key=lambda row: (row[0] or "", row[1], row[2]),
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Reset to a :meth:`state_snapshot` (checkpoint resume)."""
        self.clear()
        self.base = state["base"]
        for pod, protocol, version, count in state["counters"]:
            self[(pod, RelayProtocol(protocol), version)] = count


@dataclass(frozen=True, slots=True)
class AssignmentUnit:
    """One block of client space and how it is served.

    ``scope_len`` is the granularity the name server declares in its ECS
    scope field: all /24s inside ``prefix`` receive the same answer, and
    a compliant scanner queries the unit only once.
    """

    prefix: Prefix
    scope_len: int
    operator_asn: int
    pod: str

    def __post_init__(self) -> None:
        if self.scope_len < self.prefix.length:
            raise RelayError(
                f"scope /{self.scope_len} wider than assignment prefix {self.prefix}"
            )


#: The highest IPv4 address value: an answer partition covers [0, this].
_V4_MAX = (1 << 32) - 1


class AnswerPartition:
    """The v4 answer partition of one assignment-map version.

    Disjoint assignment units, plus fallback rows for the unassigned
    space between and around them, cover the whole IPv4 space in
    ascending address order as three parallel ``array('I')`` columns:
    ``starts``, inclusive ``ends`` and a ``roster_index`` per row.
    ``roster`` holds one representative unit per distinct ``(pod,
    operator AS, scope length)`` key, since a relay answer depends on
    its unit only through those three fields, and ``None`` at index 0
    for the fallback answer of unassigned space.  Contiguity is checked
    once, here.

    The partition depends on the map alone, never on the deployment
    epoch: paired with the current epoch's answer per roster entry it is
    the relay names' answer table, which the answer cache bisects per
    query and the replay enumerator slices per scan range.
    """

    __slots__ = ("version", "starts", "ends", "roster_index", "roster", "__weakref__")

    def __init__(
        self,
        version: int,
        unit_starts: list[int],
        unit_ends: list[int],
        units: list[AssignmentUnit],
    ) -> None:
        starts: list[int] = []
        ends: list[int] = []
        index: list[int] = []
        roster: list[AssignmentUnit | None] = [None]
        keys: dict[tuple, int] = {}
        cursor = 0
        for start, end, unit in zip(unit_starts, unit_ends, units):
            if start > cursor:
                starts.append(cursor)
                ends.append(start - 1)
                index.append(0)
            key = (unit.pod, unit.operator_asn, unit.scope_len)
            entry = keys.get(key)
            if entry is None:
                entry = keys[key] = len(roster)
                roster.append(unit)
            starts.append(start)
            ends.append(end)
            index.append(entry)
            cursor = end + 1
        if cursor <= _V4_MAX:
            starts.append(cursor)
            ends.append(_V4_MAX)
            index.append(0)
        if (
            starts[0] != 0
            or ends[-1] != _V4_MAX
            or any(e < s for s, e in zip(starts, ends))
            or any(s != e + 1 for s, e in zip(starts[1:], ends))
        ):
            raise RelayError("assignment units do not partition the v4 space")
        self.version = version
        self.starts = array("I", starts)
        self.ends = array("I", ends)
        self.roster_index = array("I", index)
        self.roster = roster

    def slice(self, lo: int, hi: int) -> tuple[array, array, array]:
        """``(starts, ends, roster_index)`` of the rows covering ``[lo, hi]``.

        Array slices (C-level copies), with the first start clipped to
        ``lo`` and the last end to ``hi``.
        """
        if not 0 <= lo <= hi <= _V4_MAX:
            raise ValueError(f"bad v4 range [{lo}, {hi}]")
        first = bisect.bisect_right(self.starts, lo) - 1
        stop = bisect.bisect_left(self.ends, hi) + 1
        starts = self.starts[first:stop]
        ends = self.ends[first:stop]
        starts[0] = lo
        ends[-1] = hi
        return starts, ends, self.roster_index[first:stop]


class AssignmentMap:
    """Client subnet → assignment unit, with longest-prefix semantics."""

    def __init__(self) -> None:
        self._trie: DualStackTrie[AssignmentUnit] | None = None
        self._units: list[AssignmentUnit] = []
        # Units per address family in start-value order (parallel lists),
        # for the bisect fast path and the nesting probes.
        self._starts: dict[int, list[int]] = {4: [], 6: []}
        self._ends: dict[int, list[int]] = {4: [], 6: []}
        self._sorted_units: dict[int, list[AssignmentUnit]] = {4: [], 6: []}
        self._nested = False
        #: The current version's v4 answer partition, built on first use
        #: and dropped by every edit (see :meth:`answer_partition`).
        self._partition: AnswerPartition | None = None
        #: Bumped on every :meth:`add` and :meth:`remove`; participates
        #: in the relay zone's epoch token so cached answer tables never
        #: survive a map edit.
        self.version = 0

    def add(self, unit: AssignmentUnit) -> AssignmentUnit:
        """Register a unit."""
        prefix = unit.prefix
        # Detect units nesting inside or covering existing ones.  Only
        # disjoint units partition the address space (see
        # :meth:`answer_partition`); with nesting, :meth:`lookup` falls
        # back from bisect to the trie.  Two
        # prefixes either nest or are disjoint (aligned power-of-two
        # ranges cannot partially overlap), so both directions reduce to
        # bisect probes of the sorted starts/ends — the trie itself is
        # only materialised if nesting ever appears (worldgen's ~40 k
        # disjoint units never pay for building it).
        starts = self._starts[prefix.version]
        ends = self._ends[prefix.version]
        pos = bisect.bisect_left(starts, prefix.value)
        if pos < len(starts) and starts[pos] <= prefix.broadcast_value:
            self._nested = True
        elif pos > 0 and ends[pos - 1] >= prefix.value:
            self._nested = True
        starts.insert(pos, prefix.value)
        ends.insert(pos, prefix.broadcast_value)
        self._sorted_units[prefix.version].insert(pos, unit)
        if self._trie is not None:
            self._trie.insert(prefix, unit)
        self._units.append(unit)
        self._partition = None
        self.version += 1
        return unit

    def remove(self, prefix: Prefix) -> AssignmentUnit:
        """Unregister the unit rooted exactly at ``prefix``.

        Deployment churn (block withdrawals, unit replacements) edits a
        live map; bumping :attr:`version` rides the zone's epoch token,
        so every cached answer table and replay program built against the
        old partition is invalidated the moment the unit disappears.
        The longest-match trie, if one was ever materialised, is dropped
        and lazily rebuilt — removals are rare next to lookups.  If units
        nested before, the nesting flag is recomputed: removing the only
        nested unit hands the map back to the bisect and replay paths.
        """
        starts = self._starts[prefix.version]
        units = self._sorted_units[prefix.version]
        pos = bisect.bisect_left(starts, prefix.value)
        while pos < len(starts) and starts[pos] == prefix.value:
            if units[pos].prefix == prefix:
                break
            pos += 1
        else:
            raise RelayError(f"no assignment unit rooted at {prefix}")
        unit = units[pos]
        del starts[pos]
        del self._ends[prefix.version][pos]
        del units[pos]
        self._units.remove(unit)
        self._trie = None
        self._partition = None
        if self._nested:
            # Sorted by start, two units nest iff some neighbouring pair
            # does, so one adjacency pass per family decides the flag.
            self._nested = any(
                any(e >= s for e, s in zip(self._ends[v], self._starts[v][1:]))
                for v in (4, 6)
            )
        self.version += 1
        return unit

    def _built_trie(self) -> DualStackTrie:
        """The longest-match trie, built on first (nested-path) touch."""
        trie = self._trie
        if trie is None:
            trie = DualStackTrie()
            for unit in self._units:
                trie.insert(unit.prefix, unit)
            self._trie = trie
        return trie

    def __len__(self) -> int:
        return len(self._units)

    def units(self) -> list[AssignmentUnit]:
        """All registered units."""
        return list(self._units)

    @property
    def has_nested_units(self) -> bool:
        """Whether any two registered units overlap or nest."""
        return self._nested

    def answer_partition(self) -> AnswerPartition | None:
        """The v4 answer partition of the current map version.

        Built on first use after an edit and shared by every caller
        until the next :meth:`add` or :meth:`remove` drops it, so only
        the current version's partition is ever held.  None while units
        nest: a flat partition would be ambiguous then.
        """
        if self._nested:
            return None
        partition = self._partition
        if partition is None:
            partition = self._partition = AnswerPartition(
                self.version,
                self._starts[4],
                self._ends[4],
                self._sorted_units[4],
            )
        return partition

    def lookup(self, subnet: Prefix) -> AssignmentUnit | None:
        """The unit serving a client subnet, or None if unserved.

        A covering unit wins; a subnet wider than its unit still matches
        by its first address.  With disjoint units both cases reduce to
        "the unit containing the subnet's first address", found by one
        bisect; nested units take the (slower, longest-match) trie path.
        """
        if self._nested:
            trie = self._built_trie()
            hit = trie.covering(subnet)
            if hit is not None:
                return hit[1]
            hit2 = trie.lookup(subnet.network_address)
            return hit2[1] if hit2 else None
        version = subnet.version
        starts = self._starts[version]
        pos = bisect.bisect_right(starts, subnet.value) - 1
        if pos >= 0 and self._ends[version][pos] >= subnet.value:
            return self._sorted_units[version][pos]
        return None


@dataclass
class RelaySession:
    """An established relay connection of one client."""

    tunnel: MasqueTunnel
    protocol: RelayProtocol
    ingress_address: IPAddress
    ingress_asn: int
    egress_operator_asn: int
    egress_address: IPAddress
    egress_asn: int
    geohash: str | None
    established_at: float
    data_plane: TunnelDataPlane = field(default_factory=TunnelDataPlane)

    #: Nominal request/response sizes for an observation fetch.
    _REQUEST_BYTES = 420
    _RESPONSE_BYTES = 2800

    def fetch(self, target, path: str = "/", tool: str = "curl") -> str:
        """Fetch from an observation target through the tunnel.

        ``target`` is an :class:`~repro.relay.observer.ObservationServer`
        or :class:`~repro.relay.observer.EchoService` — either way it
        observes only the egress address.  The exchange is accounted on
        a fresh tunnel stream, so on-path observers see (padded) sizes.
        """
        stream = self.data_plane.open_stream(self.established_at)
        self.data_plane.send(stream.stream_id, self._REQUEST_BYTES, Direction.UP)
        body = target.handle_request(
            timestamp=self.established_at,
            requester=self.egress_address,
            requester_asn=self.egress_asn,
            tool=tool,
            path=path,
        )
        self.data_plane.send(
            stream.stream_id,
            max(len(body), self._RESPONSE_BYTES),
            Direction.DOWN,
        )
        self.data_plane.close_stream(stream.stream_id)
        return body


@dataclass
class _ClientEgressState:
    """Sticky egress-operator state for one client."""

    operator_asn: int
    chosen_at: float


class _PodSupplier:
    """The epoch-stable relay roster for one (name, pod, operator) target.

    Every assignment unit pointing at the same pod serves the same relay
    list, rotation counter, and record objects — only the declared scope
    differs per unit.  Suppliers are memoised per deployment epoch on the
    service, so record construction happens once per rotation offset per
    epoch instead of once per query.  Each rotation start keeps one
    ``(records, addresses)`` pair of tuples: replies share both, so
    nothing downstream copies the records or decodes the addresses.
    """

    __slots__ = (
        "relays",
        "counter_key",
        "_name",
        "_version",
        "_rotations",
        "_addr_rotations",
    )

    def __init__(
        self,
        name: DnsName,
        pod: str | None,
        protocol: RelayProtocol,
        version: int,
        relays: list,
    ) -> None:
        self.relays = relays
        self.counter_key = (pod, protocol, version)
        self._name = name
        self._version = version
        self._rotations: dict[
            int, tuple[tuple[ResourceRecord, ...], tuple[IPAddress, ...]]
        ] = {}
        self._addr_rotations: dict[int, tuple[IPAddress, ...]] = {}

    def rotation(
        self, start: int
    ) -> tuple[tuple[ResourceRecord, ...], tuple[IPAddress, ...]]:
        """The ≤8-record answer window at relay index ``start``, and its
        address tuple (the very one :meth:`rotation_addresses` returns)."""
        out = self._rotations.get(start)
        if out is None:
            addresses = self.rotation_addresses(start)
            make = a_record if self._version == 4 else aaaa_record
            name = self._name
            records = tuple(make(name, address) for address in addresses)
            out = self._rotations[start] = (records, addresses)
        return out

    def rotation_addresses(self, start: int) -> tuple[IPAddress, ...]:
        """The address tuple of the rotation window at ``start``.

        The batch-replay kernel consumes addresses directly (it never
        builds record objects), so the window is sliced straight from
        the relay roster — the same ``relays[(start + i) % total]``
        walk :meth:`rotation` wraps in records — without constructing
        the records at all.  :meth:`rotation` pairs its records with this
        very tuple, so both paths hand out the same tuple object.
        """
        out = self._addr_rotations.get(start)
        if out is None:
            relays = self.relays
            total = len(relays)
            count = (
                MAX_RECORDS_PER_RESPONSE
                if total > MAX_RECORDS_PER_RESPONSE
                else total
            )
            out = tuple(relays[(start + i) % total].address for i in range(count))
            self._addr_rotations[start] = out
        return out


class _BlockAnswer:
    """One client block's relay answer, replayed per query.

    Pairs a shared :class:`_PodSupplier` with the block's unit and
    declared scope.  The impure tail (the pod's rotation counter) runs in
    :meth:`produce` on every query, cached or not, so the answer sequence
    is bit-identical to the plain handler's.
    """

    __slots__ = ("_counters", "_supplier", "unit", "scope", "replay")

    def __init__(
        self,
        counters: dict,
        supplier: _PodSupplier,
        unit: AssignmentUnit | None,
        scope: int | None,
    ) -> None:
        self._counters = counters
        self._supplier = supplier
        self.unit = unit
        self.scope = scope
        #: The flat replay spec (see :meth:`replay_spec`), prebuilt:
        #: answers are immutable and the program compiler reads one spec
        #: per answer per epoch, so an attribute beats a method call.
        self.replay = (
            scope,
            counters,
            supplier.counter_key,
            len(supplier.relays),
            supplier,
        )

    def produce(self) -> LookupResult:
        supplier = self._supplier
        relays = supplier.relays
        if not relays:
            return LookupResult(True, (), self.scope, ())
        counters = self._counters
        key = supplier.counter_key
        # A missing key reads as the counters' stream base (0 outside
        # sharded execution), via RotationCounters.__missing__.
        offset = counters[key]
        counters[key] = offset + 1
        start = offset % len(relays)
        window = supplier._rotations.get(start)
        if window is None:
            window = supplier.rotation(start)
        return LookupResult(True, window[0], self.scope, window[1])

    def replay_spec(self) -> tuple:
        """The flat spec the batch-replay kernel links against.

        ``(scope override, rotation counters, counter key, relay count,
        supplier)`` — everything :meth:`produce` consults, exposed so the
        kernel can advance the rotation stream with per-batch local
        counts and fetch answer windows via
        :meth:`_PodSupplier.rotation_addresses`, reproducing produce()'s
        sequence exactly without per-query LookupResult objects.
        """
        return self.replay


@dataclass
class PrivateRelayService:
    """The relay network's control and data plane."""

    clock: SimClock
    ingress_v4: IngressFleet
    ingress_v6: IngressFleet
    egress_fleet: EgressFleet
    assignment: AssignmentMap
    routing: RoutingTable
    rng: random.Random = field(default_factory=lambda: random.Random(0x1C10))
    #: Probability that an established client re-draws its egress operator
    #: on a new connection (a handful of changes across a day of 5-minute
    #: scans => order 1e-2).
    operator_switch_probability: float = 0.012
    #: Countries where local law forbids the service (requests refused).
    unavailable_countries: frozenset[str] = frozenset({"CN", "BY", "SA"})
    #: Observable-size quantisation of tunnel traffic (0 = no padding).
    padding: PaddingPolicy = field(default_factory=lambda: PaddingPolicy(512))
    #: Observability sink for connection-plane counters (ingress
    #: selections, sticky/switch egress-operator draws, refusals).  The
    #: DNS answer path is *not* instrumented here — it is per-query hot
    #: and accounted by the server/cache counters instead.
    telemetry: Telemetry = field(default=NULL_TELEMETRY, repr=False)
    #: Deterministic fault plan for the connection plane (None = no
    #: injection).  Transient connect failures are keyed by (client key,
    #: per-client attempt ordinal), so a retrying client re-draws and a
    #: persistent one eventually connects.
    fault_plan: "FaultPlan | None" = field(default=None, repr=False)
    _operator_state: dict[str, _ClientEgressState] = field(default_factory=dict)
    _connect_attempts: dict[str, int] = field(default_factory=dict, repr=False)
    _quic_endpoints: dict[IPAddress, RelayQuicEndpoint] = field(default_factory=dict)
    _pod_counters: RotationCounters = field(default_factory=RotationCounters)
    #: Window cache for :meth:`_deployment_epoch_token` — the token is
    #: constant between deployment boundaries, but the clock advances on
    #: every rate-limited scan query, so the token would otherwise be
    #: recomputed per query.  Layout: (valid_from, valid_until, v4
    #: generation, v6 generation, assignment version, token).
    _epoch_token_window: tuple | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # DNS: the authoritative zone for the relay domains
    # ------------------------------------------------------------------

    def build_zone(self) -> Zone:
        """The ``icloud.com`` zone with dynamic relay-domain handlers.

        Each relay name and type registers a per-query handler (the
        reference path) and an answer table over the assignment map's v4
        answer partition (the answer cache's per-query path); the A
        names also register the batch kernel's replay enumerator, a
        slice of that same table.  The zone's epoch token is extended
        with the fleets' deployment epochs so cached tables never
        outlive a relay activation or retirement.
        """
        zone = Zone(RELAY_ZONE_APEX)
        for domain, protocol in (
            (RELAY_DOMAIN_QUIC, RelayProtocol.QUIC),
            (RELAY_DOMAIN_FALLBACK, RelayProtocol.TCP_FALLBACK),
        ):
            name = DnsName.parse(domain)
            for rtype, version in ((RRType.A, 4), (RRType.AAAA, 6)):
                derive, table = self._make_deriver(name, protocol, version)
                zone.add_dynamic(name, rtype, self._make_handler(derive), table)
                if version == 4:
                    # The batch-replay scan kernel covers the v4 ECS
                    # enumeration (the paper's scan); v6 names keep the
                    # per-query path.
                    zone.add_replay_enumerator(
                        name, rtype, self._make_enumerator(table)
                    )
        zone.add_epoch_source(
            self._deployment_epoch_token, horizon=self._deployment_epoch_horizon
        )
        zone.add_mutation_source(self._mutation_token)
        zone.add_shard_hook(self._pod_counters)
        return zone

    def _mutation_token(self) -> tuple[int, int, int]:
        """Assignment-map and fleet-composition versions — no time terms.

        Everything here changes only when the served world is *edited*
        (a deployment push, a fleet roster change), never from a clock
        advance: forked world replicas stay valid across months but go
        stale the moment any of these bump.
        """
        return (
            self.assignment.version,
            self.ingress_v4.epoch_generation,
            self.ingress_v6.epoch_generation,
        )

    def _deployment_epoch_token(self) -> tuple[int, int, int]:
        """Fleet deployment epochs (current simulated time) + map version.

        The token only changes at deployment boundaries, fleet
        composition edits, or assignment-map edits; inside a validity
        window the cached token object is returned as-is (this runs once
        per query on the scan fast path).
        """
        now = self.clock.now
        v4 = self.ingress_v4
        v6 = self.ingress_v6
        window = self._epoch_token_window
        if (
            window is not None
            and window[0] <= now < window[1]
            and window[2] == v4.epoch_generation
            and window[3] == v6.epoch_generation
            and window[4] == self.assignment.version
        ):
            return window[5]
        lo4, hi4, e4 = v4.deployment_epoch_window(now)
        lo6, hi6, e6 = v6.deployment_epoch_window(now)
        token = (e4, e6, self.assignment.version)
        self._epoch_token_window = (
            max(lo4, lo6),
            min(hi4, hi6),
            v4.epoch_generation,
            v6.epoch_generation,
            self.assignment.version,
            token,
        )
        return token

    def _deployment_epoch_horizon(self) -> float:
        """Until when (sim time) the current deployment token holds.

        The zone registers this next to the token source: batch scan
        execution replays cached answers without re-validating the token
        for any ``clock.now`` strictly below the horizon.  Fleet
        composition and assignment-map edits bump generations/versions
        between scans, never mid-scan, so the deployment window's end is
        the only mid-scan boundary.
        """
        self._deployment_epoch_token()
        return self._epoch_token_window[1]

    def _make_deriver(self, name: DnsName, protocol: RelayProtocol, version: int):
        """The epoch-stable answer derivation of one relay (name, rtype).

        Returns ``(derive, table)``.  ``derive`` is the handler's
        per-query closure with everything it needs bound locally — the
        fleet, the assignment map's lookup, the shared pod counters —
        plus a supplier memo keyed only ``(pod, operator, deployment
        epoch)``: one deriver serves exactly one registered (name,
        rtype), so name/protocol/version need not be in the key.
        ``table`` is the zone's :data:`~repro.dns.zone.AnswerTableSource`
        over the same memos: the map's answer partition and the current
        epoch's answer per roster entry, so the answer cache and the
        replay enumerator hand out the very answer objects ``derive``
        would.
        """
        fleet = self.ingress_v4 if version == 4 else self.ingress_v6
        assignment = self.assignment
        lookup_unit = assignment.lookup
        counters = self._pod_counters
        clock = self.clock
        deployment_epoch = fleet.deployment_epoch
        fallback_asn = int(WellKnownAS.AKAMAI_PR)
        memo: dict[tuple[str, int, int], _PodSupplier] = {}
        # Everything in a _BlockAnswer is epoch-stable (the impure tail
        # lives in the *shared* counters, consulted inside produce()), so
        # one answer object serves every query of a unit within an epoch.
        # Keyed by the unit's identity — units are retained by both the
        # assignment map and the memoised answer, so ids cannot be
        # reissued.  Unassigned space collapses to two keys: fallback
        # answers declare a /16 scope for v4 subnets and none otherwise.
        answer_memo: dict[tuple[int, int], _BlockAnswer] = {}

        def answer_for(unit: AssignmentUnit | None, subnet_v4: bool) -> _BlockAnswer:
            epoch = deployment_epoch(clock.now)
            generation = fleet.epoch_generation
            if unit is not None:
                answer_key = (id(unit), epoch, generation)
            elif subnet_v4:
                answer_key = (1, epoch, generation)
            else:
                answer_key = (0, epoch, generation)
            answer = answer_memo.get(answer_key)
            if answer is not None:
                return answer
            if unit is None:
                # Unserved space still resolves: the control plane falls
                # back to the dominant operator's default pod.  Responses
                # stay single-AS ("all response records are in the same
                # AS", as the paper observed).
                pods = [p for p in fleet.pods_sorted() if not p.startswith("CC:")]
                if not pods:
                    supplier = _PodSupplier(name, None, protocol, version, [])
                    answer = _BlockAnswer(counters, supplier, None, None)
                    answer_memo[answer_key] = answer
                    return answer
                # Unassigned space is served uniformly, and the answer is
                # declared valid for a wide (/16) scope.
                unit_pod = pods[0]
                operator_asn = fallback_asn
                scope = 16 if subnet_v4 else None
            else:
                unit_pod = unit.pod
                operator_asn = unit.operator_asn
                scope = unit.scope_len
            now = clock.now
            memo_key = (unit_pod, operator_asn, epoch)
            supplier = memo.get(memo_key)
            if supplier is None:
                relays = fleet.pod_relays_cached(unit_pod, protocol, now)
                if operator_asn is not None:
                    relays = [r for r in relays if r.asn == operator_asn]
                if not relays:
                    # The pod has no relay of the assigned operator (yet):
                    # spill over to that operator's fleet-wide relays.  If
                    # the operator has none at all for this protocol — as
                    # for the Akamai TCP-fallback fleet before March 2022 —
                    # any active relay of the protocol serves, which is
                    # exactly how the fallback layer was "initially served
                    # by Apple".
                    relays = fleet.active_cached(
                        now, protocol, asn=operator_asn
                    ) or fleet.active_cached(now, protocol)
                supplier = _PodSupplier(name, unit_pod, protocol, version, relays)
                memo[memo_key] = supplier
            answer = _BlockAnswer(counters, supplier, unit, scope)
            answer_memo[answer_key] = answer
            return answer

        def derive(client_subnet: Prefix | None) -> _BlockAnswer:
            unit = lookup_unit(client_subnet) if client_subnet is not None else None
            return answer_for(
                unit, client_subnet is not None and client_subnet.version == 4
            )

        def table() -> tuple[AnswerPartition, list[_BlockAnswer]] | None:
            """The map's answer partition and the epoch's answer per
            roster entry — the per-subnet answers ``derive`` gives v4
            client subnets.  None while units nest."""
            partition = assignment.answer_partition()
            if partition is None:
                return None
            return partition, [answer_for(unit, True) for unit in partition.roster]

        return derive, table

    @staticmethod
    def _make_enumerator(table):
        def enumerate_answers(lo: int, hi: int) -> tuple | None:
            """The replay program of ``[lo, hi]`` in the current epoch.

            ``(starts, ends, answer index, specs)``: the answer table's
            partition sliced to the range (see :class:`AnswerPartition`),
            indexing one replay spec per roster entry (see
            :meth:`_BlockAnswer.replay_spec`).  Only the specs depend on
            the epoch, and each is a memo hit after the epoch's first
            compile.  None while units nest: the scan then runs
            per-query lookups.
            """
            tabulated = table()
            if tabulated is None:
                return None
            partition, answers = tabulated
            return (*partition.slice(lo, hi), [answer.replay for answer in answers])

        return enumerate_answers

    def _make_handler(self, derive):
        def handler(
            name: DnsName, client_subnet: Prefix | None
        ) -> tuple[tuple[ResourceRecord, ...], int | None]:
            result = derive(client_subnet).produce()
            return result.records, result.scope_override

        return handler

    # ------------------------------------------------------------------
    # QUIC listener surface
    # ------------------------------------------------------------------

    def quic_endpoint_for(self, address: IPAddress) -> RelayQuicEndpoint | None:
        """The QUIC listener at an address, or None (probe times out).

        Only active QUIC-protocol ingress relays listen; fallback relays
        and retired addresses produce silence.
        """
        fleet = self.ingress_v4 if address.version == 4 else self.ingress_v6
        active = fleet.active_addresses(self.clock.now, RelayProtocol.QUIC)
        if address not in active:
            return None
        endpoint = self._quic_endpoints.get(address)
        if endpoint is None:
            endpoint = RelayQuicEndpoint()
            self._quic_endpoints[address] = endpoint
        return endpoint

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def connect(
        self,
        client_address: IPAddress,
        client_asn: int,
        client_country: str,
        client_location: GeoPoint | None,
        ingress_address: IPAddress,
        target_authority: str,
        target_port: int = 80,
        preserve_location: bool = True,
        client_key: str | None = None,
        protocol: RelayProtocol = RelayProtocol.QUIC,
    ) -> RelaySession:
        """Establish one relayed connection through a chosen ingress.

        Raises :class:`RelayUnavailable` when the service does not serve
        the client's country, and :class:`RelayError` when the ingress
        address is not an active relay of the requested protocol.
        """
        registry = self.telemetry.registry
        if client_country in self.unavailable_countries:
            registry.counter("relay.connect_refused", reason="country_unavailable").inc()
            raise RelayUnavailable(
                f"iCloud Private Relay is not offered in {client_country}"
            )
        fleet = (
            self.ingress_v4 if ingress_address.version == 4 else self.ingress_v6
        )
        active = fleet.active_addresses(self.clock.now, protocol)
        if ingress_address not in active:
            registry.counter("relay.connect_refused", reason="inactive_ingress").inc()
            raise RelayError(
                f"{ingress_address} is not an active {protocol.value} ingress relay"
            )
        ingress_asn = self.routing.origin_of(ingress_address)
        if ingress_asn is None:
            registry.counter("relay.connect_refused", reason="unrouted_ingress").inc()
            raise RelayError(f"ingress address {ingress_address} is unrouted")
        key = client_key or str(client_address)
        plan = self.fault_plan
        if plan is not None and plan.connect_active:
            # Injected before operator selection: a failed handshake never
            # consumes an egress draw, so sticky-operator state is
            # unaffected by how many retries a client needed.
            sequence = self._connect_attempts.get(key, 0)
            self._connect_attempts[key] = sequence + 1
            if plan.connect_fails(fault_key(key), sequence):
                registry.counter(
                    "relay.connect_refused", reason="fault_injected"
                ).inc()
                registry.counter("faults.injected", surface="relay",
                                 kind="connect").inc()
                raise ConnectionFailed(
                    f"transient connection failure to {ingress_address} (injected)"
                )
        operator_asn = self._select_operator(key, client_country)
        pool = self.egress_fleet.pool_for(operator_asn, client_country)
        egress_address = pool.select(key, self.rng)
        registry.counter("relay.egress_selections").inc()
        egress_asn = self.routing.origin_of(egress_address)
        if egress_asn is None:
            registry.counter("relay.connect_refused", reason="unrouted_egress").inc()
            raise RelayError(f"egress address {egress_address} is unrouted")
        request = ConnectRequest(
            authority=target_authority,
            port=target_port,
            http_version=HttpVersion.H3
            if protocol is RelayProtocol.QUIC
            else HttpVersion.H2,
        )
        tunnel, response = establish_tunnel(
            client_address=client_address,
            client_asn=client_asn,
            ingress_address=ingress_address,
            ingress_asn=ingress_asn,
            egress_service_address=egress_address,
            egress_service_asn=egress_asn,
            egress_address=egress_address,
            egress_asn=egress_asn,
            request=request,
            established_at=self.clock.now,
        )
        if tunnel is None:
            registry.counter("relay.connect_refused", reason="proxy_rejected").inc()
            raise RelayUnavailable(f"proxy rejected connection: {response.reason}")
        registry.counter("relay.connects", protocol=protocol.value).inc()
        geohash = None
        if preserve_location and client_location is not None:
            geohash = geohash_encode(client_location)
        return RelaySession(
            tunnel=tunnel,
            protocol=protocol,
            ingress_address=ingress_address,
            ingress_asn=ingress_asn,
            egress_operator_asn=operator_asn,
            egress_address=egress_address,
            egress_asn=egress_asn,
            geohash=geohash,
            established_at=self.clock.now,
            data_plane=TunnelDataPlane(self.padding),
        )

    def _select_operator(self, client_key: str, client_country: str) -> int:
        registry = self.telemetry.registry
        state = self._operator_state.get(client_key)
        weights = self.egress_fleet.operators_for(client_country)
        if not weights:
            registry.counter("relay.connect_refused", reason="no_operator").inc()
            raise RelayUnavailable(
                f"no egress operator present for {client_country}"
            )
        if state is not None and state.operator_asn in weights:
            if self.rng.random() >= self.operator_switch_probability:
                registry.counter("relay.operator_sticky").inc()
                return state.operator_asn
        operator_asn = self.egress_fleet.choose_operator(client_country, self.rng)
        if state is not None:
            registry.counter("relay.operator_switches").inc()
        self._operator_state[client_key] = _ClientEgressState(
            operator_asn, self.clock.now
        )
        return operator_asn

    # ------------------------------------------------------------------
    # Appendix-B behaviours
    # ------------------------------------------------------------------

    def management_connection_target(self, ingress_address: IPAddress) -> IPAddress:
        """Where the client's extra management QUIC connection goes.

        The paper observed that shortly after connecting, clients open an
        additional QUIC connection to an address "in the prefix (or AS in
        the dual stack case) of the configured ingress".
        """
        prefix = self.routing.routed_prefix_of(ingress_address)
        if prefix is None:
            raise RelayError(f"{ingress_address} is unrouted")
        offset = (ingress_address.value - prefix.value + 1) % prefix.num_addresses()
        return prefix.address_at(offset)

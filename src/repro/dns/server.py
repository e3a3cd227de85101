"""ECS-aware authoritative name server.

Models the behaviour the paper observed from the AWS Route 53 servers
authoritative for the iCloud Private Relay domains:

* IPv4 ECS queries are honoured — the answer depends on the client
  subnet, and the response echoes the option with a scope prefix length
  declaring the answer's validity range ("the name server always uses
  the subnet provided in the query"; scope can be *shorter* than the
  source, which the scanner's ethics pruning relies on).
* IPv6 ECS queries always come back with **scope 0**, i.e. the response
  claims validity for the entire IPv6 space — the reason the paper's ECS
  enumeration "does not work for IPv6".

The per-subnet answer computation itself lives in the zone's dynamic
handlers (see :mod:`repro.dns.zone`); this module implements the message
handling, ECS policy, and query accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.answer_cache import ScopeAnswerCache
from repro.dns.message import DnsMessage, Opcode, Rcode
from repro.dns.name import DnsName
from repro.dns.zone import Zone
from repro.netmodel.addr import IPAddress, Prefix
from repro.perfstats import CacheStats
from repro.telemetry.registry import Counter


@dataclass(frozen=True, slots=True)
class EcsPolicy:
    """How a server treats EDNS Client Subnet options.

    ``max_source_v4`` caps the honoured IPv4 source length (RFC 7871
    recommends truncating overly specific subnets); ``ipv6_scope_zero``
    reproduces the observed always-/0 behaviour for IPv6 sources.
    """

    enabled: bool = True
    max_source_v4: int = 24
    ipv6_scope_zero: bool = True

    def effective_subnet(self, subnet: Prefix | None) -> Prefix | None:
        """The subnet the answer computation may depend on."""
        if not self.enabled or subnet is None:
            return None
        if subnet.version == 4 and subnet.length > self.max_source_v4:
            return subnet.truncate(self.max_source_v4)
        return subnet

    def response_scope(self, subnet: Prefix, zone_scope: int | None) -> int:
        """The scope prefix length to place in the response's ECS option."""
        if subnet.version == 6 and self.ipv6_scope_zero:
            return 0
        if zone_scope is not None:
            return zone_scope
        return min(subnet.length, self.max_source_v4 if subnet.version == 4 else 56)


class ServerStats:
    """Query accounting, used by the ethics/ablation analyses.

    Like :class:`~repro.perfstats.CacheStats`, this is an adapter over
    telemetry :class:`~repro.telemetry.registry.Counter` objects: the
    attribute API is unchanged (``stats.queries += 1``), but each field's
    counter can be adopted by a metrics registry, and resets/setters
    mutate counter values in place so adopted references stay live.
    """

    __slots__ = ("_queries", "_ecs_queries", "_nxdomain", "_nodata", "_answered", "_refused")

    #: Field names, in declaration order (drives merge/reset/copy).
    _FIELDS = ("queries", "ecs_queries", "nxdomain", "nodata", "answered", "refused")

    def __init__(
        self,
        queries: int = 0,
        ecs_queries: int = 0,
        nxdomain: int = 0,
        nodata: int = 0,
        answered: int = 0,
        refused: int = 0,
    ) -> None:
        self._queries = Counter(queries)
        self._ecs_queries = Counter(ecs_queries)
        self._nxdomain = Counter(nxdomain)
        self._nodata = Counter(nodata)
        self._answered = Counter(answered)
        self._refused = Counter(refused)

    @property
    def queries(self) -> int:
        """Total queries received."""
        return self._queries.value

    @queries.setter
    def queries(self, value: int) -> None:
        self._queries.value = value

    @property
    def ecs_queries(self) -> int:
        """Queries carrying an ECS option."""
        return self._ecs_queries.value

    @ecs_queries.setter
    def ecs_queries(self, value: int) -> None:
        self._ecs_queries.value = value

    @property
    def nxdomain(self) -> int:
        """Queries answered NXDOMAIN."""
        return self._nxdomain.value

    @nxdomain.setter
    def nxdomain(self, value: int) -> None:
        self._nxdomain.value = value

    @property
    def nodata(self) -> int:
        """Queries answered NOERROR with no records."""
        return self._nodata.value

    @nodata.setter
    def nodata(self, value: int) -> None:
        self._nodata.value = value

    @property
    def answered(self) -> int:
        """Queries answered with records."""
        return self._answered.value

    @answered.setter
    def answered(self, value: int) -> None:
        self._answered.value = value

    @property
    def refused(self) -> int:
        """Queries refused (malformed or no matching zone)."""
        return self._refused.value

    @refused.setter
    def refused(self, value: int) -> None:
        self._refused.value = value

    def counter(self, field: str) -> Counter:
        """The live Counter behind ``field`` (for registry adoption)."""
        if field not in self._FIELDS:
            raise KeyError(f"no such ServerStats field: {field!r}")
        return getattr(self, "_" + field)

    def reset(self) -> None:
        """Zero all counters (in place — adopted references stay live)."""
        for field in self._FIELDS:
            getattr(self, "_" + field).value = 0

    def merge(self, other: "ServerStats") -> None:
        """Accumulate another counter set (shard-result aggregation)."""
        for field in self._FIELDS:
            getattr(self, "_" + field).value += getattr(other, field)

    def copy(self) -> "ServerStats":
        """An independent snapshot (shipped back from shard workers)."""
        return ServerStats(
            queries=self.queries,
            ecs_queries=self.ecs_queries,
            nxdomain=self.nxdomain,
            nodata=self.nodata,
            answered=self.answered,
            refused=self.refused,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServerStats):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field) for field in self._FIELDS
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)}" for field in self._FIELDS)
        return f"ServerStats({body})"


class AuthoritativeServer:
    """Serves one or more zones, honouring ECS per its policy."""

    def __init__(self, address: IPAddress, ecs_policy: EcsPolicy | None = None, name: str = "") -> None:
        self.address = address
        self.name = name or f"auth@{address}"
        self.ecs_policy = ecs_policy or EcsPolicy()
        self.stats = ServerStats()
        # Hoisted counters for handle(): the stats fields are properties
        # now, and handle() runs per query.  ServerStats.reset() mutates
        # these in place, so the references stay live.
        self._n_queries = self.stats.counter("queries")
        self._n_ecs_queries = self.stats.counter("ecs_queries")
        self._n_nxdomain = self.stats.counter("nxdomain")
        self._n_nodata = self.stats.counter("nodata")
        self._n_answered = self.stats.counter("answered")
        self._n_refused = self.stats.counter("refused")
        #: Per-epoch answer cache (answer tables, static constants and
        #: the kernel's replay programs).  Always wired; setting
        #: ``enabled`` to False selects the scanner's message-level
        #: reference path (results are identical either way) — the one
        #: switch for the kernel-vs-oracle checks.
        self.answer_cache = ScopeAnswerCache()
        self._zones: list[Zone] = []
        #: The effective subnet last built per transport source address
        #: of a query without ECS (an Atlas probe asking directly, a
        #: resolver that forwards no ECS).
        self._source_subnets: dict[IPAddress, Prefix] = {}
        self._zone_for: dict[DnsName, Zone | None] = {}
        self.zone_for_stats = CacheStats()

    def add_zone(self, zone: Zone) -> Zone:
        """Attach a zone to this server."""
        self._zones.append(zone)
        if self._zone_for:
            self._zone_for.clear()
            self.zone_for_stats.invalidations += 1
        return zone

    def zones(self) -> list[Zone]:
        """All attached zones."""
        return list(self._zones)

    def zone_for(self, name: DnsName) -> Zone | None:
        """The most specific attached zone containing ``name`` (memoised).

        The linear apex scan only runs once per distinct name; every
        query of a hot loop afterwards is a dict probe.  Invalidated on
        :meth:`add_zone`.
        """
        cache = self._zone_for
        if name in cache:
            self.zone_for_stats.hits += 1
            return cache[name]
        self.zone_for_stats.misses += 1
        best: Zone | None = None
        for zone in self._zones:
            if name.is_subdomain_of(zone.apex):
                if best is None or len(zone.apex.labels) > len(best.apex.labels):
                    best = zone
        cache[name] = best
        return best

    def handle(
        self, query: DnsMessage, source_address: IPAddress | None = None
    ) -> DnsMessage:
        """Answer one query message.

        ``source_address`` is the transport-level source of the query —
        the recursive resolver's egress address.  When the query carries
        no ECS option, location-dependent zones fall back to it (how
        Route 53 geolocates queries from non-ECS resolvers such as
        Cloudflare's 1.1.1.1).
        """
        self._n_queries.value += 1
        if query.is_response or query.opcode != Opcode.QUERY or query.question is None:
            self._n_refused.value += 1
            return query.reply(rcode=Rcode.FORMERR, recursion_available=False)
        question = query.question
        zone = self.zone_for(question.name)
        if zone is None:
            self._n_refused.value += 1
            return query.reply(rcode=Rcode.REFUSED, recursion_available=False)
        subnet = None
        policy = self.ecs_policy
        edns = query.edns
        ecs_option = edns.client_subnet if edns is not None else None
        if ecs_option is not None:
            self._n_ecs_queries.value += 1
            # policy.effective_subnet() inlined — this runs per scan query.
            if policy.enabled:
                subnet = ecs_option.source
                if subnet.version == 4 and subnet.length > policy.max_source_v4:
                    subnet = subnet.truncate(policy.max_source_v4)
        elif source_address is not None:
            length = policy.max_source_v4 if source_address.version == 4 else 56
            subnet = self._source_subnets.get(source_address)
            if subnet is None or subnet.length != length:
                subnet = source_address.to_prefix(length)
                self._source_subnets[source_address] = subnet
        if self.answer_cache.enabled:
            result = self.answer_cache.lookup(
                zone, question.name, question.rtype, subnet
            )
        else:
            result = zone.lookup(question.name, question.rtype, subnet)
        scope = None
        if ecs_option is not None:
            # policy.response_scope() inlined, same reason.
            source = ecs_option.source
            if source.version == 6 and policy.ipv6_scope_zero:
                scope = 0
            elif result.scope_override is not None:
                scope = result.scope_override
            else:
                scope = min(
                    source.length,
                    policy.max_source_v4 if source.version == 4 else 56,
                )
        if not result.exists:
            self._n_nxdomain.value += 1
            return query.reply(
                rcode=Rcode.NXDOMAIN,
                authoritative=True,
                recursion_available=False,
                ecs_scope=scope,
            )
        if result.is_nodata:
            self._n_nodata.value += 1
            return query.reply(
                rcode=Rcode.NOERROR,
                authoritative=True,
                recursion_available=False,
                ecs_scope=scope,
            )
        self._n_answered.value += 1
        return query.reply(
            rcode=Rcode.NOERROR,
            answers=result.records,
            authoritative=True,
            recursion_available=False,
            ecs_scope=scope,
            addresses=result.addresses,
        )

    def serves(self, name: DnsName) -> bool:
        """Whether this server is authoritative for ``name``."""
        return self.zone_for(name) is not None


class NameServerRegistry:
    """Maps names to the authoritative server responsible for them.

    Stands in for delegation-following: recursive resolvers ask the
    registry which server to contact instead of walking the root.
    """

    def __init__(self) -> None:
        self._servers: list[AuthoritativeServer] = []
        self._delegation: dict[DnsName, AuthoritativeServer | None] = {}
        self.delegation_stats = CacheStats()

    def register(self, server: AuthoritativeServer) -> AuthoritativeServer:
        """Add a server to the registry."""
        self._servers.append(server)
        if self._delegation:
            self._delegation.clear()
            self.delegation_stats.invalidations += 1
        return server

    def servers(self) -> list[AuthoritativeServer]:
        """All registered servers."""
        return list(self._servers)

    def authoritative_for(self, name: DnsName) -> AuthoritativeServer | None:
        """The server with the most specific zone for ``name`` (memoised).

        Resolvers call this per query; the per-server zone scan only runs
        once per distinct name.  Invalidated on :meth:`register` — note a
        zone added to an already-registered server after a name was first
        resolved is not picked up for that name (servers are fully
        populated before registration throughout the pipeline).
        """
        cache = self._delegation
        cached = cache.get(name)
        if cached is not None:
            self.delegation_stats.hits += 1
            return cached
        self.delegation_stats.misses += 1
        best: AuthoritativeServer | None = None
        best_depth = -1
        for server in self._servers:
            zone = server.zone_for(name)
            if zone is not None and len(zone.apex.labels) > best_depth:
                best = server
                best_depth = len(zone.apex.labels)
        if best is not None:
            # Unresolvable names stay uncached: a zone covering them may
            # yet be added to an already-registered server.
            cache[name] = best
        return best

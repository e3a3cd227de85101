"""Recursive resolver models.

The RIPE Atlas blocking study (Section 4.1 of the paper) classifies
probes by the behaviour of their configured resolver: most resolve the
relay domains normally; some are public resolvers (Google, Cloudflare,
Quad9, OpenDNS — used by over half of all probes); a minority block the
relay domains by forging NXDOMAIN, NOERROR-without-data, or REFUSED (or
break with SERVFAIL/FORMERR); one observed resolver hijacked the name to
a filtering service; and some probes simply time out.

Each of these behaviours is a resolver class here.  All resolvers go
through a :class:`~repro.dns.server.NameServerRegistry` to reach the
authoritative layer, stamping their own egress address so the whoami
service can identify them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ResolutionTimeout
from repro.dns.message import DnsMessage, Rcode
from repro.dns.name import DnsName
from repro.dns.rr import RRType, a_record, aaaa_record
from repro.dns.server import NameServerRegistry
from repro.dns.whoami import WhoamiServer
from repro.netmodel.addr import IPAddress, Prefix
from repro.simtime import SimClock


class Resolver(abc.ABC):
    """A recursive resolver as seen by a stub client."""

    #: The resolver's egress address (what authoritative servers see).
    address: IPAddress

    @abc.abstractmethod
    def resolve(
        self,
        name: DnsName | str,
        rtype: RRType,
        client_address: IPAddress | None = None,
    ) -> DnsMessage:
        """Resolve a question; raises :class:`ResolutionTimeout` on silence."""

    def resolve_addresses(
        self, name: DnsName | str, rtype: RRType, client_address: IPAddress | None = None
    ) -> tuple[IPAddress, ...]:
        """Resolve and return just the answer addresses (possibly empty)."""
        return self.resolve(name, rtype, client_address).answer_addresses()


@dataclass
class _CacheEntry:
    response: DnsMessage
    expires_at: float
    #: The upstream query, sent again when the entry has expired.
    query: DnsMessage


class RecursiveResolver(Resolver):
    """A well-behaved recursive resolver.

    ``send_ecs`` controls whether the resolver forwards an ECS option
    derived from its client's address (as Google Public DNS does) —
    truncated to ``ecs_source_len`` — or contacts the authoritative
    server without ECS (as Cloudflare's 1.1.1.1 famously does not).
    """

    def __init__(
        self,
        registry: NameServerRegistry,
        address: IPAddress,
        clock: SimClock | None = None,
        send_ecs: bool = True,
        ecs_source_len: int = 24,
        cache_enabled: bool = True,
        name: str = "",
    ) -> None:
        self.registry = registry
        self.address = address
        self.clock = clock or SimClock()
        self.send_ecs = send_ecs
        self.ecs_source_len = ecs_source_len
        self.cache_enabled = cache_enabled
        self.name = name or f"resolver@{address}"
        self._cache: dict[tuple[DnsName, RRType, Prefix | None], _CacheEntry] = {}
        #: The ECS prefix last built per source address: probes and relay
        #: clients resolve again and again from the same address.
        self._ecs_prefixes: dict[IPAddress, Prefix] = {}
        self.upstream_queries = 0

    def _ecs_for(self, client_address: IPAddress | None) -> Prefix | None:
        if not self.send_ecs:
            return None
        source = client_address if client_address is not None else self.address
        length = self.ecs_source_len if source.version == 4 else 56
        ecs = self._ecs_prefixes.get(source)
        if ecs is None or ecs.length != length:
            ecs = self._ecs_prefixes[source] = source.to_prefix(length)
        return ecs

    def resolve(
        self,
        name: DnsName | str,
        rtype: RRType,
        client_address: IPAddress | None = None,
    ) -> DnsMessage:
        """Resolve via cache or the authoritative layer (with ECS)."""
        if isinstance(name, str):
            name = DnsName.parse(name)
        ecs = self._ecs_for(client_address)
        cache_key = (name, rtype, ecs)
        entry = self._cache.get(cache_key) if self.cache_enabled else None
        if entry is not None and entry.expires_at > self.clock.now:
            return entry.response
        server = self.registry.authoritative_for(name)
        if server is None:
            # No delegation found: a real recursive returns SERVFAIL.
            return DnsMessage.query(name, rtype).reply(rcode=Rcode.SERVFAIL)
        if entry is not None:
            query = entry.query
        else:
            query = DnsMessage.query(name, rtype, ecs=ecs)
        self.upstream_queries += 1
        if isinstance(server, WhoamiServer):
            response = server.handle_from(query, self.address)
        else:
            response = server.handle(query, source_address=self.address)
        if self.cache_enabled:
            ttl = min((rr.ttl for rr in response.answers), default=60)
            self._cache[cache_key] = _CacheEntry(
                response, self.clock.now + ttl, query
            )
        return response

    def flush_cache(self) -> None:
        """Drop all cached responses."""
        self._cache.clear()


class PublicResolver(RecursiveResolver):
    """A large anycast public resolver (Google, Cloudflare, Quad9, OpenDNS)."""

    def __init__(
        self,
        registry: NameServerRegistry,
        address: IPAddress,
        provider: str,
        clock: SimClock | None = None,
        send_ecs: bool = True,
    ) -> None:
        super().__init__(
            registry, address, clock=clock, send_ecs=send_ecs, name=provider
        )
        self.provider = provider


#: The anycast service addresses of the big four public resolvers, used
#: by worldgen and recognised by the whoami analysis.
PUBLIC_RESOLVER_ADDRESSES: dict[str, str] = {
    "Google": "8.8.8.8",
    "Cloudflare": "1.1.1.1",
    "Quad9": "9.9.9.9",
    "OpenDNS": "208.67.222.222",
}


def build_public_resolvers(
    registry: NameServerRegistry, clock: SimClock | None = None
) -> dict[str, PublicResolver]:
    """Instantiate the big four public resolvers.

    Cloudflare does not forward ECS (a documented privacy stance); the
    other three do.
    """
    resolvers = {}
    for provider, addr_text in PUBLIC_RESOLVER_ADDRESSES.items():
        resolvers[provider] = PublicResolver(
            registry,
            IPAddress.parse(addr_text),
            provider,
            clock=clock,
            send_ecs=(provider != "Cloudflare"),
        )
    return resolvers


class BlockingResolver(Resolver):
    """A resolver that blocks configured domains with a forged response.

    ``block_rcode`` selects the forged shape: ``Rcode.NXDOMAIN``,
    ``Rcode.REFUSED``, ``Rcode.SERVFAIL``, ``Rcode.FORMERR``, or
    ``Rcode.NOERROR`` (which produces a NOERROR response without data).
    Non-blocked names are delegated to ``inner`` so that — as the paper
    verified with "a second unrelated domain" — the resolver demonstrably
    works for everything else.
    """

    def __init__(
        self,
        inner: Resolver,
        blocked_suffixes: list[DnsName | str],
        block_rcode: Rcode = Rcode.NXDOMAIN,
    ) -> None:
        self.inner = inner
        self.address = inner.address
        self.blocked_suffixes = [
            DnsName.parse(s) if isinstance(s, str) else s for s in blocked_suffixes
        ]
        if block_rcode not in (
            Rcode.NXDOMAIN,
            Rcode.NOERROR,
            Rcode.REFUSED,
            Rcode.SERVFAIL,
            Rcode.FORMERR,
        ):
            raise ValueError(f"unsupported blocking rcode {block_rcode!r}")
        self.block_rcode = block_rcode
        self.blocked_queries = 0

    def is_blocked(self, name: DnsName) -> bool:
        """Whether the resolver forges responses for ``name``."""
        return any(name.is_subdomain_of(suffix) for suffix in self.blocked_suffixes)

    def resolve(
        self,
        name: DnsName | str,
        rtype: RRType,
        client_address: IPAddress | None = None,
    ) -> DnsMessage:
        """Forge the configured rcode for blocked names; else delegate."""
        if isinstance(name, str):
            name = DnsName.parse(name)
        if self.is_blocked(name):
            self.blocked_queries += 1
            return DnsMessage.query(name, rtype).reply(rcode=self.block_rcode)
        return self.inner.resolve(name, rtype, client_address)


class HijackingResolver(Resolver):
    """A resolver that redirects blocked domains to a filtering service.

    Reproduces the paper's single observed DNS hijack "hinting at the use
    of nextdns.io": instead of an error, the resolver answers with an
    address it controls.
    """

    def __init__(
        self,
        inner: Resolver,
        blocked_suffixes: list[DnsName | str],
        redirect_v4: IPAddress,
        redirect_v6: IPAddress | None = None,
        service_name: str = "nextdns",
    ) -> None:
        self.inner = inner
        self.address = inner.address
        self.blocked_suffixes = [
            DnsName.parse(s) if isinstance(s, str) else s for s in blocked_suffixes
        ]
        if redirect_v4.version != 4:
            raise ValueError("redirect_v4 must be an IPv4 address")
        if redirect_v6 is not None and redirect_v6.version != 6:
            raise ValueError("redirect_v6 must be an IPv6 address")
        self.redirect_v4 = redirect_v4
        self.redirect_v6 = redirect_v6
        self.service_name = service_name

    def is_blocked(self, name: DnsName) -> bool:
        """Whether the resolver hijacks ``name``."""
        return any(name.is_subdomain_of(suffix) for suffix in self.blocked_suffixes)

    def resolve(
        self,
        name: DnsName | str,
        rtype: RRType,
        client_address: IPAddress | None = None,
    ) -> DnsMessage:
        """Redirect blocked names to the filtering service; else delegate."""
        if isinstance(name, str):
            name = DnsName.parse(name)
        if self.is_blocked(name):
            query = DnsMessage.query(name, rtype)
            if rtype == RRType.A:
                return query.reply(answers=(a_record(name, self.redirect_v4),))
            if rtype == RRType.AAAA and self.redirect_v6 is not None:
                return query.reply(answers=(aaaa_record(name, self.redirect_v6),))
            return query.reply()
        return self.inner.resolve(name, rtype, client_address)


class TimeoutResolver(Resolver):
    """A resolver (or path to it) that never answers.

    Models the ~10 % of Atlas probes whose DNS measurements time out for
    reasons unrelated to the relay domains (the paper cross-checked with
    another domain and saw similar timeout shares).
    """

    def __init__(self, address: IPAddress) -> None:
        self.address = address

    def resolve(
        self,
        name: DnsName | str,
        rtype: RRType,
        client_address: IPAddress | None = None,
    ) -> DnsMessage:
        """Never answers — every query times out."""
        raise ResolutionTimeout(f"no response from {self.address} for {name}")

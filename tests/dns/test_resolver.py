"""Tests for repro.dns.resolver, ratelimit, and whoami."""

import pytest

from repro.errors import RateLimitExceeded, ResolutionTimeout
from repro.dns.message import DnsMessage, Rcode
from repro.dns.name import DnsName
from repro.dns.ratelimit import TokenBucket
from repro.dns.resolver import (
    BlockingResolver,
    HijackingResolver,
    PublicResolver,
    RecursiveResolver,
    TimeoutResolver,
    build_public_resolvers,
)
from repro.dns.rr import RRType, a_record
from repro.dns.server import AuthoritativeServer, EcsPolicy, NameServerRegistry
from repro.dns.whoami import WHOAMI_DOMAIN, WhoamiServer
from repro.dns.zone import Zone
from repro.netmodel.addr import IPAddress, Prefix
from repro.simtime import SimClock

MASK = DnsName.parse("mask.icloud.com")


@pytest.fixture()
def registry() -> NameServerRegistry:
    registry = NameServerRegistry()
    server = AuthoritativeServer(IPAddress.parse("205.251.192.1"))
    zone = Zone("icloud.com.")
    zone.add_record(a_record(MASK, IPAddress.parse("17.0.0.1")))
    zone.add_record(
        a_record(DnsName.parse("other.icloud.com"), IPAddress.parse("17.0.0.2"))
    )
    server.add_zone(zone)
    registry.register(server)
    control = AuthoritativeServer(IPAddress.parse("205.251.192.2"))
    control_zone = Zone("example.org.")
    control_zone.add_record(
        a_record(DnsName.parse("example.org"), IPAddress.parse("93.184.216.34"))
    )
    control.add_zone(control_zone)
    registry.register(control)
    registry.register(WhoamiServer(IPAddress.parse("205.251.192.3")))
    return registry


def make_resolver(registry, **kwargs) -> RecursiveResolver:
    return RecursiveResolver(
        registry, IPAddress.parse("198.51.100.53"), **kwargs
    )


class TestRecursiveResolver:
    def test_resolves(self, registry):
        resolver = make_resolver(registry)
        addresses = resolver.resolve_addresses(MASK, RRType.A)
        assert addresses == (IPAddress.parse("17.0.0.1"),)

    def test_servfail_for_unknown_zone(self, registry):
        resolver = make_resolver(registry)
        response = resolver.resolve("unknown.test", RRType.A)
        assert response.rcode == Rcode.SERVFAIL

    def test_cache_hit_avoids_upstream(self, registry):
        resolver = make_resolver(registry)
        resolver.resolve(MASK, RRType.A)
        resolver.resolve(MASK, RRType.A)
        assert resolver.upstream_queries == 1

    def test_cache_expires_with_clock(self, registry):
        clock = SimClock()
        resolver = make_resolver(registry, clock=clock)
        resolver.resolve(MASK, RRType.A)
        clock.advance(120)  # past the 60 s TTL
        resolver.resolve(MASK, RRType.A)
        assert resolver.upstream_queries == 2

    def test_cache_disabled(self, registry):
        resolver = make_resolver(registry, cache_enabled=False)
        resolver.resolve(MASK, RRType.A)
        resolver.resolve(MASK, RRType.A)
        assert resolver.upstream_queries == 2

    def test_flush_cache(self, registry):
        resolver = make_resolver(registry)
        resolver.resolve(MASK, RRType.A)
        resolver.flush_cache()
        resolver.resolve(MASK, RRType.A)
        assert resolver.upstream_queries == 2

    def test_ecs_uses_client_address(self, registry):
        resolver = make_resolver(registry, send_ecs=True)
        client = IPAddress.parse("203.0.113.77")
        response = resolver.resolve(MASK, RRType.A, client_address=client)
        assert response.client_subnet is not None
        assert response.client_subnet.source == Prefix.parse("203.0.113.0/24")

    def test_no_ecs_when_disabled(self, registry):
        resolver = make_resolver(registry, send_ecs=False)
        response = resolver.resolve(MASK, RRType.A, client_address=IPAddress.parse("203.0.113.77"))
        assert response.client_subnet is None

    def test_whoami_sees_resolver_address(self, registry):
        resolver = make_resolver(registry, send_ecs=False)
        addresses = resolver.resolve_addresses(WHOAMI_DOMAIN, RRType.A)
        assert addresses == (resolver.address,)


class TestPublicResolvers:
    def test_big_four(self, registry):
        resolvers = build_public_resolvers(registry)
        assert set(resolvers) == {"Google", "Cloudflare", "Quad9", "OpenDNS"}
        assert resolvers["Google"].send_ecs
        assert not resolvers["Cloudflare"].send_ecs
        assert resolvers["Cloudflare"].address == IPAddress.parse("1.1.1.1")

    def test_provider_label(self, registry):
        resolver = PublicResolver(registry, IPAddress.parse("8.8.8.8"), "Google")
        assert resolver.provider == "Google"
        assert resolver.resolve_addresses(MASK, RRType.A)


class TestBlockingResolver:
    def test_blocks_relay_domain(self, registry):
        inner = make_resolver(registry)
        resolver = BlockingResolver(inner, ["mask.icloud.com"], Rcode.NXDOMAIN)
        response = resolver.resolve(MASK, RRType.A)
        assert response.rcode == Rcode.NXDOMAIN
        assert resolver.blocked_queries == 1

    def test_noerror_blocking_is_nodata(self, registry):
        resolver = BlockingResolver(
            make_resolver(registry), ["mask.icloud.com"], Rcode.NOERROR
        )
        response = resolver.resolve(MASK, RRType.A)
        assert response.is_nodata

    def test_other_domains_pass_through(self, registry):
        resolver = BlockingResolver(
            make_resolver(registry), ["mask.icloud.com"], Rcode.REFUSED
        )
        assert resolver.resolve_addresses("example.org", RRType.A) == (
            IPAddress.parse("93.184.216.34"),
        )
        assert resolver.resolve_addresses("other.icloud.com", RRType.A) == (
            IPAddress.parse("17.0.0.2"),
        )

    def test_subdomain_blocking(self, registry):
        resolver = BlockingResolver(make_resolver(registry), ["icloud.com"])
        assert resolver.is_blocked(MASK)
        assert not resolver.is_blocked(DnsName.parse("example.org"))

    def test_unsupported_rcode(self, registry):
        with pytest.raises(ValueError):
            BlockingResolver(make_resolver(registry), ["x.org"], Rcode.NOTIMP)


class TestHijackingResolver:
    def test_redirects(self, registry):
        target = IPAddress.parse("45.90.28.1")
        resolver = HijackingResolver(
            make_resolver(registry), ["mask.icloud.com"], target
        )
        assert resolver.resolve_addresses(MASK, RRType.A) == (target,)

    def test_aaaa_without_v6_target_is_nodata(self, registry):
        resolver = HijackingResolver(
            make_resolver(registry), ["mask.icloud.com"], IPAddress.parse("45.90.28.1")
        )
        assert resolver.resolve(MASK, RRType.AAAA).is_nodata

    def test_passthrough(self, registry):
        resolver = HijackingResolver(
            make_resolver(registry), ["mask.icloud.com"], IPAddress.parse("45.90.28.1")
        )
        assert resolver.resolve_addresses("example.org", RRType.A) == (
            IPAddress.parse("93.184.216.34"),
        )

    def test_requires_v4_redirect(self, registry):
        with pytest.raises(ValueError):
            HijackingResolver(
                make_resolver(registry), ["x.org"], IPAddress.parse("::1")
            )


class TestTimeoutResolver:
    def test_always_times_out(self):
        resolver = TimeoutResolver(IPAddress.parse("198.51.100.53"))
        with pytest.raises(ResolutionTimeout):
            resolver.resolve(MASK, RRType.A)


class TestTokenBucket:
    def test_burst_then_wait(self):
        clock = SimClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        waited = bucket.take()
        assert waited == pytest.approx(0.1)
        assert clock.now == pytest.approx(0.1)

    def test_refill(self):
        clock = SimClock()
        bucket = TokenBucket(rate=1.0, burst=5.0, clock=clock)
        for _ in range(5):
            bucket.take()
        clock.advance(3.0)
        assert bucket.tokens == pytest.approx(3.0)

    def test_oversized_request_rejected(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=SimClock())
        with pytest.raises(RateLimitExceeded):
            bucket.take(2.0)

    def test_total_waited_accumulates(self):
        clock = SimClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        bucket.take()
        bucket.take()
        bucket.take()
        assert bucket.total_waited == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, clock=SimClock())
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5, clock=SimClock())


class TestWhoamiServer:
    def test_returns_requester(self):
        server = WhoamiServer(IPAddress.parse("205.251.192.3"))
        query = DnsMessage.query(WHOAMI_DOMAIN, RRType.A)
        requester = IPAddress.parse("8.8.8.8")
        response = server.handle_from(query, requester)
        assert response.answer_addresses() == (requester,)

    def test_aaaa_with_v4_requester_is_nodata(self):
        server = WhoamiServer(IPAddress.parse("205.251.192.3"))
        query = DnsMessage.query(WHOAMI_DOMAIN, RRType.AAAA)
        assert server.handle_from(query, IPAddress.parse("8.8.8.8")).is_nodata

    def test_aaaa_with_v6_requester(self):
        server = WhoamiServer(IPAddress.parse("205.251.192.3"))
        query = DnsMessage.query(WHOAMI_DOMAIN, RRType.AAAA)
        requester = IPAddress.parse("2001:db8::53")
        response = server.handle_from(query, requester)
        assert response.answer_addresses() == (requester,)

    def test_plain_handle_is_nodata(self):
        server = WhoamiServer(IPAddress.parse("205.251.192.3"))
        response = server.handle(DnsMessage.query(WHOAMI_DOMAIN, RRType.A))
        assert response.is_nodata

"""Tests for repro.dns.zone and repro.dns.server."""

import pytest

from repro.errors import ZoneError
from repro.dns.message import DnsMessage, Rcode
from repro.dns.name import DnsName
from repro.dns.rr import RRClass, RRType, ResourceRecord, a_record
from repro.dns.server import AuthoritativeServer, EcsPolicy, NameServerRegistry
from repro.dns.zone import Zone
from repro.netmodel.addr import IPAddress, Prefix

APEX = "icloud.com."
MASK = DnsName.parse("mask.icloud.com")


def make_zone() -> Zone:
    zone = Zone(APEX)
    zone.add_record(a_record(MASK, IPAddress.parse("17.0.0.1")))
    return zone


class TestZone:
    def test_static_lookup(self):
        zone = make_zone()
        result = zone.lookup(MASK, RRType.A)
        assert result.exists
        assert [r.address for r in result.records] == [IPAddress.parse("17.0.0.1")]

    def test_nxdomain(self):
        zone = make_zone()
        result = zone.lookup(DnsName.parse("nothing.icloud.com"), RRType.A)
        assert not result.exists

    def test_nodata(self):
        zone = make_zone()
        result = zone.lookup(MASK, RRType.AAAA)
        assert result.exists
        assert result.is_nodata

    def test_out_of_zone_rejected(self):
        zone = make_zone()
        with pytest.raises(ZoneError):
            zone.lookup(DnsName.parse("example.org"), RRType.A)
        with pytest.raises(ZoneError):
            zone.add_record(a_record(DnsName.parse("example.org"), IPAddress.parse("1.1.1.1")))

    def test_dynamic_handler_receives_subnet(self):
        zone = Zone(APEX)
        seen = {}

        def handler(name, subnet):
            seen["subnet"] = subnet
            return [a_record(name, IPAddress.parse("172.224.0.1"))], 20

        zone.add_dynamic(MASK, RRType.A, handler)
        subnet = Prefix.parse("203.0.113.0/24")
        result = zone.lookup(MASK, RRType.A, subnet)
        assert seen["subnet"] == subnet
        assert result.scope_override == 20
        assert result.exists

    def test_dynamic_duplicate_rejected(self):
        zone = Zone(APEX)
        handler = lambda name, subnet: ([], None)
        zone.add_dynamic(MASK, RRType.A, handler)
        with pytest.raises(ZoneError):
            zone.add_dynamic(MASK, RRType.A, handler)

    def test_dynamic_name_other_type_is_nodata(self):
        zone = Zone(APEX)
        zone.add_dynamic(MASK, RRType.A, lambda n, s: ([], None))
        result = zone.lookup(MASK, RRType.TXT)
        assert result.exists and result.is_nodata

    def test_cname_chase_in_zone(self):
        zone = make_zone()
        alias = DnsName.parse("alias.icloud.com")
        zone.add_record(
            ResourceRecord(alias, RRType.CNAME, RRClass.IN, 300, MASK)
        )
        result = zone.lookup(alias, RRType.A)
        assert result.records[0].rtype == RRType.CNAME
        assert result.records[1].address == IPAddress.parse("17.0.0.1")

    def test_names(self):
        zone = make_zone()
        zone.add_dynamic(DnsName.parse("dyn.icloud.com"), RRType.A, lambda n, s: ([], None))
        assert MASK in zone.names()
        assert DnsName.parse("dyn.icloud.com") in zone.names()

    def test_soa_record(self):
        zone = make_zone()
        soa = zone.soa_record()
        assert soa.rtype == RRType.SOA
        assert soa.name == DnsName.parse(APEX)


class TestEcsPolicy:
    def test_truncates_long_v4_source(self):
        policy = EcsPolicy(max_source_v4=24)
        subnet = policy.effective_subnet(Prefix.parse("1.2.3.128/25"))
        assert subnet == Prefix.parse("1.2.3.0/24")

    def test_disabled_ignores_subnet(self):
        policy = EcsPolicy(enabled=False)
        assert policy.effective_subnet(Prefix.parse("1.2.3.0/24")) is None

    def test_v6_scope_zero(self):
        policy = EcsPolicy()
        assert policy.response_scope(Prefix.parse("2001:db8::/56"), 48) == 0

    def test_v6_scope_honoured_when_disabled(self):
        policy = EcsPolicy(ipv6_scope_zero=False)
        assert policy.response_scope(Prefix.parse("2001:db8::/56"), 48) == 48

    def test_zone_scope_override(self):
        policy = EcsPolicy()
        assert policy.response_scope(Prefix.parse("1.2.3.0/24"), 16) == 16

    def test_default_scope_echo(self):
        policy = EcsPolicy()
        assert policy.response_scope(Prefix.parse("1.2.3.0/24"), None) == 24


class TestAuthoritativeServer:
    def make_server(self) -> AuthoritativeServer:
        server = AuthoritativeServer(IPAddress.parse("205.251.192.1"))
        server.add_zone(make_zone())
        return server

    def test_answers_in_zone(self):
        server = self.make_server()
        response = server.handle(DnsMessage.query(MASK, RRType.A))
        assert response.rcode == Rcode.NOERROR
        assert response.authoritative
        assert response.answer_addresses() == (IPAddress.parse("17.0.0.1"),)
        assert server.stats.answered == 1

    def test_refuses_out_of_zone(self):
        server = self.make_server()
        response = server.handle(DnsMessage.query("example.org", RRType.A))
        assert response.rcode == Rcode.REFUSED
        assert server.stats.refused == 1

    def test_nxdomain_counted(self):
        server = self.make_server()
        response = server.handle(DnsMessage.query("no.icloud.com", RRType.A))
        assert response.rcode == Rcode.NXDOMAIN
        assert server.stats.nxdomain == 1

    def test_nodata(self):
        server = self.make_server()
        response = server.handle(DnsMessage.query(MASK, RRType.AAAA))
        assert response.rcode == Rcode.NOERROR
        assert response.is_nodata

    def test_formerr_on_response_message(self):
        server = self.make_server()
        bogus = DnsMessage.query(MASK, RRType.A).reply()
        assert server.handle(bogus).rcode == Rcode.FORMERR

    def test_ecs_scope_echoed(self):
        server = self.make_server()
        query = DnsMessage.query(MASK, RRType.A, ecs=Prefix.parse("203.0.113.0/24"))
        response = server.handle(query)
        assert response.client_subnet is not None
        assert response.client_subnet.scope_prefix_length == 24
        assert server.stats.ecs_queries == 1

    def test_ecs_v6_scope_zero(self):
        server = self.make_server()
        query = DnsMessage.query(MASK, RRType.A, ecs=Prefix.parse("2001:db8::/56"))
        response = server.handle(query)
        assert response.client_subnet.scope_prefix_length == 0

    def test_source_address_fallback_feeds_zone(self):
        zone = Zone(APEX)
        seen = {}

        def handler(name, subnet):
            seen["subnet"] = subnet
            return [a_record(name, IPAddress.parse("17.0.0.9"))], None

        zone.add_dynamic(MASK, RRType.A, handler)
        server = AuthoritativeServer(IPAddress.parse("205.251.192.1"))
        server.add_zone(zone)
        server.handle(
            DnsMessage.query(MASK, RRType.A),
            source_address=IPAddress.parse("198.51.100.77"),
        )
        assert seen["subnet"] == Prefix.parse("198.51.100.0/24")

    def test_most_specific_zone_wins(self):
        server = AuthoritativeServer(IPAddress.parse("205.251.192.1"))
        outer = Zone("com.")
        outer.add_record(a_record(DnsName.parse("x.icloud.com"), IPAddress.parse("9.9.9.9")))
        inner = make_zone()
        server.add_zone(outer)
        server.add_zone(inner)
        assert server.zone_for(MASK) is inner
        assert server.serves(MASK)


class TestNameServerRegistry:
    def test_routing_by_specificity(self):
        registry = NameServerRegistry()
        a = AuthoritativeServer(IPAddress.parse("205.251.192.1"))
        a.add_zone(Zone("com."))
        b = AuthoritativeServer(IPAddress.parse("205.251.192.2"))
        b.add_zone(Zone("icloud.com."))
        registry.register(a)
        registry.register(b)
        assert registry.authoritative_for(MASK) is b
        assert registry.authoritative_for(DnsName.parse("x.com")) is a
        assert registry.authoritative_for(DnsName.parse("example.org")) is None

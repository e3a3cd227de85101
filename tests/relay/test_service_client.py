"""Tests for repro.relay.service, client, and observer using a tiny world."""

import pytest

from repro.errors import RelayError, RelayUnavailable
from repro.dns.message import DnsMessage
from repro.dns.rr import RRType
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.geo import GeoPoint
from repro.relay.client import DnsConfig, RelayClient, RequestTool
from repro.relay.ingress import RelayProtocol
from repro.relay.observer import EchoService, ObservationServer
from repro.relay.service import (
    RELAY_DOMAIN_FALLBACK,
    RELAY_DOMAIN_QUIC,
    AssignmentMap,
    AssignmentUnit,
)


class TestAssignmentMap:
    def test_lookup_exact_and_contained(self):
        amap = AssignmentMap()
        unit = AssignmentUnit(Prefix.parse("10.0.0.0/16"), 16, 714, "EU-0")
        amap.add(unit)
        assert amap.lookup(Prefix.parse("10.0.5.0/24")) is unit
        assert amap.lookup(Prefix.parse("10.0.0.0/16")) is unit
        assert amap.lookup(Prefix.parse("11.0.0.0/24")) is None

    def test_wider_query_matches_by_first_address(self):
        amap = AssignmentMap()
        unit = AssignmentUnit(Prefix.parse("10.0.0.0/16"), 16, 714, "EU-0")
        amap.add(unit)
        assert amap.lookup(Prefix.parse("10.0.0.0/8")) is unit

    def test_removing_the_nested_unit_clears_nesting(self):
        amap = AssignmentMap()
        amap.add(AssignmentUnit(Prefix.parse("10.0.0.0/16"), 16, 714, "EU-0"))
        amap.add(AssignmentUnit(Prefix.parse("10.0.1.0/24"), 24, 714, "EU-1"))
        amap.add(AssignmentUnit(Prefix.parse("10.0.2.0/24"), 24, 714, "EU-1"))
        assert amap.has_nested_units
        assert amap.answer_partition() is None
        amap.remove(Prefix.parse("10.0.1.0/24"))
        assert amap.has_nested_units
        amap.remove(Prefix.parse("10.0.2.0/24"))
        assert not amap.has_nested_units
        assert amap.lookup(Prefix.parse("10.0.1.0/24")).pod == "EU-0"
        assert amap.answer_partition() is not None

    def test_answer_partition_covers_v4_space(self):
        amap = AssignmentMap()
        a = amap.add(AssignmentUnit(Prefix.parse("10.0.0.0/16"), 16, 714, "EU-0"))
        amap.add(AssignmentUnit(Prefix.parse("10.1.0.0/16"), 16, 714, "EU-0"))
        c = amap.add(AssignmentUnit(Prefix.parse("10.3.0.0/24"), 24, 714, "EU-0"))
        partition = amap.answer_partition()
        assert amap.answer_partition() is partition
        base = Prefix.parse("10.0.0.0/16").value
        assert list(partition.starts) == [
            0, base, base + 0x10000, base + 0x20000, base + 0x30000,
            base + 0x30100,
        ]
        assert partition.ends[-1] == (1 << 32) - 1
        # 10.0/16 and 10.1/16 share (pod, AS, scope): one roster entry.
        assert partition.roster == [None, a, c]
        assert list(partition.roster_index) == [0, 1, 1, 0, 2, 0]
        starts, ends, index = partition.slice(base + 0x100, base + 0x100ff)
        assert list(starts) == [base + 0x100, base + 0x10000]
        assert list(ends) == [base + 0xFFFF, base + 0x100ff]
        assert list(index) == [1, 1]
        amap.remove(Prefix.parse("10.3.0.0/24"))
        assert amap.answer_partition() is not partition

    def test_scope_cannot_be_wider_than_prefix(self):
        with pytest.raises(RelayError):
            AssignmentUnit(Prefix.parse("10.0.0.0/16"), 8, 714, "EU-0")


class TestRelayZone:
    def test_quic_domain_answers_with_ecs(self, tiny_world):
        world = tiny_world
        client_prefix = world.ground.client_ases[0].asys.prefixes[0]
        subnet = Prefix.from_address(client_prefix.network_address, 24)
        query = DnsMessage.query(RELAY_DOMAIN_QUIC, RRType.A, ecs=subnet)
        response = world.route53.handle(query)
        addresses = response.answer_addresses()
        assert addresses
        assert len(addresses) <= 8
        asns = {world.routing.origin_of(a) for a in addresses}
        assert asns <= {714, 36183}
        assert len(asns) == 1  # single-AS responses

    def test_fallback_domain_exists(self, tiny_world):
        response = tiny_world.route53.handle(
            DnsMessage.query(RELAY_DOMAIN_FALLBACK, RRType.A)
        )
        assert response.answer_addresses()

    def test_aaaa_answers(self, tiny_world):
        response = tiny_world.route53.handle(
            DnsMessage.query(RELAY_DOMAIN_QUIC, RRType.AAAA)
        )
        addresses = response.answer_addresses()
        assert addresses
        assert all(a.version == 6 for a in addresses)

    def test_ipv6_ecs_scope_zero(self, tiny_world):
        query = DnsMessage.query(
            RELAY_DOMAIN_QUIC, RRType.A, ecs=Prefix.parse("2001:db8::/56")
        )
        response = tiny_world.route53.handle(query)
        assert response.client_subnet.scope_prefix_length == 0

    def test_unknown_subdomain_nxdomain(self, tiny_world):
        from repro.dns.message import Rcode

        response = tiny_world.route53.handle(
            DnsMessage.query("nothing.icloud.com", RRType.A)
        )
        assert response.rcode == Rcode.NXDOMAIN


class TestService:
    def _client_args(self, world):
        vantage = world.ground.vantage_prefix
        return dict(
            client_address=vantage.address_at(40),
            client_asn=64496,
            client_country="DE",
            client_location=GeoPoint(48.1, 11.5),
            target_authority="observer.vantage.example",
        )

    def _active_ingress(self, world):
        return sorted(
            world.ingress_v4.active_addresses(world.clock.now, RelayProtocol.QUIC)
        )[0]

    def test_connect_builds_session(self, tiny_world):
        world = tiny_world
        session = world.service.connect(
            ingress_address=self._active_ingress(world), **self._client_args(world)
        )
        assert session.ingress_asn in (714, 36183)
        assert session.egress_operator_asn in (13335, 36183)
        assert session.geohash is not None
        assert session.tunnel.client_address == self._client_args(world)["client_address"]

    def test_connect_rejects_inactive_ingress(self, tiny_world):
        world = tiny_world
        with pytest.raises(RelayError):
            world.service.connect(
                ingress_address=IPAddress.parse("192.0.2.1"),
                **self._client_args(world),
            )

    def test_connect_rejects_unavailable_country(self, tiny_world):
        world = tiny_world
        args = self._client_args(world)
        args["client_country"] = "CN"
        with pytest.raises(RelayUnavailable):
            world.service.connect(
                ingress_address=self._active_ingress(world), **args
            )

    def test_no_location_preservation(self, tiny_world):
        world = tiny_world
        session = world.service.connect(
            ingress_address=self._active_ingress(world),
            preserve_location=False,
            **self._client_args(world),
        )
        assert session.geohash is None

    def test_egress_rotation_across_connections(self, tiny_world):
        world = tiny_world
        args = self._client_args(world)
        ingress = self._active_ingress(world)
        addresses = {
            world.service.connect(ingress_address=ingress, **args).egress_address
            for _ in range(40)
        }
        assert len(addresses) > 1

    def test_management_connection_in_ingress_prefix(self, tiny_world):
        world = tiny_world
        ingress = self._active_ingress(world)
        target = world.service.management_connection_target(ingress)
        assert world.routing.routed_prefix_of(target) == world.routing.routed_prefix_of(
            ingress
        )

    def test_quic_endpoint_only_for_active_quic_ingress(self, tiny_world):
        world = tiny_world
        ingress = self._active_ingress(world)
        assert world.service.quic_endpoint_for(ingress) is not None
        assert world.service.quic_endpoint_for(IPAddress.parse("192.0.2.1")) is None


class TestRelayClient:
    def test_open_dns_request(self, tiny_world):
        world = tiny_world
        client = world.make_vantage_client()
        obs = client.request(world.web_server, RequestTool.SAFARI)
        assert obs.protocol == RelayProtocol.QUIC
        assert world.routing.origin_of(obs.egress_address) == obs.egress_asn
        assert world.web_server.log[-1].requester == obs.egress_address
        assert world.web_server.log[-1].tool == "safari"

    def test_server_never_sees_client_address(self, tiny_world):
        world = tiny_world
        world.web_server.clear()
        client = world.make_vantage_client()
        client.request(world.web_server)
        assert client.address not in world.web_server.requester_addresses()

    def test_echo_returns_egress(self, tiny_world):
        world = tiny_world
        client = world.make_vantage_client()
        obs = client.request(world.echo_server, RequestTool.CURL, path="/plain")
        assert obs.body == str(obs.egress_address)

    def test_fixed_dns_pins_ingress(self, tiny_world):
        world = tiny_world
        ingress = sorted(
            world.ingress_v4.active_addresses(world.clock.now, RelayProtocol.QUIC)
        )[1]
        client = world.make_vantage_client(
            DnsConfig.fixed({("mask.icloud.com", RRType.A): [ingress]})
        )
        obs = client.request(world.web_server)
        assert obs.ingress_address == ingress

    def test_fixed_dns_empty_means_blocked(self, tiny_world):
        world = tiny_world
        client = world.make_vantage_client(DnsConfig.fixed({}))
        with pytest.raises(RelayUnavailable):
            client.request(world.web_server)

    def test_fallback_used_when_quic_unresolvable(self, tiny_world):
        world = tiny_world
        fallback = sorted(
            world.ingress_v4.active_addresses(
                world.clock.now, RelayProtocol.TCP_FALLBACK
            )
        )[0]
        client = world.make_vantage_client(
            DnsConfig.fixed({(RELAY_DOMAIN_FALLBACK, RRType.A): [fallback]})
        )
        obs = client.request(world.web_server)
        assert obs.protocol == RelayProtocol.TCP_FALLBACK

    def test_connection_key_follows_reassigned_address(self, tiny_world):
        world = tiny_world
        client = world.make_vantage_client()
        client.request(world.web_server)
        moved = world.ground.vantage_prefix.address_at(250)
        client.address = moved
        client.request(world.web_server)
        assert str(moved) in world.service._operator_state

    def test_parallel_requests(self, tiny_world):
        world = tiny_world
        client = world.make_vantage_client()
        safari, curl = client.request_parallel(world.web_server, world.echo_server)
        assert safari.tool == RequestTool.SAFARI
        assert curl.tool == RequestTool.CURL


class TestObservers:
    def test_observation_log(self):
        server = ObservationServer("obs", IPAddress.parse("131.159.0.10"), 64496)
        server.handle_request(1.0, IPAddress.parse("172.232.0.1"), 36183, "curl")
        assert len(server.log) == 1
        server.clear()
        assert not server.log

    def test_echo_body(self):
        echo = EchoService("ipecho.net", IPAddress.parse("205.251.192.9"), 16509)
        body = echo.handle_request(1.0, IPAddress.parse("172.232.0.1"))
        assert body == "172.232.0.1"
        assert echo.requests_served == 1

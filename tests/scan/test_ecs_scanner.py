"""Tests for the ECS enumeration scanner."""

import pytest

from repro.dns.rr import RRType
from repro.relay.ingress import RelayProtocol
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings, _merge_spans
from repro.netmodel.addr import Prefix


@pytest.fixture(scope="module")
def april_scan(tiny_world):
    world = tiny_world
    if world.clock.now < world.deployment.april_scan_start:
        world.clock.advance_to(world.deployment.april_scan_start)
    scanner = EcsScanner(world.route53, world.routing, world.clock)
    return scanner.scan(RELAY_DOMAIN_QUIC)


class TestMergeSpans:
    def test_merges_adjacent(self):
        spans = _merge_spans(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")]
        )
        assert spans == [(Prefix.parse("10.0.0.0/24").value,
                          Prefix.parse("10.0.1.0/24").broadcast_value)]

    def test_keeps_gaps(self):
        spans = _merge_spans(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.2.0.0/24")]
        )
        assert len(spans) == 2

    def test_nested_prefixes(self):
        spans = _merge_spans(
            sorted([Prefix.parse("10.0.0.0/16"), Prefix.parse("10.0.5.0/24")],
                   key=lambda p: p.value)
        )
        assert spans == [(Prefix.parse("10.0.0.0/16").value,
                          Prefix.parse("10.0.0.0/16").broadcast_value)]

    def test_empty_input(self):
        assert _merge_spans([]) == []

    def test_overlapping_same_start(self):
        spans = _merge_spans(
            [Prefix.parse("10.0.0.0/16"), Prefix.parse("10.0.0.0/24")]
        )
        assert spans == [(Prefix.parse("10.0.0.0/16").value,
                          Prefix.parse("10.0.0.0/16").broadcast_value)]

    def test_partial_overlap_extends_span(self):
        # A span is extended, not duplicated, when the next prefix overlaps
        # its tail.
        spans = _merge_spans(
            [Prefix.parse("10.0.0.0/23"), Prefix.parse("10.0.1.0/24"),
             Prefix.parse("10.0.2.0/24")]
        )
        assert spans == [(Prefix.parse("10.0.0.0/23").value,
                          Prefix.parse("10.0.2.0/24").broadcast_value)]


class _FixedScopeSetup:
    """A one-zone server whose dynamic name answers with a fixed scope."""

    def __init__(self, scope: int | None):
        from repro.dns.name import DnsName
        from repro.dns.rr import a_record
        from repro.dns.server import AuthoritativeServer
        from repro.dns.zone import Zone
        from repro.netmodel.addr import IPAddress
        from repro.simtime import SimClock

        self.clock = SimClock()
        self.server = AuthoritativeServer(IPAddress.parse("192.0.2.53"))
        zone = Zone("example.com.")
        name = DnsName.parse("relay.example.com.")
        answer = IPAddress.parse("198.51.100.7")
        self.queried: list[Prefix] = []

        def handler(qname, subnet):
            self.queried.append(subnet)
            return [a_record(qname, answer)], scope

        zone.add_dynamic(name, RRType.A, handler)
        self.server.add_zone(zone)

    # Routing-table stand-in: one routed /22 starting at 0.0.0.0, so the
    # pruned scan has no unrouted gap (and thus no sparse probes) and the
    # routed walk is exactly four /24 blocks.
    def routed_v4_prefixes(self):
        return [Prefix.parse("0.0.0.0/22")]

    def origin_of(self, address):
        return 64500

    def scan(self, **settings):
        scanner = EcsScanner(
            self.server,
            self,
            self.clock,
            EcsScanSettings(rate=1e9, **settings),
        )
        return scanner.scan("relay.example.com.")


class TestScopeCursorAdvancement:
    """The cursor after each answer honours the declared scope exactly."""

    def test_scope_equal_to_source_steps_one_block(self):
        setup = _FixedScopeSetup(scope=24)
        result = setup.scan()
        # /22 of routed space at /24 granularity: all four blocks queried.
        assert result.queries_sent == 4
        assert [s.value for s in setup.queried] == [
            Prefix.parse(f"0.0.{i}.0/24").value for i in range(4)
        ]
        assert all(r.scope == 24 for r in result.responses)

    def test_scope_wider_than_source_skips_block(self):
        setup = _FixedScopeSetup(scope=23)
        result = setup.scan()
        # Each /23-scoped answer skips the block's second /24.
        assert result.queries_sent == 2
        assert [s.value for s in setup.queried] == [
            Prefix.parse("0.0.0.0/24").value,
            Prefix.parse("0.0.2.0/24").value,
        ]
        assert sum(r.covered_slash24s() for r in result.responses) == 4

    def test_scope_narrower_than_source_does_not_skip(self):
        setup = _FixedScopeSetup(scope=25)
        result = setup.scan()
        # A narrower-than-source scope never widens the cursor step.
        assert result.queries_sent == 4
        assert all(r.scope == 25 for r in result.responses)
        assert all(r.covered_slash24s() == 1 for r in result.responses)

    def test_scope_ignored_when_not_respected(self):
        setup = _FixedScopeSetup(scope=16)
        result = setup.scan(respect_scope=False)
        assert result.queries_sent == 4


class TestEcsScan:
    def test_uncovers_all_active_quic_relays(self, tiny_world, april_scan):
        world = tiny_world
        active = world.ingress_v4.active_addresses(
            world.deployment.april_scan_start, RelayProtocol.QUIC
        )
        assert april_scan.addresses() == active

    def test_two_ases_only(self, tiny_world, april_scan):
        assert set(april_scan.addresses_by_asn()) == {714, 36183}

    def test_scope_pruning_bounds_queries(self, tiny_world, april_scan):
        # Far fewer queries than routed /24s thanks to ECS scopes.
        routed_24s = sum(
            p.count_subnets(24) if p.length <= 24 else 1
            for p in tiny_world.routing.routed_v4_prefixes()
        )
        assert april_scan.queries_sent < routed_24s / 5

    def test_rate_limit_takes_simulated_time(self, april_scan):
        assert april_scan.duration_hours() > 0.05

    def test_sparse_queries_present(self, april_scan):
        assert april_scan.sparse_queries > 0

    def test_covered_slash24s_positive(self, april_scan):
        slash24s = april_scan.slash24s_by_asn()
        assert slash24s[714] > 0
        assert slash24s[36183] > 0

    def test_fallback_scan_differs(self, tiny_world, april_scan):
        world = tiny_world
        scanner = EcsScanner(world.route53, world.routing, world.clock)
        fallback = scanner.scan(RELAY_DOMAIN_FALLBACK)
        active = world.ingress_v4.active_addresses(
            world.deployment.april_scan_start, RelayProtocol.TCP_FALLBACK
        )
        assert fallback.addresses() == active
        assert fallback.addresses().isdisjoint(april_scan.addresses())

    def test_aaaa_enumeration_fails_scope_zero(self, tiny_world):
        # The ECS mechanism does not give per-subnet IPv6 answers: every
        # response claims scope 0, so one query covers everything and the
        # enumeration cannot expand (the paper's IPv6 finding).
        world = tiny_world
        from repro.dns.message import DnsMessage

        query = DnsMessage.query(
            RELAY_DOMAIN_QUIC, RRType.A, ecs=Prefix.parse("2001:db8::/56")
        )
        response = world.route53.handle(query)
        assert response.client_subnet.scope_prefix_length == 0

    def test_no_scope_respect_increases_queries(self, tiny_world):
        world = tiny_world
        # Restrict to a handful of routed prefixes for a bounded compare.
        prefixes = sorted(world.routing.routed_v4_prefixes(), key=lambda p: p.value)
        subset = [p for p in prefixes if p.length <= 20][:3]

        class SubsetRouting:
            def routed_v4_prefixes(self):
                return subset

            def origin_of(self, address):
                return world.routing.origin_of(address)

        pruned = EcsScanner(
            world.route53, SubsetRouting(), world.clock,
            EcsScanSettings(rate=1e9, respect_scope=True),
        ).scan(RELAY_DOMAIN_QUIC)
        naive = EcsScanner(
            world.route53, SubsetRouting(), world.clock,
            EcsScanSettings(rate=1e9, respect_scope=False),
        ).scan(RELAY_DOMAIN_QUIC)
        assert naive.queries_sent > pruned.queries_sent
        assert naive.addresses() >= pruned.addresses()

    def test_slash24_accounting_consistent(self, tiny_world):
        # With scope respected, covered /24s per response sum to the same
        # total a naive /24 walk would attribute.
        world = tiny_world
        # Client-AS prefixes only: infrastructure blocks mix per-site /24
        # scopes with wide default scopes, which legitimately over-counts.
        prefixes = sorted(
            (
                p
                for p in world.routing.routed_v4_prefixes()
                if (world.routing.origin_of(p.network_address) or 0) >= 100_000
            ),
            key=lambda p: p.value,
        )
        subset = [p for p in prefixes if 16 <= p.length <= 20][:2]

        class SubsetRouting:
            def routed_v4_prefixes(self):
                return subset

            def origin_of(self, address):
                return world.routing.origin_of(address)

        pruned = EcsScanner(
            world.route53, SubsetRouting(), world.clock,
            EcsScanSettings(rate=1e9),
        ).scan(RELAY_DOMAIN_QUIC)
        total = sum(r.covered_slash24s() for r in pruned.responses)
        expected = sum(p.count_subnets(24) for p in subset)
        assert total == expected

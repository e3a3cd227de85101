"""Tests for the Atlas scanner and the blocking classification."""

import pytest

from repro.netmodel.addr import Prefix
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan.atlas_scanner import AtlasIngressScanner, AtlasValidation
from repro.scan.blocking import classify_blocking
from repro.scan.ecs_scanner import EcsScanner
from repro.worldgen.internet import RESOLVER_BLOCKS
from repro.worldgen.world import CONTROL_DOMAIN

INGRESS_ASNS = {714, 36183}


@pytest.fixture(scope="module")
def april_context(small_world, small_world_scans):
    """ECS April scan, then the clock moved to the Atlas run time.

    Depends on ``small_world_scans`` so the shared session clock has
    already walked the monthly scans before it moves to April here — the
    clock only ever advances, whichever test file runs first.
    """
    world = small_world
    target = world.deployment.april_scan_start
    if world.clock.now < target:
        world.clock.advance_to(target)
    scanner = EcsScanner(world.route53, world.routing, world.clock)
    ecs = scanner.scan(RELAY_DOMAIN_QUIC)
    atlas_time = world.deployment.april_scan_start + 40 * 3600.0
    if world.clock.now < atlas_time:
        world.clock.advance_to(atlas_time)
    return world, ecs


class TestAtlasValidation:
    def test_atlas_sees_fewer_addresses(self, april_context):
        world, ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        validation = scanner.validate_against_ecs(RELAY_DOMAIN_QUIC, ecs.addresses())
        assert validation.atlas_count < validation.ecs_count
        assert validation.ecs_advantage > 0

    def test_single_atlas_only_address_is_late_relay(self, april_context):
        world, ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        validation = scanner.validate_against_ecs(RELAY_DOMAIN_QUIC, ecs.addresses())
        assert len(validation.atlas_only) <= 1
        for address in validation.atlas_only:
            assert world.routing.origin_of(address) in INGRESS_ASNS

    def test_verification_scan_finds_missing_address(self, april_context):
        world, ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        validation = scanner.validate_against_ecs(RELAY_DOMAIN_QUIC, ecs.addresses())
        verification = EcsScanner(world.route53, world.routing, world.clock).scan(
            RELAY_DOMAIN_QUIC
        )
        assert validation.atlas_only <= verification.addresses()

    def test_hijack_address_filtered(self, april_context):
        world, _ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        addresses = scanner.measure_ingress_v4(RELAY_DOMAIN_QUIC)
        for address in addresses:
            assert world.routing.origin_of(address) in INGRESS_ASNS

    def test_validation_dataclass(self):
        from repro.netmodel.addr import IPAddress

        a = IPAddress.parse("1.1.1.1")
        b = IPAddress.parse("2.2.2.2")
        validation = AtlasValidation({a}, {a, b})
        assert validation.ecs_only == {b}
        assert validation.atlas_only == set()
        assert validation.ecs_advantage == 1


class TestIpv6Discovery:
    def test_rounds_accumulate(self, april_context):
        world, _ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        report = scanner.measure_ingress_v6(RELAY_DOMAIN_QUIC)
        first = len(report.addresses)
        for _ in range(3):
            report = scanner.measure_ingress_v6(RELAY_DOMAIN_QUIC, report)
        assert report.rounds == 4
        assert len(report.addresses) >= first

    def test_v6_addresses_in_ingress_ases(self, april_context):
        world, _ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        report = scanner.measure_ingress_v6(RELAY_DOMAIN_QUIC)
        by_asn = report.by_asn(world.routing)
        assert set(by_asn) <= INGRESS_ASNS
        assert sum(by_asn.values()) == len(report.addresses)

    def test_discovery_close_to_deployment(self, april_context):
        world, _ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
        report = None
        for _ in range(4):
            report = scanner.measure_ingress_v6(RELAY_DOMAIN_QUIC, report)
        deployed = len(world.ingress_v6.relays)
        assert 0.85 * deployed <= len(report.addresses) <= deployed


class TestResolverSurvey:
    def test_provider_shares(self, april_context):
        world, _ecs = april_context
        scanner = AtlasIngressScanner(world.atlas, world.routing)
        blocks = {
            provider: Prefix.parse(block)
            for provider, (block, _asn) in RESOLVER_BLOCKS.items()
        }
        shares = scanner.survey_resolvers(blocks)
        assert set(shares) <= set(blocks) | {"local"}
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        # "More than half of all probes" use a public resolver.
        assert scanner.public_resolver_share(shares) > 0.4


class TestBlocking:
    @pytest.fixture(scope="class")
    def report(self, april_context):
        world, _ecs = april_context
        return classify_blocking(
            world.atlas, world.routing, RELAY_DOMAIN_QUIC, CONTROL_DOMAIN,
            INGRESS_ASNS,
        )

    def test_timeout_share_matches_config(self, april_context, report):
        world, _ecs = april_context
        assert abs(report.timeout_share - world.config.atlas_timeout_fraction) < 0.02

    def test_timeouts_not_attributed_to_blocking(self, report):
        # Control-domain timeouts are similar, so timeouts are network
        # issues, not blocking — the paper's conclusion.
        assert not report.timeouts_attributed_to_blocking

    def test_failure_share(self, april_context, report):
        world, _ecs = april_context
        assert abs(report.failure_share - world.config.atlas_block_fraction) < 0.02

    def test_rcode_mix(self, report):
        assert report.rcode_share_of_failures("NXDOMAIN") > 0.5
        assert report.rcode_counts.get("NXDOMAIN", 0) > report.rcode_counts.get(
            "REFUSED", 0
        )

    def test_blocked_share_close_to_paper(self, report):
        # The paper finds 5.5 % of probes blocked at the DNS level.
        assert 0.03 < report.blocked_share < 0.08

    def test_hijack_detected(self, report):
        assert report.hijacked_probes == 1

    def test_refused_only_blocking_when_verified(self, report):
        assert report.refused_verified <= report.rcode_counts.get("REFUSED", 0)

    def test_servfail_formerr_not_blocking(self, report):
        not_blocking = report.rcode_counts.get("SERVFAIL", 0) + report.rcode_counts.get(
            "FORMERR", 0
        )
        assert report.blocked_probes <= report.failures_with_response + report.hijacked_probes - not_blocking

"""Kernel equivalence: the batch-replay kernel must be invisible.

Runs the full monthly campaign twice on two same-seed worlds — once as
shipped (the server's answer cache on, so every compilable scan runs the
batch-replay kernel) and once with ``answer_cache.enabled = False`` (the
message-level reference oracle) — and requires every observable output
to be bit-identical: the response streams, the query accounting, the
per-AS attribution tables, and the server's own stats.  The campaign
spans months with relay deployment churn in between, so the epoch-token
invalidation is exercised, not just asserted.

The dispatch suite then covers every input the kernel refuses: each must
fall through to the reference path and still match the oracle.
"""

import pytest

from repro.dns.name import DnsName
from repro.dns.rr import RRType, a_record
from repro.dns.server import EcsPolicy
from repro.dns.zone import Zone
from repro.netmodel.addr import IPAddress
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan.campaign import ScanCampaign
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
from repro.worldgen import WorldConfig, build_world


def _world(kernel: bool):
    world = build_world(WorldConfig.tiny(seed=2022))
    world.route53.answer_cache.enabled = kernel
    return world


@pytest.fixture(scope="module")
def campaign_pair():
    def run(kernel: bool):
        world = _world(kernel)
        campaign = ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
            settings=EcsScanSettings(),
        )
        return world, campaign.run(world.scan_months())

    return run(True), run(False)


def _scans(months):
    for month in months:
        yield month.default
        if month.fallback is not None:
            yield month.fallback


class TestFastPathEquivalence:
    def test_response_streams_identical(self, campaign_pair):
        (_, kernel), (_, oracle) = campaign_pair
        for a, b in zip(_scans(kernel), _scans(oracle), strict=True):
            assert a.domain == b.domain
            assert a.responses == b.responses
            assert a.sparse_responses == b.sparse_responses

    def test_query_accounting_identical(self, campaign_pair):
        (_, kernel), (_, oracle) = campaign_pair
        for a, b in zip(_scans(kernel), _scans(oracle), strict=True):
            assert a.queries_sent == b.queries_sent
            assert a.sparse_queries == b.sparse_queries
            assert a.sparse_answered == b.sparse_answered
            assert a.started_at == b.started_at
            assert a.finished_at == b.finished_at

    def test_attribution_tables_identical(self, campaign_pair):
        (_, kernel), (_, oracle) = campaign_pair
        for a, b in zip(_scans(kernel), _scans(oracle), strict=True):
            assert a.addresses() == b.addresses()
            assert a.addresses_by_asn() == b.addresses_by_asn()
            assert a.slash24s_by_asn() == b.slash24s_by_asn()

    def test_server_stats_identical(self, campaign_pair):
        (kernel_world, _), (oracle_world, _) = campaign_pair
        assert kernel_world.route53.stats == oracle_world.route53.stats

    def test_kernel_actually_engaged(self, campaign_pair):
        (kernel_world, _), (oracle_world, _) = campaign_pair
        kernel_cache = kernel_world.route53.answer_cache.stats
        oracle_cache = oracle_world.route53.answer_cache.stats
        # The kernel run served every probe (sparse included) from
        # compiled replay programs — accounted as cache hits, with zero
        # per-query misses — and was invalidated by deployment churn
        # between monthly scans; the oracle never touched the cache.
        assert kernel_cache.hits > 0
        assert kernel_cache.misses == 0
        assert kernel_cache.invalidations >= 1
        assert oracle_cache.misses == 0
        assert oracle_cache.hits == 0


class _SubsetRouting:
    """A routing-table stand-in exposing only some of a world's prefixes."""

    def __init__(self, world, prefixes):
        self._world = world
        self._prefixes = prefixes

    def routed_v4_prefixes(self):
        return self._prefixes

    def origin_of(self, address):
        return self._world.routing.origin_of(address)


def _routed(world, keep):
    prefixes = sorted(world.routing.routed_v4_prefixes(), key=lambda p: p.value)
    return [p for p in prefixes if keep(p)]


class TestFastPathHitsEquivalence:
    """With scope pruning off, blocks are re-queried and the cache hits.

    The pruned campaign above exercises plan *reuse machinery* but each
    declared block is queried once, so hits stay zero.  A scope-ignoring
    scan of a routed subset re-enters stored blocks and must still be
    bit-identical.
    """

    @pytest.fixture(scope="class")
    def naive_pair(self):
        def run(kernel: bool):
            world = _world(kernel)
            world.clock.advance_to(world.deployment.april_scan_start)
            subset = _routed(world, lambda p: p.length <= 20)[:3]
            scanner = EcsScanner(
                world.route53,
                _SubsetRouting(world, subset),
                world.clock,
                EcsScanSettings(rate=1e9, respect_scope=False),
            )
            return world, scanner.scan(RELAY_DOMAIN_QUIC)

        return run(True), run(False)

    def test_hits_occur_and_results_match(self, naive_pair):
        (kernel_world, kernel), (oracle_world, oracle) = naive_pair
        assert kernel_world.route53.answer_cache.stats.hits > 0
        assert kernel.responses == oracle.responses
        assert kernel.queries_sent == oracle.queries_sent
        assert kernel.addresses_by_asn() == oracle.addresses_by_asn()
        assert kernel_world.route53.stats == oracle_world.route53.stats


# ----------------------------------------------------------------------
# Dispatch: which scans the kernel serves, and that refusals match the
# oracle.  Each case scans a fresh tiny world; narrow cases use a few
# small routed prefixes so the message-level path stays cheap.
# ----------------------------------------------------------------------


def _small_routing(world):
    return _SubsetRouting(world, _routed(world, lambda p: p.length >= 21)[:4])


def _scan(world, routing=None, domain=RELAY_DOMAIN_QUIC, **settings):
    scanner = EcsScanner(
        world.route53,
        routing if routing is not None else world.routing,
        world.clock,
        EcsScanSettings(rate=1e9, **settings),
    )
    return scanner.scan(domain)


def _stock_relay_zone(world):
    return _scan(world)


def _zone_without_enumerator(world):
    zone = Zone("example.com.")
    name = DnsName.parse("relay.example.com.")
    answer = IPAddress.parse("198.51.100.7")
    zone.add_dynamic(
        name, RRType.A, lambda qname, subnet: ([a_record(qname, answer)], 20)
    )
    world.route53.add_zone(zone)
    return _scan(world, domain="relay.example.com.")


def _ecs_policy_disabled(world):
    world.route53.ecs_policy = EcsPolicy(enabled=False)
    return _scan(world, _small_routing(world))


def _source_longer_than_cap(world):
    return _scan(world, _small_routing(world), source_prefix_len=25)


def _gaps_only_regions(world):
    scanner = EcsScanner(
        world.route53, world.routing, world.clock, EcsScanSettings(rate=1e9)
    )
    _, gaps = scanner.routed_ranges()
    return scanner.scan_regions(RELAY_DOMAIN_QUIC, [], gaps)


def _overridden_handle(world):
    server = world.route53
    handle = server.handle
    server.handle = lambda query, source_address=None: handle(query, source_address)
    try:
        return _scan(world)
    finally:
        # The override closes a reference cycle through the frozen
        # server: drop it, or the world is never collected.
        del server.handle


def _answer_cache_off(world):
    world.route53.answer_cache.enabled = False
    return _scan(world)


#: (case, whether the kernel serves it).
DISPATCH_CASES = [
    (_stock_relay_zone, True),
    (_zone_without_enumerator, False),
    (_ecs_policy_disabled, False),
    (_source_longer_than_cap, False),
    (_gaps_only_regions, False),
    (_overridden_handle, False),
    (_answer_cache_off, False),
]


@pytest.mark.parametrize(
    "case, kernel",
    DISPATCH_CASES,
    ids=[case.__name__.lstrip("_") for case, _ in DISPATCH_CASES],
)
def test_dispatch_matches_oracle(case, kernel):
    def run(cache: bool):
        world = _world(cache)
        world.clock.advance_to(world.deployment.april_scan_start)
        return world, case(world)

    world, result = run(True)
    oracle_world, oracle = run(False)
    assert (result.columnar_view() is not None) is kernel
    assert oracle.columnar_view() is None
    assert result.responses or result.sparse_responses
    assert result.responses == oracle.responses
    assert result.sparse_responses == oracle.sparse_responses
    assert result.queries_sent == oracle.queries_sent
    assert world.route53.stats == oracle_world.route53.stats

"""Per-query relay lookups: the answer table must equal the handler oracle.

Two same-seed worlds answer the same query sequence: one with the
server's answer cache on (relay names answer from the assignment map's
answer partition and the epoch's roster answers) and one with it off
(every query runs the zone's dynamic handler).  For A and AAAA of both
relay names, every reply — records, order, ECS echo — must be identical,
including the rotation sequence over repeated queries, across the
January → April deployment-epoch change, after deployment churn edits
the map, and on a map with nested units (which the cache derives per
query instead).
"""

import pytest

from repro.dns.message import DnsMessage
from repro.dns.name import DnsName
from repro.dns.resolver import RecursiveResolver
from repro.dns.rr import RRType
from repro.netmodel.addr import IPAddress, Prefix
from repro.relay.service import (
    RELAY_DOMAIN_FALLBACK,
    RELAY_DOMAIN_QUIC,
    AssignmentUnit,
)
from repro.worldgen import WorldConfig, build_world
from repro.worldgen.deployment import DeploymentChurn

SEED = 2022
NAMES = tuple(DnsName.parse(d) for d in (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK))
RTYPES = (RRType.A, RRType.AAAA)
#: Each subnet is asked this often per phase, so rotations wrap.
REPEATS = 3


def _probe_subnets(world) -> list[Prefix]:
    """Row starts, row ends, mid-row and fallback subnets, plus subnets
    wider than their unit, from the current answer partition."""
    partition = world.assignment.answer_partition()
    subnets = []
    assigned = [row for row, entry in enumerate(partition.roster_index) if entry]
    fallback = [row for row, entry in enumerate(partition.roster_index) if not entry]
    for row in assigned[:: max(1, len(assigned) // 6)]:
        start, end = partition.starts[row], partition.ends[row]
        subnets.append(Prefix(4, start & ~0xFF, 24))
        subnets.append(Prefix(4, end & ~0xFF, 24))
        subnets.append(Prefix(4, ((start + end) // 2) & ~0xFF, 24))
    for row in fallback[:: max(1, len(fallback) // 4)]:
        middle = (partition.starts[row] + partition.ends[row]) // 2
        subnets.append(Prefix(4, middle & ~0xFF, 24))
    units = sorted(
        (u for u in world.assignment.units() if u.prefix.version == 4),
        key=lambda u: (u.prefix.length, u.prefix.value),
    )
    for unit in units[-3:]:
        subnets.append(unit.prefix.truncate(unit.prefix.length - 2))
    return subnets


class _Recorder:
    """Counts the zone handler's per-query derivations (``zone.lookup``)."""

    def __init__(self, zone):
        self.calls = 0
        inner = zone.lookup

        def lookup(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        zone.lookup = lookup


def _world(cache: bool):
    world = build_world(WorldConfig.tiny(seed=SEED))
    world.route53.answer_cache.enabled = cache
    return world, _Recorder(world.route53.zone_for(NAMES[0]))


def _exchange(world, subnets) -> list:
    server = world.route53
    replies = []
    for name in NAMES:
        for rtype in RTYPES:
            for _ in range(REPEATS):
                for subnet in subnets:
                    reply = server.handle(DnsMessage.query(name, rtype, ecs=subnet))
                    replies.append(reply)
    return replies


def _assert_same(on, off):
    assert len(on) == len(off)
    for a, b in zip(on, off):
        assert a.rcode == b.rcode
        assert a.answers == b.answers
        assert a.answer_addresses() == b.answer_addresses()
        assert a.client_subnet == b.client_subnet


def _nest_unit(world) -> None:
    outer = min(
        (unit for unit in world.assignment.units() if unit.prefix.version == 4),
        key=lambda unit: (unit.prefix.length, unit.prefix.value),
    )
    prefix = Prefix(4, outer.prefix.value, outer.prefix.length + 1)
    world.assignment.add(
        AssignmentUnit(
            prefix, max(outer.scope_len, prefix.length), outer.operator_asn, outer.pod
        )
    )
    assert world.assignment.has_nested_units


def _january(world):
    (year, month), *_ = world.scan_months()
    world.clock.advance_to(world.scan_start(year, month))


def _april(world):
    world.clock.advance_to(world.deployment.april_scan_start)


def _churn(world):
    DeploymentChurn(
        world.assignment, world.ingress_v4, world.clock.now
    ).inject_standard(seed=SEED)


#: (phase, whether the answer table serves it), applied in order.
PHASES = ((_january, True), (_april, True), (_churn, True), (_nest_unit, False))


@pytest.fixture(scope="module")
def phases():
    """Per phase: (table?, replies on, replies off, on-world derivations,
    cache (hits, misses) delta, query count, subnets)."""
    on_world, on_calls = _world(True)
    off_world, _ = _world(False)
    stats = on_world.route53.answer_cache.stats
    out = []
    for step, table in PHASES:
        step(on_world)
        step(off_world)
        subnets = _probe_subnets(off_world) if table else out[-1][6]
        calls, hits, misses = on_calls.calls, stats.hits, stats.misses
        on = _exchange(on_world, subnets)
        off = _exchange(off_world, subnets)
        out.append(
            (
                table,
                on,
                off,
                on_calls.calls - calls,
                (stats.hits - hits, stats.misses - misses),
                len(on),
                subnets,
            )
        )
    return out


@pytest.mark.parametrize(
    "phase", range(len(PHASES)), ids=[step.__name__.lstrip("_") for step, _ in PHASES]
)
class TestAnswerTableMatchesHandler:
    def test_replies_identical(self, phases, phase):
        _, on, off, *_ = phases[phase]
        _assert_same(on, off)

    def test_rotation_advances_over_repeats(self, phases, phase):
        _, on, *_, subnets = phases[phase]
        # The same subnet asked again gets a rotated window: the pod's
        # rotation counter moved in between, on both paths alike.
        step = len(subnets)
        assert any(
            on[i].answers != on[i + step].answers for i in range(len(on) - step)
        )

    def test_accounting(self, phases, phase):
        table, _, _, derivations, (hits, misses), queries, _ = phases[phase]
        assert hits + misses == queries
        if table:
            # No handler derivation: one table fetch per (name, rtype).
            assert derivations == 0
            assert misses == len(NAMES) * len(RTYPES)
        else:
            assert derivations == queries
            assert hits == 0


def test_reply_shares_the_supplier_address_tuple():
    world = build_world(WorldConfig.tiny(seed=SEED))
    _april(world)
    zone = world.route53.zone_for(NAMES[0])
    subnet = _probe_subnets(world)[0]
    shared = 0
    for name in NAMES:
        for rtype in RTYPES:
            reply = world.route53.handle(DnsMessage.query(name, rtype, ecs=subnet))
            partition, answers = zone.answer_table(name, rtype)
            entry = partition.roster_index[
                max(i for i, s in enumerate(partition.starts) if s <= subnet.value)
            ]
            _, _, _, relays, supplier = answers[entry].replay_spec()
            addresses = reply.answer_addresses()
            if not relays:  # e.g. a fleet with no relay of this family yet
                continue
            shared += 1
            assert any(
                supplier.rotation_addresses(start) is addresses
                for start in range(relays)
            )
    assert shared >= 2
    # A recursive resolver hands the same tuple to its caller.
    resolver = RecursiveResolver(
        world.ns_registry, IPAddress.parse("198.18.0.53"), clock=world.clock
    )
    response = resolver.resolve(NAMES[0], RRType.A, client_address=subnet.network_address)
    assert resolver.resolve_addresses(
        NAMES[0], RRType.A, client_address=subnet.network_address
    ) is response.answer_addresses()

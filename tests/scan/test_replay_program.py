"""Replay-program properties: the compiled partition must be exact.

The batch-replay kernel trusts a compiled
:class:`~repro.dns.answer_cache.ReplayProgram` to answer every probe in
a scan range exactly as the per-query lookup path would.  These tests
state that contract directly against the program, for every row the
compiler emits (not just the addresses a particular scan happens to
probe), at two world seeds so one lucky assignment layout cannot hide a
partition bug:

* the rows cover the compiled range contiguously, in ascending order;
* at every probe subnet — each row's step-aligned boundaries plus a
  deterministic sweep — the program's answer spec (scope included) is
  the very spec of the answer the per-query path (the zone's answer
  table) gives that subnet, and that answer's roster unit matches the
  unit the assignment map's own lookup finds;
* both hold for sub-ranges that start or end mid-row or inside the
  fallback space, which the compiler cuts out of the assignment map's
  shared answer partition;
* the partition is built once per map version: a deployment-epoch change
  reuses it with new specs, and a map edit replaces it.

Comparing replay *specs* (scope, rotation counters, counter key, relay
count, supplier) rather than produced addresses keeps the check pure:
reading the answer table does not advance rotation state, so the whole
range can be verified without replaying a scan.
"""

import weakref
from bisect import bisect_left, bisect_right

import pytest

from repro.dns.name import DnsName
from repro.dns.rr import RRType
from repro.netmodel.addr import Prefix
from repro.relay.service import RELAY_DOMAIN_QUIC, AssignmentMap
from repro.scan.ecs_scanner import EcsScanner
from repro.worldgen import WorldConfig, build_world
from repro.worldgen.deployment import DeploymentChurn

SEEDS = (2022, 7)

#: The kernel's probe step for the default /24 source prefix.
SOURCE_LEN = 24
STEP = 1 << (32 - SOURCE_LEN)
SOURCE_MASK = ((1 << SOURCE_LEN) - 1) << (32 - SOURCE_LEN)

#: Evenly spaced extra probes on top of the per-row boundary probes.
SWEEP_PROBES = 4096

#: Sub-ranges per kind (mid-row, inside the fallback space, row-aligned).
SUB_RANGES_PER_KIND = 8


def _scan_range(world):
    """The range the kernel compiles for a full scan of ``world``.

    From the first probed address (leading gap included), aligned to the
    probe grid, to the end of the last routed span.
    """
    scanner = EcsScanner(world.route53, world.routing, world.clock)
    spans, gaps = scanner.routed_ranges()
    lo = spans[0][0]
    if gaps and gaps[0][0] < lo:
        lo = gaps[0][0]
    return lo & SOURCE_MASK, spans[-1][1]


def _compile(world, lo, hi):
    server = world.route53
    qname = DnsName.parse(RELAY_DOMAIN_QUIC)
    zone = server.zone_for(qname)
    program = server.answer_cache.replay_program(zone, qname, RRType.A, lo, hi)
    assert program is not None, "scan range must compile on the relay zone"
    return program


@pytest.fixture(scope="module", params=SEEDS)
def compiled(request):
    """(world, zone, qname, program) for one seed, over the scan range."""
    world = build_world(WorldConfig.tiny(seed=request.param))
    world.clock.advance_to(world.deployment.april_scan_start)
    qname = DnsName.parse(RELAY_DOMAIN_QUIC)
    zone = world.route53.zone_for(qname)
    program = _compile(world, *_scan_range(world))
    return world, zone, qname, program


def _probe_values(program):
    """Every row's step-aligned boundaries, plus an even sweep."""
    values = set()
    for start, end in zip(program.row_starts, program.row_ends):
        first = (start + STEP - 1) & SOURCE_MASK
        if first <= end:
            values.add(first)
        last = end & SOURCE_MASK
        if last >= start:
            values.add(last)
    span = program.hi - program.lo + 1
    stride = max(STEP, (span // SWEEP_PROBES) & SOURCE_MASK or STEP)
    values.update(range(program.lo, program.hi + 1, stride))
    return sorted(values)


def _assert_contiguous(program):
    starts = program.row_starts
    ends = program.row_ends
    assert len(starts) == len(ends) == len(program.row_answer)
    assert starts[0] == program.lo
    assert ends[-1] == program.hi
    assert all(s <= e for s, e in zip(starts, ends))
    assert all(s == e + 1 for s, e in zip(starts[1:], ends))


def _unit_key(unit):
    return None if unit is None else (unit.pod, unit.operator_asn, unit.scope_len)


def _assert_matches_lookups(world, zone, qname, program) -> int:
    """Compare the program's spec at every probe with the per-query path's.

    The per-query path's answer is the zone's answer-table row holding
    the probe; its roster unit must also agree with the assignment map's
    own lookup, the derivation the zone's handler runs.
    """
    row_ends = program.row_ends
    row_answer = program.row_answer
    answers = program.answers
    partition, table_answers = zone.answer_table(qname, RRType.A)
    checked = 0
    for value in _probe_values(program):
        row = bisect_left(row_ends, value)
        spec = answers[row_answer[row]]
        entry = partition.roster_index[bisect_right(partition.starts, value) - 1]
        assert table_answers[entry].replay == spec, (
            f"program answer diverges from the per-query answer at {value:#x}"
        )
        unit = world.assignment.lookup(Prefix(4, value, SOURCE_LEN))
        assert _unit_key(partition.roster[entry]) == _unit_key(unit), (
            f"answer table row disagrees with the assignment map at {value:#x}"
        )
        checked += 1
    return checked


def _sub_ranges(world, program):
    """Deterministic sub-ranges of a compiled program's range.

    Three kinds, up to :data:`SUB_RANGES_PER_KIND` each, spread evenly
    over the program's rows: from a probe inside one assigned row to a
    probe inside a later one (both mid-row), from and to probes inside
    one fallback row (unassigned space), and from one row's start to a
    later row's end.
    """
    starts = program.row_starts
    ends = program.row_ends
    rows = range(len(program))

    def fallback(row):
        subnet = Prefix(4, starts[row] & SOURCE_MASK, SOURCE_LEN)
        return world.assignment.lookup(subnet) is None

    wide = [row for row in rows if ends[row] - starts[row] >= 3 * STEP]
    assigned = [row for row in wide if not fallback(row)]
    gaps = [row for row in wide if fallback(row)]

    def spread(candidates):
        stride = max(1, len(candidates) // SUB_RANGES_PER_KIND)
        return candidates[::stride][:SUB_RANGES_PER_KIND]

    ranges = []
    for k, row in enumerate(spread(assigned)):
        last = assigned[min(len(assigned) - 1, assigned.index(row) + k + 1)]
        lo = ((starts[row] + STEP - 1) & SOURCE_MASK) + STEP
        hi = ((ends[last] + 1) & SOURCE_MASK) - STEP - 1
        ranges.append((lo, hi))
    for row in spread(gaps):
        lo = ((starts[row] + STEP - 1) & SOURCE_MASK) + STEP
        ranges.append((lo, lo + STEP - 1))
    for k, row in enumerate(spread(list(rows))):
        ranges.append((starts[row], ends[min(len(program) - 1, row + 3 * k)]))
    return ranges


class TestReplayProgramProperties:
    def test_rows_cover_range_contiguously(self, compiled):
        _, _, _, program = compiled
        _assert_contiguous(program)

    def test_specs_match_per_query_plans(self, compiled):
        world, zone, qname, program = compiled
        checked = _assert_matches_lookups(world, zone, qname, program)
        assert checked > len(program)  # every row contributed a probe

    def test_sub_ranges_match_per_query_plans(self, compiled):
        world, zone, qname, program = compiled
        ranges = _sub_ranges(world, program)
        assert len(ranges) >= 20
        partition = world.assignment.answer_partition()
        for lo, hi in ranges:
            assert program.lo <= lo <= hi <= program.hi
            sub = _compile(world, lo, hi)
            _assert_contiguous(sub)
            assert _assert_matches_lookups(world, zone, qname, sub) > 0
            # Cut from the one shared partition, not a per-range build.
            assert world.assignment.answer_partition() is partition

    def test_program_is_cached_within_epoch(self, compiled):
        world, zone, qname, program = compiled
        again = world.route53.answer_cache.replay_program(
            zone, qname, RRType.A, program.lo, program.hi
        )
        assert again is program

    def test_recompilation_is_deterministic(self, compiled):
        _, zone, qname, program = compiled
        enumerator = zone.replay_enumerator(qname, RRType.A)
        starts, ends, answer, specs = enumerator(program.lo, program.hi)
        assert list(starts) == list(program.row_starts)
        assert list(ends) == list(program.row_ends)
        assert list(answer) == list(program.row_answer)
        assert specs == program.answers


class TestSharedPartition:
    """One answer partition per assignment-map version."""

    def test_epoch_change_reuses_partition(self):
        world = build_world(WorldConfig.tiny(seed=SEEDS[0]))
        (jan_year, jan_month), *_ = world.scan_months()
        world.clock.advance_to(world.scan_start(jan_year, jan_month))
        qname = DnsName.parse(RELAY_DOMAIN_QUIC)
        zone = world.route53.zone_for(qname)
        token = zone.epoch_token()
        lo, hi = _scan_range(world)
        january = _compile(world, lo, hi)
        partition = world.assignment.answer_partition()
        world.clock.advance_to(world.deployment.april_scan_start)
        assert zone.epoch_token() != token
        april = _compile(world, lo, hi)
        assert april is not january
        assert world.assignment.answer_partition() is partition
        assert april.row_starts == january.row_starts
        assert april.row_ends == january.row_ends
        assert april.row_answer == january.row_answer
        assert april.answers != january.answers
        _assert_matches_lookups(world, zone, qname, april)

    def test_map_edit_replaces_partition(self):
        world = build_world(WorldConfig.tiny(seed=SEEDS[0]))
        world.clock.advance_to(world.deployment.april_scan_start)
        qname = DnsName.parse(RELAY_DOMAIN_QUIC)
        zone = world.route53.zone_for(qname)
        lo, hi = _scan_range(world)
        _compile(world, lo, hi)
        assignment = world.assignment
        old = weakref.ref(assignment.answer_partition())
        old_version = assignment.version
        churn = DeploymentChurn(assignment, world.ingress_v4, world.clock.now)
        churn.inject_standard(seed=SEEDS[0])
        assert old() is None, "the old version's partition is retained"
        program = _compile(world, lo, hi)
        partition = assignment.answer_partition()
        assert partition.version == assignment.version != old_version
        fresh_map = AssignmentMap()
        for unit in assignment.units():
            fresh_map.add(unit)
        fresh = fresh_map.answer_partition()
        assert partition.starts == fresh.starts
        assert partition.ends == fresh.ends
        assert partition.roster_index == fresh.roster_index
        assert partition.roster == fresh.roster
        _assert_contiguous(program)
        _assert_matches_lookups(world, zone, qname, program)

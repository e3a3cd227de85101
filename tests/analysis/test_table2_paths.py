"""Table 2 reads the scan's response columns; every scan shape must give
the same report.

A kernel scan carries its answers as columns; a scan whose ``responses``
list was forced, or one restored from a checkpoint, carries only the
list and is packed into columns first.  All three must equal the
per-response attribution loop Table 2 ran before it read columns.
"""

from __future__ import annotations

import pytest

from repro.analysis.ingress_report import Table2Report, build_table2
from repro.netmodel.addr import IPAddress
from repro.netmodel.asn import WellKnownAS
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan import EcsScanner
from repro.scan.checkpoint import decode_result, encode_result
from repro.worldgen import WorldConfig, build_world

APPLE = int(WellKnownAS.APPLE)
AKAMAI_PR = int(WellKnownAS.AKAMAI_PR)


def oracle_table2(scan, routing, population) -> Table2Report:
    per_as = {}
    for response in scan.responses:
        if response.answer_asn not in (APPLE, AKAMAI_PR):
            continue
        client_asn = routing.origin_of(IPAddress(4, response.subnet.value))
        if client_asn is None or client_asn not in population:
            continue
        ops = per_as.setdefault(client_asn, {})
        ops[response.answer_asn] = (
            ops.get(response.answer_asn, 0) + response.covered_slash24s()
        )
    report = Table2Report()
    for client_asn, ops in per_as.items():
        users = population.population(client_asn)
        apple = ops.get(APPLE, 0)
        akamai = ops.get(AKAMAI_PR, 0)
        if apple and akamai:
            report.both_ases += 1
            report.both_slash24s += apple + akamai
            report.both_apple_slash24s += apple
            report.both_population += users
        elif apple:
            report.apple_only_ases += 1
            report.apple_only_slash24s += apple
            report.apple_only_population += users
        else:
            report.akamai_only_ases += 1
            report.akamai_only_slash24s += akamai
            report.akamai_only_population += users
    return report


@pytest.fixture(scope="module")
def april():
    """A private tiny world and its April QUIC scan (the shared worlds'
    scans may already have been materialised by other tests)."""
    world = build_world(WorldConfig.tiny())
    world.clock.advance_to(world.scan_start(2022, 4))
    scan = EcsScanner(world.route53, world.routing, world.clock).scan(RELAY_DOMAIN_QUIC)
    return world, scan


def test_table2_same_on_columns_forced_and_restored(april):
    world, scan = april
    args = (world.routing, world.population)
    assert scan.columnar_view() is not None
    from_columns = build_table2(scan, *args)
    # Reading the columns materialises nothing.
    assert scan.columnar_view() is not None
    assert from_columns.both_ases and from_columns.apple_only_ases
    assert from_columns.akamai_only_ases

    restored = decode_result(encode_result(scan))
    assert restored.columnar_view() is None
    from_checkpoint = build_table2(restored, *args)

    assert scan.responses  # materialises the classic list, dropping the columns
    assert scan.columnar_view() is None
    from_list = build_table2(scan, *args)

    expected = oracle_table2(scan, *args)
    assert from_columns == from_checkpoint == from_list == expected


def test_table2_of_an_empty_scan(april):
    world, scan = april
    restored = decode_result(encode_result(scan))
    restored.responses = []
    assert build_table2(restored, world.routing, world.population) == Table2Report()

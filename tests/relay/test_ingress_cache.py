"""The per-epoch ``IngressFleet.active_addresses`` memo against a rescan.

``active_addresses`` hands out one frozenset per (deployment epoch,
protocol, asn).  These tests compare it with the uncached comprehension
at every deployment boundary and one float step either side of it,
querying out of time order so the epoch-window memo moves both ways.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.netmodel.addr import IPAddress
from repro.relay.ingress import IngressFleet, IngressRelay, RelayProtocol

PROTOCOLS = (None, RelayProtocol.QUIC, RelayProtocol.TCP_FALLBACK)


def uncached(fleet: IngressFleet, at_time, protocol, asn) -> set[IPAddress]:
    return {
        r.address
        for r in fleet.relays
        if r.is_active(at_time)
        and (protocol is None or r.protocol == protocol)
        and (asn is None or r.asn == asn)
    }


def probe_times(fleet: IngressFleet) -> list[float]:
    """Every boundary, one float step before and after it, and a time
    far outside all of them on each side, shuffled so consecutive
    queries jump between epochs."""
    boundaries = {r.active_from for r in fleet.relays}
    boundaries.update(r.active_until for r in fleet.relays if r.active_until is not None)
    times = [-1e18, 1e18]
    for b in boundaries:
        times += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    random.Random(7).shuffle(times)
    return times


def assert_matches_rescan(fleet: IngressFleet) -> int:
    asns = [None] + sorted({r.asn for r in fleet.relays})
    checked = 0
    for at_time in probe_times(fleet):
        for protocol in PROTOCOLS:
            for asn in asns:
                got = fleet.active_addresses(at_time, protocol, asn)
                assert isinstance(got, frozenset)
                assert got == uncached(fleet, at_time, protocol, asn), (
                    at_time, protocol, asn
                )
                checked += 1
    return checked


def random_fleet(seed: int, count: int = 120) -> IngressFleet:
    rng = random.Random(seed)
    fleet = IngressFleet(4)
    grid = [float(10 * i) for i in range(12)]  # shared boundaries collide
    for i in range(count):
        start = rng.choice(grid)
        end = rng.choice([None, start + rng.choice(grid[1:])])
        fleet.add(IngressRelay(
            IPAddress(4, (17 << 24) | i),
            rng.choice((714, 36183)),
            rng.choice((RelayProtocol.QUIC, RelayProtocol.TCP_FALLBACK)),
            f"EU-{i % 3}",
            start,
            end,
        ))
    return fleet


@pytest.mark.parametrize("seed", range(4))
def test_random_fleet_matches_rescan_at_every_boundary(seed):
    assert assert_matches_rescan(random_fleet(seed)) > 0


def test_world_fleets_match_rescan_at_every_boundary(small_world):
    for fleet in (small_world.ingress_v4, small_world.ingress_v6):
        assert fleet.relays
        assert assert_matches_rescan(fleet) > 0


def test_add_invalidates_cached_set():
    fleet = random_fleet(11, count=30)
    before = fleet.active_addresses(25.0, RelayProtocol.QUIC, 714)
    assert fleet.active_addresses(25.0, RelayProtocol.QUIC, 714) is before
    newcomer = IPAddress.parse("17.1.2.3")
    fleet.add(IngressRelay(newcomer, 714, RelayProtocol.QUIC, "EU-0", 20.0, 30.0))
    after = fleet.active_addresses(25.0, RelayProtocol.QUIC, 714)
    assert after == before | {newcomer}
    assert newcomer not in before  # a handed-out set is never edited
    assert newcomer not in fleet.active_addresses(30.0, RelayProtocol.QUIC, 714)
    assert newcomer in fleet.active_addresses(25.0)
    assert_matches_rescan(fleet)

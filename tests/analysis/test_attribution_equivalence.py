"""The egress tables read one BGP attribution; they must equal per-entry
attribution.

Every §4.2 table, the geo scatter and the §6 overlap report are built
from :meth:`EgressList.attributed`.  The oracles below are the per-entry
loops those functions ran before: each attributes every subnet itself
through ``routing.origin_of(entry.prefix.network_address)`` and the
overlap's prefix hits through ``DualStackTrie.covering``.  They are
compared on the small world and on a hand-built list with unrouted
entries, nested routes, IPv6 /64s and blank cities.
"""

from __future__ import annotations

import pytest

from repro.analysis.egress_report import (
    EgressFacts,
    LocationCdf,
    Table3Report,
    Table3Row,
    Table4Report,
    Table4Row,
    build_egress_facts,
    build_geo_scatter,
    build_location_cdfs,
    build_table3,
    build_table4,
)
from repro.analysis.overlap import build_overlap_report
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.asn import WellKnownAS
from repro.netmodel.bgp import BgpHistory, RoutingTable
from repro.netmodel.geo import MAJOR_COUNTRY_CODES, Gazetteer, GeoPoint
from repro.netmodel.geodb import GeoDatabase, GeoRecord
from repro.netmodel.prefix_trie import DualStackTrie
from repro.relay.egress_list import EgressEntry, EgressList

AKAMAI_PR = int(WellKnownAS.AKAMAI_PR)
AKAMAI_EG = int(WellKnownAS.AKAMAI_EG)
CLOUDFLARE = int(WellKnownAS.CLOUDFLARE)
FASTLY = int(WellKnownAS.FASTLY)
OTHER = 64500


# ----------------------------------------------------------------------
# Oracles: the per-entry attribution loops
# ----------------------------------------------------------------------


def oracle_table3(egress_list, routing):
    per_asn = {}
    for entry in egress_list:
        address = entry.prefix.network_address
        asn = routing.origin_of(address)
        if asn is None:
            continue
        agg = per_asn.setdefault(
            asn,
            {
                "v4_subnets": 0, "v4_addresses": 0, "v4_prefixes": set(),
                "v6_subnets": 0, "v6_prefixes": set(), "v6_ccs": set(),
            },
        )
        bgp_prefix = routing.routed_prefix_of(address)
        if entry.prefix.version == 4:
            agg["v4_subnets"] += 1
            agg["v4_addresses"] += entry.prefix.num_addresses()
            agg["v4_prefixes"].add(bgp_prefix)
        else:
            agg["v6_subnets"] += 1
            agg["v6_prefixes"].add(bgp_prefix)
            agg["v6_ccs"].add(entry.country_code)
    report = Table3Report()
    for asn in sorted(per_asn):
        agg = per_asn[asn]
        report.rows.append(
            Table3Row(
                asn=asn,
                v4_subnets=agg["v4_subnets"],
                v4_bgp_prefixes=len(agg["v4_prefixes"]),
                v4_addresses=agg["v4_addresses"],
                v6_subnets=agg["v6_subnets"],
                v6_bgp_prefixes=len(agg["v6_prefixes"]),
                v6_countries=len(agg["v6_ccs"]),
            )
        )
    return report


def oracle_table4(egress_list, routing):
    per_asn = {}
    for entry in egress_list:
        if not entry.has_city:
            continue
        asn = routing.origin_of(entry.prefix.network_address)
        if asn is None:
            continue
        per_version = per_asn.setdefault(asn, {4: set(), 6: set()})
        per_version[entry.prefix.version].add((entry.country_code, entry.city))
    report = Table4Report()
    for asn in sorted(per_asn):
        v4 = per_asn[asn][4]
        v6 = per_asn[asn][6]
        report.rows.append(Table4Row(asn, len(v4 | v6), len(v4), len(v6)))
    return report


def oracle_geo_scatter(egress_list, routing, gazetteer, version=None):
    out = {}
    for entry in egress_list.entries(version):
        if not entry.has_city:
            continue
        asn = routing.origin_of(entry.prefix.network_address)
        if asn is None:
            continue
        city = gazetteer.city(entry.country_code, entry.city)
        if city is None:
            continue
        out.setdefault(asn, []).append((city.location.lat, city.location.lon))
    return out


def oracle_location_cdfs(egress_list, routing):
    counters = {}
    for entry in egress_list:
        asn = routing.origin_of(entry.prefix.network_address)
        if asn is None:
            continue
        version = entry.prefix.version
        cc_key = (asn, version, "country")
        counters.setdefault(cc_key, {}).setdefault(entry.country_code, 0)
        counters[cc_key][entry.country_code] += 1
        if entry.has_city:
            city_key = (asn, version, "city")
            label = (entry.country_code, entry.city)
            counters.setdefault(city_key, {}).setdefault(label, 0)
            counters[city_key][label] += 1
    return [
        LocationCdf(asn, version, granularity, sorted(counts.values(), reverse=True))
        for (asn, version, granularity), counts in sorted(counters.items())
    ]


def oracle_egress_facts(egress_list, routing, jan_list=None, geodb=None):
    subnet_counts = egress_list.subnets_per_country()
    total = sum(subnet_counts.values())
    ranked = sorted(subnet_counts.items(), key=lambda kv: -kv[1])
    second_cc, second_count = next(
        ((code, count) for code, count in ranked if code != "US"), ("", 0)
    )
    cc_sets = {}
    for entry in egress_list:
        asn = routing.origin_of(entry.prefix.network_address)
        if asn is None:
            continue
        cc_sets.setdefault(asn, set()).add(entry.country_code)
    uniquely = {}
    for asn, codes in cc_sets.items():
        others = set().union(*(s for other, s in cc_sets.items() if other != asn))
        uniquely[asn] = len(codes - others)
    geodb_adoption = None
    if geodb is not None:
        # The egress lookup as it was: the covering (Prefix, entry) pair.
        trie = DualStackTrie()
        for entry in egress_list:
            trie.insert(entry.prefix, entry)
        agree = covered = 0
        for version, network, length, record in geodb.packed_records():
            hit = trie.covering(Prefix(version, network, length))
            if hit is None:
                continue
            covered += 1
            agree += record.country == hit[1].country_code
        geodb_adoption = agree / covered if covered else 0.0
    return EgressFacts(
        total_subnets=total,
        us_share=subnet_counts.get("US", 0) / total if total else 0.0,
        second_cc=second_cc,
        second_cc_share=second_count / total if total else 0.0,
        ccs_below_50=sum(1 for n in subnet_counts.values() if n < 50),
        cc_coverage={asn: len(codes) for asn, codes in cc_sets.items()},
        uniquely_covered=uniquely,
        akamai_pr_extra_over_eg=len(
            cc_sets.get(AKAMAI_PR, set()) - cc_sets.get(AKAMAI_EG, set())
        ),
        missing_city_fraction=egress_list.missing_city_fraction(),
        growth_since_jan=(
            len(egress_list) / len(jan_list) - 1.0 if jan_list and len(jan_list) else 0.0
        ),
        geodb_adoption=geodb_adoption,
    )


def oracle_overlap(routing, ingress_v4, ingress_v6, egress_list):
    """(overlap ASes, ingress prefixes, egress prefixes, shared prefixes)."""
    ingress_asns = {
        asn
        for address in ingress_v4 | ingress_v6
        if (asn := routing.origin_of(address)) is not None
    }
    egress_asns = {
        asn
        for entry in egress_list
        if (asn := routing.origin_of(entry.prefix.network_address)) is not None
    }
    trie = DualStackTrie()
    for prefix in routing.prefixes_by_origin(AKAMAI_PR):
        trie.insert(prefix, "announced")
    ingress_hit = set()
    for address in ingress_v4 | ingress_v6:
        hit = trie.lookup(address)
        if hit is not None:
            ingress_hit.add(hit[0])
    egress_hit = set()
    for entry in egress_list:
        hit = trie.covering(entry.prefix)
        if hit is not None:
            egress_hit.add(hit[0])
    return (
        ingress_asns & egress_asns,
        len(ingress_hit),
        len(egress_hit),
        len(ingress_hit & egress_hit),
    )


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


def assert_tables_match_oracles(egress_list, routing, gazetteer, jan_list, geodb):
    assert build_table3(egress_list, routing) == oracle_table3(egress_list, routing)
    assert build_table4(egress_list, routing) == oracle_table4(egress_list, routing)
    assert build_location_cdfs(egress_list, routing) == oracle_location_cdfs(
        egress_list, routing
    )
    assert build_egress_facts(egress_list, routing, jan_list, geodb) == (
        oracle_egress_facts(egress_list, routing, jan_list, geodb)
    )
    for version in (None, 4, 6):
        assert build_geo_scatter(egress_list, routing, gazetteer, version) == (
            oracle_geo_scatter(egress_list, routing, gazetteer, version)
        )


def assert_overlap_matches_oracle(routing, ingress_v4, ingress_v6, egress_list):
    report = build_overlap_report(
        routing, BgpHistory(), ingress_v4, ingress_v6, egress_list
    )
    got = (
        report.overlap_asns,
        report.ingress_prefixes,
        report.egress_prefixes,
        report.shared_prefixes,
    )
    assert got == oracle_overlap(routing, ingress_v4, ingress_v6, egress_list)


class TestSmallWorld:
    def test_egress_tables_match_oracles(self, small_world):
        world = small_world
        assert_tables_match_oracles(
            world.egress_list_may, world.routing, world.gazetteer,
            world.egress_list_jan, world.geodb,
        )

    def test_overlap_matches_oracle(self, small_world):
        world = small_world
        now = world.clock.now
        ingress_v4 = {r.address for r in world.ingress_v4.relays if r.is_active(now)}
        ingress_v6 = {r.address for r in world.ingress_v6.relays if r.is_active(now)}
        assert_overlap_matches_oracle(
            world.routing, ingress_v4, ingress_v6, world.egress_list_may
        )

    def test_attribution_is_shared(self, small_world):
        world = small_world
        first = world.egress_list_may.attributed(world.routing)
        assert world.egress_list_may.attributed(world.routing) is first
        assert [entry for entry, _ in first] == [
            entry
            for entry in world.egress_list_may
            if world.routing.origin_of(entry.prefix.network_address) is not None
        ]


# ----------------------------------------------------------------------
# A hand-built world: nested routes, unrouted entries, blank cities
# ----------------------------------------------------------------------


ROUTES = [
    ("10.0.0.0/8", OTHER),
    ("10.1.0.0/16", AKAMAI_PR),
    ("10.1.2.0/24", CLOUDFLARE),  # more specific than Akamai's /16
    ("10.1.4.0/24", FASTLY),  # longer than the /23 egress subnet in it
    ("192.0.2.0/24", FASTLY),
    ("2001:db8::/32", AKAMAI_PR),
    ("2001:db8:1::/48", AKAMAI_EG),
    ("2a00::/16", CLOUDFLARE),
]


@pytest.fixture()
def gazetteer():
    return Gazetteer(seed=7, num_countries=len(MAJOR_COUNTRY_CODES), cities_per_country=(2, 3))


def city(gazetteer, country, index=0):
    return gazetteer.cities_in(country)[index].name


@pytest.fixture()
def hand_world(gazetteer):
    routing = RoutingTable()
    for text, asn in ROUTES:
        routing.announce(Prefix.parse(text), asn)
    g = gazetteer
    rows = [
        ("10.1.0.0/31", "US", city(g, "US")),
        ("10.1.0.2/31", "US", ""),
        ("10.1.0.4/31", "US", city(g, "US")),
        ("10.1.2.0/32", "DE", city(g, "DE")),
        ("10.1.2.1/32", "DE", ""),
        ("10.1.4.0/23", "GB", city(g, "GB", 1)),
        ("10.200.0.0/32", "FR", city(g, "FR")),
        ("192.0.2.4/31", "GB", city(g, "GB")),
        ("192.0.2.6/31", "GB", "NOWHERE"),  # not in the gazetteer
        ("198.51.100.0/31", "US", city(g, "US")),  # unrouted
        ("2001:db8:0:1::/64", "US", city(g, "US", 1)),
        ("2001:db8:0:2::/64", "JP", ""),
        ("2001:db8:1:5::/64", "JP", city(g, "JP")),
        ("2001:db8:1:6::/64", "JP", ""),
        ("2a00:1::/64", "BR", city(g, "BR")),
        ("2a00:1:0:1::/64", "US", city(g, "US")),
        ("2c0f::/64", "ZA", city(g, "ZA")),  # unrouted
    ]
    egress = EgressList(
        EgressEntry(Prefix.parse(p), cc, f"{cc}-R", name) for p, cc, name in rows
    )
    jan = EgressList(list(egress)[:5])
    geodb = GeoDatabase()
    point = GeoPoint(0.0, 0.0)
    for text, country in [
        ("10.1.0.0/31", "US"),  # agrees
        ("10.1.2.0/32", "FR"),  # disagrees
        ("10.1.0.2/32", "US"),  # inside a listed /31
        ("2001:db8:1:5::/64", "JP"),
        ("2001:db8:1:6::/80", "DE"),  # inside a listed /64
        ("203.0.113.0/24", "US"),  # covers no egress subnet
    ]:
        geodb.add(Prefix.parse(text), GeoRecord(country, None, point))
    return routing, egress, jan, geodb


class TestHandBuilt:
    def test_egress_tables_match_oracles(self, hand_world, gazetteer):
        routing, egress, jan, geodb = hand_world
        assert_tables_match_oracles(egress, routing, gazetteer, jan, geodb)

    def test_edges_are_exercised(self, hand_world):
        routing, egress, _jan, _geodb = hand_world
        pairs = egress.attributed(routing)
        # Two unrouted entries drop out; the rest keep list order.
        assert len(pairs) == len(egress) - 2
        assert [e for e, _ in pairs] == [
            e for e in egress if str(e.prefix) not in ("198.51.100.0/31", "2c0f::/64")
        ]
        by_prefix = {str(e.prefix): ann for e, ann in pairs}
        assert by_prefix["10.1.2.0/32"].origin_asn == CLOUDFLARE
        # The route of the /23's network address is the longer /24 in it.
        assert str(by_prefix["10.1.4.0/23"].prefix) == "10.1.4.0/24"
        assert by_prefix["2001:db8:1:6::/64"].origin_asn == AKAMAI_EG

    def test_overlap_matches_oracle(self, hand_world):
        routing, egress, _jan, _geodb = hand_world
        ingress_v4 = {
            IPAddress.parse(a) for a in ("10.1.9.9", "10.1.2.7", "203.0.113.1")
        }
        ingress_v6 = {IPAddress.parse("2001:db8:0:2::1")}
        assert_overlap_matches_oracle(routing, ingress_v4, ingress_v6, egress)
        # Shared prefixes are found across the two key forms.
        report = build_overlap_report(
            routing, BgpHistory(), ingress_v4, ingress_v6, egress
        )
        assert report.shared_prefixes == 2
        assert report.overlap_asns == {AKAMAI_PR, CLOUDFLARE}

    def test_empty_list(self, hand_world, gazetteer):
        routing, _egress, _jan, _geodb = hand_world
        assert_tables_match_oracles(EgressList(), routing, gazetteer, None, None)


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------


class TestAttributedInvalidation:
    def test_recomputed_after_add(self, hand_world):
        routing, egress, _jan, _geodb = hand_world
        before = egress.attributed(routing)
        egress.add(EgressEntry(Prefix.parse("10.1.0.8/31"), "US", "US-R", ""))
        after = egress.attributed(routing)
        assert len(after) == len(before) + 1
        assert after[-1][0].prefix == Prefix.parse("10.1.0.8/31")
        assert after[-1][1].origin_asn == AKAMAI_PR

    def test_recomputed_after_announce_and_withdraw(self, hand_world):
        routing, egress, _jan, _geodb = hand_world
        before = egress.attributed(routing)
        unrouted = Prefix.parse("198.51.100.0/24")
        routing.announce(unrouted, OTHER)
        announced = egress.attributed(routing)
        assert len(announced) == len(before) + 1
        assert any(ann.prefix == unrouted for _, ann in announced)
        assert build_table3(egress, routing) == oracle_table3(egress, routing)

        more_specific = Prefix.parse("10.1.0.0/30")
        routing.announce(more_specific, FASTLY)
        moved = {str(e.prefix): a for e, a in egress.attributed(routing)}
        assert moved["10.1.0.0/31"].origin_asn == FASTLY
        assert moved["10.1.0.4/31"].origin_asn == AKAMAI_PR
        assert build_table4(egress, routing) == oracle_table4(egress, routing)

        routing.withdraw(more_specific)
        routing.withdraw(unrouted)
        assert egress.attributed(routing) == before

    def test_keyed_on_the_routing_table(self, hand_world):
        routing, egress, _jan, _geodb = hand_world
        egress.attributed(routing)
        # Another table at the same version number, routing differently.
        other = RoutingTable()
        other.announce(Prefix.parse("0.0.0.0/0"), OTHER)
        while other.version < routing.version:
            other.announce(Prefix.parse(f"203.0.{other.version}.0/24"), OTHER)
        assert other.version == routing.version
        pairs = egress.attributed(other)
        assert [e for e, _ in pairs] == [e for e in egress if e.prefix.version == 4]
        assert {ann.origin_asn for _, ann in pairs} == {OTHER}

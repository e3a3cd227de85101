"""Tables 3/4, Figures 2/4/5, and the egress-deployment facts.

All analyses consume only public inputs: the published egress list, the
BGP routing table, the gazetteer (for coordinates), and optionally the
commercial geolocation database (for the MaxMind-adoption finding).

Every table reads one BGP attribution of the list,
:meth:`EgressList.attributed` — ``(entry, route)`` per routed subnet,
computed once per routing-table state — instead of re-deriving each
subnet's origin AS itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.tables import TextTable
from repro.netmodel.asn import operator_name
from repro.netmodel.bgp import RoutingTable
from repro.netmodel.geo import Gazetteer
from repro.netmodel.geodb import GeoDatabase
from repro.relay.egress_list import EgressList


# ----------------------------------------------------------------------
# Table 3
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Table3Row:
    """One operator's egress footprint."""

    asn: int
    v4_subnets: int
    v4_bgp_prefixes: int
    v4_addresses: int
    v6_subnets: int
    v6_bgp_prefixes: int
    v6_countries: int

    @property
    def operator(self) -> str:
        return operator_name(self.asn)


@dataclass
class Table3Report:
    """Egress subnets per operating AS."""

    rows: list[Table3Row] = field(default_factory=list)

    def row(self, asn: int) -> Table3Row:
        """The row of one operator AS."""
        for row in self.rows:
            if row.asn == asn:
                return row
        raise KeyError(f"no Table 3 row for AS{asn}")

    def total_subnets(self) -> int:
        """All egress subnets, both versions (the ~238 k)."""
        return sum(r.v4_subnets + r.v6_subnets for r in self.rows)

    def render(self) -> str:
        """The table in the paper's layout."""
        table = TextTable(
            ["AS", "v4 Subnets", "v4 BGP Pfxs", "v4 IP Addr.",
             "v6 Subnets", "v6 BGP Pfxs", "CCs"],
            title="Table 3: egress subnets per operating AS",
        )
        for row in self.rows:
            table.add_row(
                row.operator, row.v4_subnets, row.v4_bgp_prefixes,
                row.v4_addresses, row.v6_subnets, row.v6_bgp_prefixes,
                row.v6_countries,
            )
        return table.render()


def build_table3(egress_list: EgressList, routing: RoutingTable) -> Table3Report:
    """Aggregate the egress list by operator AS via BGP attribution."""
    per_asn: dict[int, dict[str, object]] = {}
    for entry, ann in egress_list.attributed(routing):
        agg = per_asn.get(ann.origin_asn)
        if agg is None:
            agg = per_asn[ann.origin_asn] = {
                "v4_subnets": 0, "v4_addresses": 0, "v4_prefixes": set(),
                "v6_subnets": 0, "v6_prefixes": set(), "v6_ccs": set(),
            }
        if entry.prefix.version == 4:
            agg["v4_subnets"] += 1
            agg["v4_addresses"] += entry.prefix.num_addresses()
            agg["v4_prefixes"].add(ann.prefix)
        else:
            agg["v6_subnets"] += 1
            agg["v6_prefixes"].add(ann.prefix)
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


# ----------------------------------------------------------------------
# Table 4
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Table4Row:
    """Distinct covered cities for one operator."""

    asn: int
    cities_all: int
    cities_v4: int
    cities_v6: int

    @property
    def operator(self) -> str:
        return operator_name(self.asn)


@dataclass
class Table4Report:
    """Covered cities per operator (Appendix A)."""

    rows: list[Table4Row] = field(default_factory=list)

    def row(self, asn: int) -> Table4Row:
        """The row of one operator AS."""
        for row in self.rows:
            if row.asn == asn:
                return row
        raise KeyError(f"no Table 4 row for AS{asn}")

    def render(self) -> str:
        """The table in the paper's layout."""
        table = TextTable(
            ["AS", "Covered Cities", "Cities IPv4", "Cities IPv6"],
            title="Table 4: cities covered by egress subnets",
        )
        for row in self.rows:
            table.add_row(row.operator, row.cities_all, row.cities_v4, row.cities_v6)
        return table.render()


def build_table4(egress_list: EgressList, routing: RoutingTable) -> Table4Report:
    """Count distinct (country, city) pairs per operator and IP version."""
    per_asn: dict[int, dict[int, set]] = {}
    for entry, ann in egress_list.attributed(routing):
        if not entry.city:
            continue
        per_version = per_asn.get(ann.origin_asn)
        if per_version is None:
            per_version = per_asn[ann.origin_asn] = {4: set(), 6: set()}
        per_version[entry.prefix.version].add((entry.country_code, entry.city))
    report = Table4Report()
    for asn in sorted(per_asn):
        v4 = per_asn[asn][4]
        v6 = per_asn[asn][6]
        report.rows.append(
            Table4Row(asn, len(v4 | v6), len(v4), len(v6))
        )
    return report


# ----------------------------------------------------------------------
# Figures 2 and 5: geolocation scatter series
# ----------------------------------------------------------------------


def build_geo_scatter(
    egress_list: EgressList,
    routing: RoutingTable,
    gazetteer: Gazetteer,
    version: int | None = None,
) -> dict[int, list[tuple[float, float]]]:
    """Per operator AS: (lat, lon) of every located subnet.

    This is the data series behind the Figure 2/5 maps.
    """
    out: dict[int, list[tuple[float, float]]] = {}
    for entry, ann in egress_list.attributed(routing):
        if not entry.city:
            continue
        if version is not None and entry.prefix.version != version:
            continue
        city = gazetteer.city(entry.country_code, entry.city)
        if city is None:
            continue
        out.setdefault(ann.origin_asn, []).append(
            (city.location.lat, city.location.lon)
        )
    return out


# ----------------------------------------------------------------------
# Figure 4: CDFs of subnets over cities / countries
# ----------------------------------------------------------------------


@dataclass
class LocationCdf:
    """One CDF series: x = location rank, y = cumulative subnet share."""

    asn: int
    version: int
    granularity: str  # "city" | "country"
    counts: list[int] = field(default_factory=list)  # descending

    def series(self) -> list[tuple[int, float]]:
        """(rank, cumulative fraction) points."""
        total = sum(self.counts)
        if not total:
            return []
        points = []
        acc = 0
        for rank, count in enumerate(self.counts, start=1):
            acc += count
            points.append((rank, acc / total))
        return points

    def location_count(self) -> int:
        """Number of distinct locations (the x-axis extent)."""
        return len(self.counts)


def build_location_cdfs(
    egress_list: EgressList, routing: RoutingTable
) -> list[LocationCdf]:
    """CDFs per (operator, version, granularity) — Figure 4's 4 panels."""
    # Location labels per (operator, version), tallied at C speed below.
    countries: dict[tuple[int, int], list[str]] = {}
    cities: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for entry, ann in egress_list.attributed(routing):
        key = (ann.origin_asn, entry.prefix.version)
        codes = countries.get(key)
        if codes is None:
            codes = countries[key] = []
            cities[key] = []
        codes.append(entry.country_code)
        if entry.city:
            cities[key].append((entry.country_code, entry.city))
    out = []
    for key in sorted(countries):
        for granularity, labels in (("city", cities[key]), ("country", countries[key])):
            if labels:
                out.append(
                    LocationCdf(
                        asn=key[0],
                        version=key[1],
                        granularity=granularity,
                        counts=sorted(Counter(labels).values(), reverse=True),
                    )
                )
    return out


# ----------------------------------------------------------------------
# Deployment facts (Section 4.2 prose)
# ----------------------------------------------------------------------


@dataclass
class EgressFacts:
    """The quotable Section 4.2 findings."""

    total_subnets: int
    us_share: float
    second_cc: str
    second_cc_share: float
    ccs_below_50: int
    cc_coverage: dict[int, int]
    uniquely_covered: dict[int, int]
    akamai_pr_extra_over_eg: int
    missing_city_fraction: float
    growth_since_jan: float
    geodb_adoption: float | None = None

    def render(self) -> str:
        """The quotable findings as prose lines."""
        lines = [
            f"egress subnets: {self.total_subnets}",
            f"US share: {self.us_share:.1%}; #2 is {self.second_cc} at {self.second_cc_share:.1%}",
            f"CCs with <50 subnets: {self.ccs_below_50}",
            f"CC coverage: "
            + ", ".join(
                f"{operator_name(asn)}={n}" for asn, n in sorted(self.cc_coverage.items())
            ),
            f"uniquely covered CCs: "
            + ", ".join(
                f"{operator_name(asn)}={n}"
                for asn, n in sorted(self.uniquely_covered.items())
                if n
            ),
            f"Akamai_PR covers Akamai_EG's CCs plus {self.akamai_pr_extra_over_eg} more",
            f"blank city entries: {self.missing_city_fraction:.1%}",
            f"growth since January: {self.growth_since_jan:+.1%}",
        ]
        if self.geodb_adoption is not None:
            lines.append(f"geo-DB adopted published mapping: {self.geodb_adoption:.1%}")
        return "\n".join(lines)


def build_egress_facts(
    egress_list: EgressList,
    routing: RoutingTable,
    jan_list: EgressList | None = None,
    geodb: GeoDatabase | None = None,
) -> EgressFacts:
    """Compute the Section 4.2 prose facts from public inputs."""
    from repro.netmodel.asn import WellKnownAS

    subnet_counts = egress_list.subnets_per_country()
    total = sum(subnet_counts.values())
    ranked = sorted(subnet_counts.items(), key=lambda kv: -kv[1])
    us_share = subnet_counts.get("US", 0) / total if total else 0.0
    second_cc, second_count = ("", 0)
    for code, count in ranked:
        if code != "US":
            second_cc, second_count = code, count
            break
    cc_sets: dict[int, set[str]] = {}
    for entry, ann in egress_list.attributed(routing):
        codes = cc_sets.get(ann.origin_asn)
        if codes is None:
            codes = cc_sets[ann.origin_asn] = set()
        codes.add(entry.country_code)
    uniquely: dict[int, int] = {}
    for asn, codes in cc_sets.items():
        others = set().union(
            *(s for other, s in cc_sets.items() if other != asn)
        ) if len(cc_sets) > 1 else set()
        uniquely[asn] = len(codes - others)
    akamai_pr = cc_sets.get(int(WellKnownAS.AKAMAI_PR), set())
    akamai_eg = cc_sets.get(int(WellKnownAS.AKAMAI_EG), set())
    growth = 0.0
    if jan_list is not None and len(jan_list):
        growth = len(egress_list) / len(jan_list) - 1.0
    geodb_adoption = None
    if geodb is not None:
        geodb_adoption = _geodb_agreement(egress_list, geodb)
    return EgressFacts(
        total_subnets=total,
        us_share=us_share,
        second_cc=second_cc,
        second_cc_share=second_count / total if total else 0.0,
        ccs_below_50=sum(1 for _c, n in subnet_counts.items() if n < 50),
        cc_coverage={asn: len(codes) for asn, codes in cc_sets.items()},
        uniquely_covered=uniquely,
        akamai_pr_extra_over_eg=len(akamai_pr - akamai_eg),
        missing_city_fraction=egress_list.missing_city_fraction(),
        growth_since_jan=growth,
        geodb_adoption=geodb_adoption,
    )


def _geodb_agreement(egress_list: EgressList, geodb: GeoDatabase) -> float:
    """Fraction of geo-DB-covered egress subnets whose DB country matches
    the published mapping — the MaxMind-adoption check."""
    agree = 0
    covered = 0
    for prefix, record in geodb.records():
        entry = egress_list.lookup(prefix)
        if entry is None:
            continue
        covered += 1
        if record.country == entry.country_code:
            agree += 1
    return agree / covered if covered else 0.0

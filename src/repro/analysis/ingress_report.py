"""Tables 1 and 2: ingress relay evolution and client attribution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import TextTable, pct
from repro.netmodel.asn import WellKnownAS, operator_name
from repro.netmodel.bgp import RoutingTable
from repro.netmodel.population import ASPopulationDataset
from repro.scan.columnar import ColumnarResponses
from repro.scan.ecs_scanner import EcsScanResult
from repro.simtime import format_month

APPLE = int(WellKnownAS.APPLE)
AKAMAI_PR = int(WellKnownAS.AKAMAI_PR)
#: Table 2's per-client-AS count slot of each ingress operator.
_OPERATOR_SLOT = {APPLE: 0, AKAMAI_PR: 1}
#: /24 client subnets an answer covers, by declared ECS scope
#: (``EcsResponse.covered_slash24s`` as a table over the scope byte).
_COVERED_SLASH24S = tuple(1 << (24 - scope) if scope < 24 else 1 for scope in range(256))


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One month of Table 1."""

    month: str
    default_apple: int
    default_akamai: int
    fallback_apple: int | None
    fallback_akamai: int | None

    @property
    def default_total(self) -> int:
        return self.default_apple + self.default_akamai

    @property
    def fallback_total(self) -> int | None:
        if self.fallback_apple is None:
            return None
        return self.fallback_apple + (self.fallback_akamai or 0)


@dataclass
class Table1Report:
    """Ingress relay address counts per AS and month."""

    rows: list[Table1Row] = field(default_factory=list)

    def quic_growth(self) -> float:
        """Relative growth of QUIC relays first→last month (+34 %)."""
        if len(self.rows) < 2 or not self.rows[0].default_total:
            return 0.0
        return self.rows[-1].default_total / self.rows[0].default_total - 1.0

    def fallback_growth(self) -> float:
        """Relative growth of fallback relays (+293 % Feb→Apr)."""
        with_fallback = [r for r in self.rows if r.fallback_total]
        if len(with_fallback) < 2:
            return 0.0
        return with_fallback[-1].fallback_total / with_fallback[0].fallback_total - 1.0

    def final_total(self) -> int:
        """QUIC ingress addresses in the final month (the 1586)."""
        return self.rows[-1].default_total if self.rows else 0

    def render(self) -> str:
        """The table in the paper's layout."""
        table = TextTable(
            ["Month", "Apple", "%", "Akamai", "%", "FB Apple", "%", "FB Akamai", "%"],
            title="Table 1: ingress relay ASes per month (default | fallback)",
        )
        for row in self.rows:
            total = row.default_total or 1
            cells = [
                row.month,
                row.default_apple,
                pct(row.default_apple / total),
                row.default_akamai,
                pct(row.default_akamai / total),
            ]
            if row.fallback_apple is None:
                cells += ["-", "-", "-", "-"]
            else:
                fb_total = row.fallback_total or 1
                cells += [
                    row.fallback_apple,
                    pct(row.fallback_apple / fb_total),
                    row.fallback_akamai or 0,
                    pct((row.fallback_akamai or 0) / fb_total),
                ]
            table.add_row(*cells)
        return table.render()


def build_table1(
    monthly: list[tuple[int, int, EcsScanResult, EcsScanResult | None]]
) -> Table1Report:
    """Build Table 1 from (year, month, default scan, fallback scan|None)."""
    report = Table1Report()
    for year, month, default, fallback in monthly:
        d_by_asn = {k: len(v) for k, v in default.addresses_by_asn().items()}
        row = Table1Row(
            month=format_month(year, month),
            default_apple=d_by_asn.get(APPLE, 0),
            default_akamai=d_by_asn.get(AKAMAI_PR, 0),
            fallback_apple=None,
            fallback_akamai=None,
        )
        if fallback is not None:
            f_by_asn = {k: len(v) for k, v in fallback.addresses_by_asn().items()}
            row = Table1Row(
                month=row.month,
                default_apple=row.default_apple,
                default_akamai=row.default_akamai,
                fallback_apple=f_by_asn.get(APPLE, 0),
                fallback_akamai=f_by_asn.get(AKAMAI_PR, 0),
            )
        report.rows.append(row)
    return report


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------


@dataclass
class Table2Report:
    """Client ASes/subnets/users served per ingress operator."""

    akamai_only_ases: int = 0
    apple_only_ases: int = 0
    both_ases: int = 0
    akamai_only_slash24s: int = 0
    apple_only_slash24s: int = 0
    both_slash24s: int = 0
    both_apple_slash24s: int = 0
    akamai_only_population: int = 0
    apple_only_population: int = 0
    both_population: int = 0

    @property
    def apple_share_of_both(self) -> float:
        """Apple's subnet share within ASes served by both (76 %)."""
        if not self.both_slash24s:
            return 0.0
        return self.both_apple_slash24s / self.both_slash24s

    @property
    def apple_share_of_all_subnets(self) -> float:
        """Apple's share of all served /24 subnets (69 %)."""
        total = (
            self.akamai_only_slash24s + self.apple_only_slash24s + self.both_slash24s
        )
        if not total:
            return 0.0
        return (self.apple_only_slash24s + self.both_apple_slash24s) / total

    def render(self) -> str:
        """The table in the paper's layout."""
        fmt = ASPopulationDataset.format_users
        table = TextTable(
            ["AS", "ASPop", "ASes", "/24 Subnets"],
            title="Table 2: client ASes served by each ingress relay AS",
        )
        table.add_row(
            operator_name(AKAMAI_PR),
            fmt(self.akamai_only_population),
            self.akamai_only_ases,
            self.akamai_only_slash24s,
        )
        table.add_row(
            operator_name(APPLE),
            fmt(self.apple_only_population),
            self.apple_only_ases,
            self.apple_only_slash24s,
        )
        table.add_row(
            f"Both (Apple share {pct(self.apple_share_of_both)})",
            fmt(self.both_population),
            self.both_ases,
            self.both_slash24s,
        )
        return table.render()


def build_table2(
    scan: EcsScanResult,
    routing: RoutingTable,
    population: ASPopulationDataset,
) -> Table2Report:
    """Attribute the April scan's client subnets to operators.

    Per response: the *queried* subnet is attributed to its origin AS
    (the client network) and the *answer* AS names the serving operator;
    the covered-/24 count comes from the ECS scope.  ASes appearing with
    both operators form the "Both" row, whose users cannot be split
    because the population dataset has AS granularity only.

    Reads the scan's response columns.  A scan without them (restored
    from a checkpoint, or answered by the reference path) is packed into
    columns first, so both kinds take the same path.
    """
    columns = scan.columnar_view()
    if columns is None:
        responses = scan.responses
        columns = ColumnarResponses.pack(
            responses, responses[0].subnet.length if responses else 24
        )
    lookup = routing.lookup_value
    # client AS -> served /24s as [Apple, Akamai].
    per_as: dict[int, list[int]] = {}
    for values, scopes, refs, table in columns.chunks:
        # Per distinct answer: the serving operator's slot, or None for
        # answers from neither ingress operator.
        slots = [_OPERATOR_SLOT.get(asn) for _, asn in table]
        for value, scope, ref in zip(values, scopes, refs):
            slot = slots[ref]
            if slot is None:
                continue
            route = lookup(4, value)
            if route is None:
                continue
            counts = per_as.get(route.origin_asn)
            if counts is None:
                if route.origin_asn not in population:
                    # Infrastructure and operator space has no
                    # user-population estimate; like the paper's
                    # APNIC-based attribution, only eyeball ASes covered
                    # by the dataset are attributed.
                    continue
                counts = per_as[route.origin_asn] = [0, 0]
            counts[slot] += _COVERED_SLASH24S[scope]
    report = Table2Report()
    for client_asn, (apple, akamai) in per_as.items():
        users = population.population(client_asn)
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

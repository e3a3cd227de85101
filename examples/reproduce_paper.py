#!/usr/bin/env python3
"""Run the complete reproduction and emit a paper-vs-measured report.

This is the harness that regenerates every table and figure of the
paper in one pass and prints (or writes) a Markdown report comparing
each published number against the measured one.  At ``--scale 1.0`` it
takes 20-23 s wall (median 20 s over seven runs) with ~512 MB peak RSS
on a 2-core x86 VM; the committed ``EXPERIMENTS.md`` was produced by
this script at scale 1.0.

Usage::

    python examples/reproduce_paper.py --scale 1.0 --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import WorldConfig, build_world
from repro.analysis import (
    build_egress_facts,
    build_location_cdfs,
    build_overlap_report,
    build_rotation_report,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
)
from repro.dns.rr import RRType
from repro.netmodel.asn import WellKnownAS
from repro.relay.client import DnsConfig
from repro.relay.ingress import RelayProtocol
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan import (
    AtlasIngressScanner,
    EcsScanner,
    QuicScanner,
    RelayScanConfig,
    RelayScanner,
    classify_blocking,
)
from repro.worldgen.world import CONTROL_DOMAIN

INGRESS_ASNS = {714, 36183}
AKAMAI_PR = int(WellKnownAS.AKAMAI_PR)


def emit(lines: list[str], text: str = "") -> None:
    lines.append(text)


def row(lines, artefact, quantity, paper, measured):
    emit(lines, f"| {artefact} | {quantity} | {paper} | {measured} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--output", type=str, default=None)
    args = parser.parse_args()

    started = time.time()
    world = build_world(WorldConfig(seed=args.seed, scale=args.scale))
    scanner = EcsScanner(world.route53, world.routing, world.clock)

    # ---- §4.1 campaign ---------------------------------------------------
    monthly = []
    for year, month in world.scan_months():
        world.clock.advance_to(world.scan_start(year, month))
        default = scanner.scan(RELAY_DOMAIN_QUIC)
        fallback = None
        if (year, month) != (2022, 1):
            fallback = scanner.scan(RELAY_DOMAIN_FALLBACK)
        monthly.append((year, month, default, fallback))
        print(f"  scanned {year}-{month:02d}", file=sys.stderr)
    april = monthly[-1][2]
    table1 = build_table1(monthly)
    table2 = build_table2(april, world.routing, world.population)

    atlas_time = world.deployment.april_scan_start + 40 * 3600.0
    if world.clock.now < atlas_time:
        world.clock.advance_to(atlas_time)
    atlas = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
    validation = atlas.validate_against_ecs(RELAY_DOMAIN_QUIC, april.addresses())
    v6_report = None
    for _ in range(4):
        v6_report = atlas.measure_ingress_v6(RELAY_DOMAIN_QUIC, v6_report)
    v6_by_asn = v6_report.by_asn(world.routing)
    blocking = classify_blocking(
        world.atlas, world.routing, RELAY_DOMAIN_QUIC, CONTROL_DOMAIN, INGRESS_ASNS
    )
    print("  atlas done", file=sys.stderr)

    # ---- §4.2 egress ------------------------------------------------------
    table3 = build_table3(world.egress_list_may, world.routing)
    table4 = build_table4(world.egress_list_may, world.routing)
    facts = build_egress_facts(
        world.egress_list_may, world.routing, world.egress_list_jan, world.geodb
    )
    cdfs = {(c.asn, c.version, c.granularity): c
            for c in build_location_cdfs(world.egress_list_may, world.routing)}

    # ---- §4.3 / §6 relay scans --------------------------------------------
    open_client = world.make_vantage_client()
    open_day = RelayScanner(
        open_client, world.web_server, world.echo_server, world.clock
    ).run(RelayScanConfig(300.0, 86400.0), "open")
    forced_ingress = sorted(
        world.ingress_v4.active_addresses(world.clock.now, RelayProtocol.QUIC)
    )[0]
    fixed_client = world.make_vantage_client(
        DnsConfig.fixed({("mask.icloud.com", RRType.A): [forced_ingress]})
    )
    fixed_day = RelayScanner(
        fixed_client, world.web_server, world.echo_server, world.clock
    ).run(RelayScanConfig(300.0, 86400.0), "fixed")
    fine = RelayScanner(
        open_client, world.web_server, world.echo_server, world.clock
    ).run(RelayScanConfig(30.0, 2 * 86400.0), "open-30s")
    rotation = build_rotation_report(fine, fixed_day, world.egress_list_may)
    print("  relay scans done", file=sys.stderr)

    quic = QuicScanner(world.service).scan(sorted(april.addresses()))

    used_ingress = sorted(
        a for a in fine.ingress_addresses() if world.routing.origin_of(a) == AKAMAI_PR
    )
    used_egress = sorted(
        r.curl.egress_address for r in fine.rounds if r.curl.egress_asn == AKAMAI_PR
    )
    overlap = build_overlap_report(
        world.routing, world.history, april.addresses(), v6_report.addresses,
        world.egress_list_may, world.topology, world.vantage_router_id,
        used_ingress[0] if used_ingress else None,
        used_egress[0] if used_egress else None,
    )

    # ---- report -------------------------------------------------------------
    lines: list[str] = []
    emit(lines, "# EXPERIMENTS — paper vs. measured")
    emit(lines)
    emit(lines, f"Generated by `examples/reproduce_paper.py --scale {args.scale} "
                f"--seed {args.seed}` in {time.time() - started:.0f} s.")
    emit(lines)
    emit(lines, "All *measured* values come from running the measurement pipeline")
    emit(lines, "(`repro.scan` + `repro.analysis`) against the simulated world —")
    emit(lines, "never from reading ground truth.  At scale 1.0 the world is")
    emit(lines, "calibrated to the paper's aggregates; the match below shows the")
    emit(lines, "pipeline *recovers* them.  Scale < 1.0 shrinks populations")
    emit(lines, "linearly.")
    emit(lines)
    emit(lines, "| Artefact | Quantity | Paper | Measured |")
    emit(lines, "|---|---|---|---|")

    apr = table1.rows[-1]
    jan = table1.rows[0]
    row(lines, "Table 1", "Jan QUIC relays (Apple/Akamai)", "365 / 823",
        f"{jan.default_apple} / {jan.default_akamai}")
    row(lines, "Table 1", "Apr QUIC relays (Apple/Akamai)", "349 / 1237",
        f"{apr.default_apple} / {apr.default_akamai}")
    row(lines, "Table 1", "Apr fallback relays (Apple/Akamai)", "336 / 1062",
        f"{apr.fallback_apple} / {apr.fallback_akamai}")
    row(lines, "Table 1", "QUIC growth Jan→Apr", "+34 %", f"{table1.quic_growth():+.0%}")
    row(lines, "Table 1", "Fallback growth Feb→Apr", "+293 %",
        f"{table1.fallback_growth():+.0%}")
    row(lines, "Table 2", "Akamai-only (ASes / subnets / users)",
        "34 627 / 1.1 M / 994 M",
        f"{table2.akamai_only_ases} / {table2.akamai_only_slash24s} / "
        f"{table2.akamai_only_population}")
    row(lines, "Table 2", "Apple-only (ASes / subnets / users)",
        "20 807 / 0.2 M / 105 M",
        f"{table2.apple_only_ases} / {table2.apple_only_slash24s} / "
        f"{table2.apple_only_population}")
    row(lines, "Table 2", "Both (ASes / subnets / users)",
        "17 301 / 10.6 M / 2 373 M",
        f"{table2.both_ases} / {table2.both_slash24s} / {table2.both_population}")
    row(lines, "Table 2", "Apple share of 'Both' subnets", "76 %",
        f"{table2.apple_share_of_both:.0%}")
    row(lines, "§4.1", "Apple share of all served subnets", "69 %",
        f"{table2.apple_share_of_all_subnets:.0%}")
    row(lines, "§4.1", "ECS scan duration", "up to 40 h",
        f"{april.duration_hours():.0f} h (simulated)")
    row(lines, "§4.1", "Atlas vs ECS IPv4 addresses", "1382 vs 1586",
        f"{validation.atlas_count} vs {validation.ecs_count}")
    row(lines, "§4.1", "Atlas-only addresses", "1", f"{len(validation.atlas_only)}")
    row(lines, "§4.1", "IPv6 ingress (total; Apple/Akamai)", "1575; 346 / 1229",
        f"{len(v6_report.addresses)}; {v6_by_asn.get(714, 0)} / "
        f"{v6_by_asn.get(AKAMAI_PR, 0)}")
    row(lines, "§4.1", "probe timeouts", "10 %", f"{blocking.timeout_share:.1%}")
    row(lines, "§4.1", "failures with response", "7 %", f"{blocking.failure_share:.1%}")
    row(lines, "§4.1", "NXDOMAIN / NOERROR / REFUSED share", "72 / 13 / 5 %",
        f"{blocking.rcode_share_of_failures('NXDOMAIN'):.0%} / "
        f"{blocking.rcode_share_of_failures('NOERROR'):.0%} / "
        f"{blocking.rcode_share_of_failures('REFUSED'):.0%}")
    row(lines, "§4.1", "blocked probes", "645 (5.5 %)",
        f"{blocking.blocked_probes} ({blocking.blocked_share:.1%})")
    row(lines, "§4.1", "DNS hijacks observed", "1", f"{blocking.hijacked_probes}")

    def t3(asn):
        r = table3.row(asn)
        return (f"{r.v4_subnets} / {r.v4_bgp_prefixes} / {r.v4_addresses} ; "
                f"{r.v6_subnets} / {r.v6_bgp_prefixes} / {r.v6_countries}")

    row(lines, "Table 3", "Akamai-PR (v4 sub/pfx/addr ; v6 sub/pfx/CC)",
        "9890 / 301 / 57589 ; 142826 / 1172 / 236", t3(AKAMAI_PR))
    row(lines, "Table 3", "Akamai-EG", "1602 / 1 / 5100 ; 23495 / 1 / 24",
        t3(int(WellKnownAS.AKAMAI_EG)))
    row(lines, "Table 3", "Cloudflare", "18218 / 112 / 18218 ; 26988 / 2 / 248",
        t3(int(WellKnownAS.CLOUDFLARE)))
    row(lines, "Table 3", "Fastly", "8530 / 81 / 17060 ; 8530 / 81 / 236",
        t3(int(WellKnownAS.FASTLY)))
    row(lines, "Table 3", "total egress subnets", "~238 k", f"{table3.total_subnets()}")

    def t4(asn):
        r = table4.row(asn)
        return f"{r.cities_all} / {r.cities_v4} / {r.cities_v6}"

    row(lines, "Table 4", "Akamai-PR cities (all/v4/v6)", "14088 / 853 / 14085",
        t4(AKAMAI_PR))
    row(lines, "Table 4", "Akamai-EG cities", "7507 / 455 / 7507",
        t4(int(WellKnownAS.AKAMAI_EG)))
    row(lines, "Table 4", "Cloudflare cities", "5228 / 1134 / 5228",
        t4(int(WellKnownAS.CLOUDFLARE)))
    row(lines, "Table 4", "Fastly cities", "848 / 848 / 848",
        t4(int(WellKnownAS.FASTLY)))
    row(lines, "Fig 2/5", "US subnet share / #2 CC", "58 % / DE 3.6 %",
        f"{facts.us_share:.0%} / {facts.second_cc} {facts.second_cc_share:.1%}")
    row(lines, "Fig 2/5", "CCs below 50 subnets", "123", f"{facts.ccs_below_50}")
    row(lines, "Fig 2/5", "CC coverage CF / APR / Fastly / AEG",
        "248 / 236 / 236 / 24",
        " / ".join(str(facts.cc_coverage.get(int(a), 0)) for a in (
            WellKnownAS.CLOUDFLARE, WellKnownAS.AKAMAI_PR,
            WellKnownAS.FASTLY, WellKnownAS.AKAMAI_EG)))
    row(lines, "Fig 2/5", "CCs uniquely covered (all Cloudflare)", "11",
        f"{facts.uniquely_covered.get(int(WellKnownAS.CLOUDFLARE), 0)}")
    row(lines, "§4.2", "Akamai-PR extra CCs over Akamai-EG", "212",
        f"{facts.akamai_pr_extra_over_eg}")
    row(lines, "§4.2", "blank-city entries", "1.6 %",
        f"{facts.missing_city_fraction:.1%}")
    row(lines, "§4.2", "list growth since January", "+15 %",
        f"{facts.growth_since_jan:+.0%}")
    row(lines, "§4.2", "geo-DB adopted published mapping", "most subnets",
        f"{facts.geodb_adoption:.0%}")
    pr_cdf = cdfs[(AKAMAI_PR, 6, "city")]
    row(lines, "Fig 4", "Akamai-PR IPv6 city-CDF extent", "14 085",
        f"{pr_cdf.location_count()}")
    row(lines, "Fig 3", "operator changes per day (open / fixed)",
        "a handful / a handful",
        f"{len(open_day.operator_changes())} / {len(fixed_day.operator_changes())}")
    row(lines, "Fig 3", "operators at vantage", "Cloudflare + Akamai-PR (no Fastly)",
        " + ".join(sorted(rotation.operators_seen())))
    row(lines, "§4.3", "egress address change rate", "> 66 %",
        f"{rotation.address_change_rate():.0%}")
    row(lines, "§4.3", "distinct addresses / subnets over 48 h", "6 / 4",
        f"{rotation.distinct_address_count()} / {rotation.distinct_subnet_count()}")
    row(lines, "§4.3", "parallel connections diverge", "yes",
        f"{rotation.parallel_divergence_rate():.0%} of rounds")
    row(lines, "§4.3", "forced ingress changes egress behaviour", "no",
        "yes" if rotation.forced_ingress_changes_behaviour() else "no")
    row(lines, "§3", "QUIC handshakes answered", "0 (timeout)",
        f"{quic.handshake_responses}")
    row(lines, "§3", "version negotiation versions", "QUICv1, drafts 29-27",
        ", ".join(quic.dominant_versions()))
    row(lines, "§6", "ASes hosting ingress AND egress", "AS36183",
        ", ".join(f"AS{a}" for a in sorted(overlap.overlap_asns)))
    row(lines, "§6", "ingress/egress share a last hop", "yes",
        "yes" if overlap.shared_last_hop else "no")
    row(lines, "§6", "AS36183 announced prefixes (v4+v6)", "478 + 1335",
        f"{overlap.announced_v4} + {overlap.announced_v6}")
    row(lines, "§6", "prefixes with ingress / egress / both", "201 / 1472 / 0",
        f"{overlap.ingress_prefixes} / {overlap.egress_prefixes} / "
        f"{overlap.shared_prefixes}")
    row(lines, "§6", "used prefix fraction", "92.2 %", f"{overlap.used_fraction:.1%}")
    row(lines, "§6", "AS36183 first BGP occurrence", "2021-06",
        f"{overlap.first_seen[0]}-{overlap.first_seen[1]:02d}"
        if overlap.first_seen else "never")

    emit(lines)
    emit(lines, "## Rendered tables")
    for table in (table1, table2, table3, table4):
        emit(lines)
        emit(lines, "```")
        emit(lines, table.render())
        emit(lines, "```")
    emit(lines)
    emit(lines, "## Notes")
    emit(lines)
    emit(lines, "- Scan volumes and durations are simulated-time quantities; the")
    emit(lines, f"  April ECS scan sent {april.queries_sent} queries over")
    emit(lines, f"  {april.duration_hours():.1f} simulated hours under the 2.2 q/s limit.")
    emit(lines, "- Rotation statistics depend on the seeded RNG; the asserted")
    emit(lines, "  property is the paper's (>66 % change rate, small pools),")
    emit(lines, "  not an exact count.")
    emit(lines, "- See DESIGN.md for the substitution table (what the paper used")
    emit(lines, "  → what this repo builds → why behaviour is preserved).")

    report = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report)


if __name__ == "__main__":
    main()

"""Command-line interface.

``repro-relay`` exposes the measurement pipeline without writing code:

* ``world-info`` — summarise a generated world;
* ``ecs-scan`` — run one ECS ingress scan, optionally exporting the
  longitudinal dataset CSV;
* ``egress-report`` — Tables 3/4 plus the Section 4.2 facts;
* ``relay-scan`` — a scan day through the relay with rotation stats;
* ``blocking`` — the Atlas blocking study;
* ``campaign`` — the scan campaign: the paper's monthly full-rescan
  calendar (``--mode full``) or continuous delta monitoring under a
  query budget (``--mode delta``);
* ``reproduce`` — the full paper-vs-measured report (see
  ``examples/reproduce_paper.py`` for the stand-alone version);
* ``telemetry`` — render a saved telemetry snapshot as a table.

All world-building subcommands take ``--scale``, ``--seed`` and
``--telemetry-out PATH`` (save a metrics + span snapshot; ``.prom``
suffix selects Prometheus text format instead of JSON).
"""

from __future__ import annotations

import argparse
import sys

import math

from repro import WorldConfig, build_world
from repro.analysis import (
    build_egress_facts,
    build_rotation_report,
    build_table3,
    build_table4,
)
from repro.errors import ReproError
from repro.faults import PROFILES, FaultPlan
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan import (
    EcsScanner,
    IngressArchive,
    RelayScanConfig,
    RelayScanner,
    classify_blocking,
)
from repro.worldgen.world import CONTROL_DOMAIN

INGRESS_ASNS = {714, 36183}


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (``--scale``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (``--workers``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _host_port(text: str) -> tuple[str, int]:
    """argparse type: ``HOST:PORT`` (``--serve-status``, ``--status``)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not HOST:PORT (e.g. 127.0.0.1:9100)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port {port_text!r} is not an integer"
        ) from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} out of range 0-65535")
    return host, port


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=_positive_float, default=0.02,
                        help="world scale (1.0 = paper scale)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--telemetry-out", type=str, default=None, metavar="PATH",
                        help="write a telemetry snapshot (metrics + spans) here; "
                             "a .prom suffix selects Prometheus text format")


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-profile", choices=sorted(PROFILES),
                        default="none",
                        help="inject deterministic faults (seeded from --seed; "
                             "results are reproducible per profile)")


def _fault_plan(args) -> FaultPlan | None:
    """The seeded plan for ``--fault-profile``, or None for 'none'."""
    name = getattr(args, "fault_profile", "none")
    if name == "none":
        return None
    return FaultPlan(PROFILES[name], seed=args.seed)


def _make_telemetry(args):
    """A live Telemetry when ``--telemetry-out`` was given, else the null one."""
    from repro.telemetry import NULL_TELEMETRY, Telemetry

    if getattr(args, "telemetry_out", None):
        return Telemetry()
    return NULL_TELEMETRY


def _write_telemetry(args, telemetry) -> None:
    if getattr(args, "telemetry_out", None) and telemetry.enabled:
        telemetry.write(args.telemetry_out)
        print(f"wrote telemetry to {args.telemetry_out}")


def _world(args, telemetry=None):
    return build_world(
        WorldConfig(seed=args.seed, scale=args.scale), telemetry=telemetry
    )


def cmd_world_info(args) -> int:
    telemetry = _make_telemetry(args)
    world = _world(args, telemetry)
    config = world.config
    print(f"seed={config.seed} scale={config.scale}")
    print(f"client ASes:        {len(world.ground.client_ases)}")
    print(f"client /24 subnets: {world.ground.client_slash24_total()}")
    print(f"assignment units:   {len(world.assignment)}")
    print(f"ingress relays v4:  {len(world.ingress_v4.relays)}")
    print(f"ingress relays v6:  {len(world.ingress_v6.relays)}")
    print(f"egress subnets:     {len(world.egress_list_may)}")
    print(f"atlas probes:       {len(world.atlas)} in "
          f"{len(world.atlas.distinct_asns())} ASes, "
          f"{len(world.atlas.distinct_countries())} countries")
    _write_telemetry(args, telemetry)
    return 0


def cmd_ecs_scan(args) -> int:
    from repro.scan import EcsScanSettings, ShardedCampaignExecutor

    telemetry = _make_telemetry(args)
    world = _world(args, telemetry)
    world.clock.advance_to(world.scan_start(args.year, args.month))
    domain = RELAY_DOMAIN_FALLBACK if args.fallback else RELAY_DOMAIN_QUIC
    settings = EcsScanSettings(
        workers=args.workers,
        campaign_seed=args.seed,
        fault_plan=_fault_plan(args),
    )
    scanner = EcsScanner(
        world.route53, world.routing, world.clock, settings, telemetry=telemetry
    )
    if args.workers > 1 and ShardedCampaignExecutor.supported():
        with ShardedCampaignExecutor(scanner, args.workers) as executor:
            result = executor.scan(domain)
    else:
        result = scanner.scan(domain)
    print(f"domain:    {domain}")
    print(f"queries:   {result.queries_sent} "
          f"({result.sparse_queries} sparse, "
          f"{result.duration_hours():.1f} simulated hours)")
    if result.retries or result.gave_up:
        print(f"faults:    {result.retries} retries, "
              f"{len(result.gave_up)} abandoned blocks")
    print(f"addresses: {len(result.addresses())}")
    for asn, addresses in sorted(result.addresses_by_asn().items()):
        print(f"  AS{asn}: {len(addresses)}")
    if args.archive:
        archive = IngressArchive(domain)
        archive.record(result)
        with open(args.archive, "w") as handle:
            handle.write(archive.to_csv())
        print(f"wrote {args.archive}")
    _write_telemetry(args, telemetry)
    return 0


def cmd_egress_report(args) -> int:
    telemetry = _make_telemetry(args)
    world = _world(args, telemetry)
    print(build_table3(world.egress_list_may, world.routing).render())
    print()
    print(build_table4(world.egress_list_may, world.routing).render())
    print()
    facts = build_egress_facts(
        world.egress_list_may, world.routing, world.egress_list_jan, world.geodb
    )
    print(facts.render())
    _write_telemetry(args, telemetry)
    return 0


def cmd_relay_scan(args) -> int:
    telemetry = _make_telemetry(args)
    world = _world(args, telemetry)
    world.clock.advance_to(world.scan_start(2022, 4))
    plan = _fault_plan(args)
    if plan is not None:
        world.service.fault_plan = plan
    client = world.make_vantage_client()
    scanner = RelayScanner(client, world.web_server, world.echo_server, world.clock)
    series = scanner.run(
        RelayScanConfig(args.interval, args.duration), "cli-scan"
    )
    report = build_rotation_report(series, egress_list=world.egress_list_may)
    print(f"rounds: {len(series)} (failures: {series.failures})")
    print(report.render())
    _write_telemetry(args, telemetry)
    return 0


def cmd_blocking(args) -> int:
    telemetry = _make_telemetry(args)
    world = _world(args, telemetry)
    world.clock.advance_to(world.scan_start(2022, 4))
    report = classify_blocking(
        world.atlas, world.routing, RELAY_DOMAIN_QUIC, CONTROL_DOMAIN, INGRESS_ASNS
    )
    print(f"probes:   {report.total_probes}")
    print(f"timeouts: {report.timeouts} ({report.timeout_share:.1%})")
    print(f"failures: {report.failures_with_response} ({report.failure_share:.1%})")
    for rcode, count in sorted(report.rcode_counts.items(), key=lambda kv: -kv[1]):
        print(f"  {rcode}: {count}")
    print(f"hijacks:  {report.hijacked_probes}")
    print(f"blocked:  {report.blocked_probes} ({report.blocked_share:.1%})")
    _write_telemetry(args, telemetry)
    return 0


def cmd_archive(args) -> int:
    """Run the full campaign and write the research-data archive."""
    from repro.archive import write_archive
    from repro.scan import ScanCampaign

    from repro.scan import EcsScanSettings

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    telemetry = _make_telemetry(args)
    world = _world(args, telemetry)
    settings = EcsScanSettings(
        workers=args.workers,
        campaign_seed=args.seed,
        fault_plan=_fault_plan(args),
    )
    with ScanCampaign(
        world.route53, world.routing, world.clock, settings, telemetry,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        # The campaign never sees the world parameters; fold them into
        # the fingerprint so checkpoints refuse to splice across worlds.
        checkpoint_meta={"world_seed": args.seed, "world_scale": args.scale},
    ) as campaign:
        campaign.run(world.scan_months())
    path = write_archive(
        args.directory,
        campaign,
        world.egress_list_may,
        world.egress_list_jan,
        world.history,
        metadata={"seed": args.seed, "scale": args.scale},
    )
    print(f"wrote archive to {path}")
    print(f"  ingress (default):  {len(campaign.default_archive)} addresses")
    print(f"  ingress (fallback): {len(campaign.fallback_archive)} addresses")
    print(f"  egress subnets:     {len(world.egress_list_may)}")
    _write_telemetry(args, telemetry)
    return 0


def cmd_campaign(args) -> int:
    """Run the scan campaign: monthly full rescans, or continuous delta."""
    from repro.scan import EcsScanSettings, ScanCampaign

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.mode == "full":
        for value, name in (
            (args.snapshot_dir, "--snapshot-dir"),
            (args.budget, "--budget"),
            (args.refresh_rounds, "--refresh-rounds"),
            (args.rounds, "--rounds"),
        ):
            if value is not None:
                print(f"error: {name} requires --mode delta", file=sys.stderr)
                return 2
    else:
        if args.snapshot_dir is None:
            print("error: --mode delta requires --snapshot-dir",
                  file=sys.stderr)
            return 2
        if args.checkpoint_dir or args.resume:
            print("error: --checkpoint-dir/--resume apply to --mode full; "
                  "delta state persists in --snapshot-dir", file=sys.stderr)
            return 2
    telemetry = _make_telemetry(args)
    if args.serve_status is not None and not telemetry.enabled:
        # /metrics serves the live registry; a null one would be empty.
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    world = _world(args, telemetry)
    settings = EcsScanSettings(
        workers=args.workers,
        campaign_seed=args.seed,
        fault_plan=_fault_plan(args),
    )
    meta = {"world_seed": args.seed, "world_scale": args.scale}
    status = events = server = None
    plan = settings.fault_plan
    if args.serve_status is not None or args.event_log:
        from repro.monitor import EventLog, MonitorServer, StatusBoard

        status = StatusBoard()
        if args.event_log:
            events = EventLog(
                args.event_log,
                clock=world.clock,
                gate=plan.storage if plan is not None else None,
                registry=telemetry.registry,
                status=status,
            )
        if args.serve_status is not None:
            host, port = args.serve_status
            server = MonitorServer(status, telemetry, host=host, port=port)
            server.start()
            print(f"serving status on http://{server.host}:{server.port} "
                  f"(/health /metrics /status)", flush=True)
    from repro.scan.drain import DrainController

    try:
        drain = DrainController().install()
    except ValueError:  # not the main thread: run without graceful drain
        drain = None
    try:
        if args.mode == "full":
            with ScanCampaign(
                world.route53, world.routing, world.clock, settings, telemetry,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                checkpoint_meta=meta,
                status=status,
                events=events,
                drain=drain,
                shard_deadline=args.shard_deadline,
            ) as campaign:
                for month in campaign.run(world.scan_months()):
                    fallback = ("no fallback scan" if month.fallback is None else
                                f"fallback {month.fallback.queries_sent} queries")
                    print(f"{month.year}-{month.month:02d}: "
                          f"default {month.default.queries_sent} queries, "
                          f"{fallback}")
                archives = (campaign.default_archive, campaign.fallback_archive)
        else:
            with ScanCampaign(
                world.route53, world.routing, world.clock, settings, telemetry,
                checkpoint_meta=meta,
                mode="delta",
                snapshot_dir=args.snapshot_dir,
                budget=args.budget,
                refresh_rounds=args.refresh_rounds or 3,
                status=status,
                events=events,
                drain=drain,
                shard_deadline=args.shard_deadline,
            ) as campaign:
                deltas = campaign.run_continuous(
                    args.year, args.month, args.rounds or 3
                )
                for delta in deltas:
                    print(f"round {delta.index}: {delta.queries_sent} queries "
                          f"({delta.queries_frac:.1%} of a full rescan), "
                          f"{len(delta.events)} change events, "
                          f"{delta.budget_deferred} budget-deferred")
                archives = (campaign.default_archive, campaign.fallback_archive)
    finally:
        if drain is not None:
            drain.uninstall()
        if server is not None:
            server.stop()
        if events is not None:
            events.close()
    if drain is not None and drain.requested:
        print("interrupted: drained in-flight work, state persisted; "
              "resume with the same arguments to continue", flush=True)
    print(f"ingress (default):  {len(archives[0])} addresses")
    print(f"ingress (fallback): {len(archives[1])} addresses")
    _write_telemetry(args, telemetry)
    return 0


def cmd_monitor(args) -> int:
    """Dashboard/report over an event log or a live /status endpoint."""
    from repro.monitor.cli import run_monitor

    return run_monitor(args)


def cmd_reproduce(args) -> int:
    # Delegate to the example script's logic for the full report.
    import runpy
    import pathlib

    if getattr(args, "telemetry_out", None):
        print("note: --telemetry-out is not supported by the reproduce "
              "subcommand (it delegates to examples/reproduce_paper.py)",
              file=sys.stderr)
    script = (
        pathlib.Path(__file__).resolve().parents[2] / "examples" / "reproduce_paper.py"
    )
    argv = ["reproduce_paper.py", "--scale", str(args.scale), "--seed", str(args.seed)]
    if args.output:
        argv += ["--output", args.output]
    old_argv = sys.argv
    sys.argv = argv
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return 0


def cmd_lint(args) -> int:
    """Static determinism & concurrency analysis (see DESIGN.md §9)."""
    from repro.lint.cli import run_lint

    return run_lint(args)


def cmd_telemetry(args) -> int:
    """Render a saved telemetry JSON snapshot as a human-readable table."""
    import json

    from repro.telemetry import render_snapshot

    with open(args.snapshot) as handle:
        snapshot = json.load(handle)
    print(render_snapshot(snapshot, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-relay",
        description="Reproduction toolkit for the IMC'22 iCloud Private Relay study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("world-info", help="summarise a generated world")
    _add_world_args(p)
    p.set_defaults(func=cmd_world_info)

    p = sub.add_parser("ecs-scan", help="run one ECS ingress scan")
    _add_world_args(p)
    p.add_argument("--year", type=int, default=2022)
    p.add_argument("--month", type=int, default=4)
    p.add_argument("--fallback", action="store_true",
                   help="scan mask-h2.icloud.com instead")
    p.add_argument("--archive", type=str, default=None,
                   help="write the longitudinal dataset CSV here")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="shard the scan across N worker processes "
                        "(results are identical at any worker count)")
    _add_fault_args(p)
    p.set_defaults(func=cmd_ecs_scan)

    p = sub.add_parser("egress-report", help="Tables 3/4 and egress facts")
    _add_world_args(p)
    p.set_defaults(func=cmd_egress_report)

    p = sub.add_parser("relay-scan", help="scan through the relay")
    _add_world_args(p)
    p.add_argument("--interval", type=float, default=300.0)
    p.add_argument("--duration", type=float, default=86400.0)
    _add_fault_args(p)
    p.set_defaults(func=cmd_relay_scan)

    p = sub.add_parser("blocking", help="the Atlas blocking study")
    _add_world_args(p)
    p.set_defaults(func=cmd_blocking)

    p = sub.add_parser("archive", help="write the research-data archive")
    _add_world_args(p)
    p.add_argument("directory", help="output directory for the bundle")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="shard campaign scans across N worker processes")
    p.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                   help="write an atomic checkpoint after each campaign month")
    p.add_argument("--resume", action="store_true",
                   help="restore already-checkpointed months instead of "
                        "re-scanning them (requires --checkpoint-dir)")
    _add_fault_args(p)
    p.set_defaults(func=cmd_archive)

    p = sub.add_parser(
        "campaign",
        help="run the scan campaign (monthly full rescans or continuous delta)",
    )
    _add_world_args(p)
    p.add_argument("--mode", choices=("full", "delta"), default="full",
                   help="'full': the paper's monthly rescan calendar; "
                        "'delta': continuous monitoring rounds seeded from "
                        "a persisted snapshot")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="shard campaign scans across N worker processes")
    p.add_argument("--year", type=int, default=2022,
                   help="delta mode: seed-scan year (default 2022)")
    p.add_argument("--month", type=int, default=1,
                   help="delta mode: seed-scan month (default 1)")
    p.add_argument("--rounds", type=_positive_int, default=None,
                   metavar="N", help="delta mode: monitoring rounds to run "
                                     "(default 3)")
    p.add_argument("--budget", type=_positive_int, default=None, metavar="N",
                   help="delta mode: per-round query budget "
                        "(default unbounded)")
    p.add_argument("--refresh-rounds", type=_positive_int, default=None,
                   metavar="K", help="delta mode: full re-coverage horizon "
                                     "of the refresh wheel (default 3)")
    p.add_argument("--snapshot-dir", type=str, default=None, metavar="DIR",
                   help="delta mode: where snapshots persist between runs "
                        "(required)")
    p.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                   help="full mode: write an atomic checkpoint after each "
                        "campaign month")
    p.add_argument("--resume", action="store_true",
                   help="full mode: restore already-checkpointed months "
                        "(requires --checkpoint-dir)")
    p.add_argument("--serve-status", type=_host_port, default=None,
                   metavar="HOST:PORT",
                   help="serve /health, /metrics and /status over HTTP "
                        "while the campaign runs (port 0 = ephemeral)")
    p.add_argument("--event-log", type=str, default=None, metavar="PATH",
                   help="append the structured JSONL event stream here "
                        "(tail it with 'repro-relay monitor')")
    p.add_argument("--shard-deadline", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="hung-shard watchdog: terminate and re-run a shard "
                        "whose worker makes no progress for this many wall "
                        "seconds (default: off)")
    _add_fault_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "monitor",
        help="live dashboard / report over a campaign's monitoring plane",
    )
    p.add_argument("--event-log", type=str, default=None, metavar="PATH",
                   help="tail this JSONL event log")
    p.add_argument("--status", type=_host_port, default=None,
                   metavar="HOST:PORT",
                   help="poll a running campaign's /status endpoint instead")
    p.add_argument("--once", action="store_true",
                   help="print one report/snapshot and exit")
    p.add_argument("--refresh", type=_positive_float, default=1.0,
                   metavar="SECONDS", help="dashboard redraw interval")
    p.add_argument("--iterations", type=_positive_int, default=None,
                   metavar="N",
                   help="stop after N redraws (default: until the campaign "
                        "finishes)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("reproduce", help="full paper-vs-measured report")
    _add_world_args(p)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "lint",
        help="static determinism & concurrency analysis over the source tree",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the installed "
                        "repro package source)")
    p.add_argument("--baseline", type=str, default=None, metavar="PATH",
                   help="committed baseline of grandfathered findings; only "
                        "non-baselined findings fail the run")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline from the current findings "
                        "(dropping stale entries) instead of gating")
    p.add_argument("--root", type=str, default=None, metavar="DIR",
                   help="directory finding paths are reported relative to "
                        "(default: the current directory)")
    p.add_argument("--rules", type=lambda t: t.split(","), default=None,
                   metavar="ID[,ID...]", help="run only these rule ids")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout format (default text)")
    p.add_argument("--json", dest="json_out", type=str, default=None,
                   metavar="PATH", help="additionally write the JSON report "
                                        "to this file")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--telemetry-out", type=str, default=None, metavar="PATH",
                   help="write lint.findings{rule=...} counters here")
    p.add_argument("--changed-since", type=str, default=None, metavar="REF",
                   help="incremental mode: re-analyze only files changed "
                        "since this git ref plus their reverse-dependency "
                        "cone (stale-baseline reporting is suppressed)")
    p.add_argument("--graph-out", type=str, default=None, metavar="PATH",
                   help="write the whole-program graph (modules, import/"
                        "call edges, unresolved calls, layers) as JSON")
    p.add_argument("--cache", type=str, default=None, metavar="PATH",
                   help="summary-cache file (default: <root>/"
                        ".lint_cache.json)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-hash summary cache")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("telemetry",
                       help="render a saved telemetry snapshot")
    p.add_argument("snapshot", help="path to a --telemetry-out JSON file")
    p.add_argument("--top", type=int, default=20,
                   help="show the N largest counters (default 20)")
    p.set_defaults(func=cmd_telemetry)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Argument errors (argparse) and library failures (:class:`ReproError`,
    file-system problems) exit with code 2 and a one-line message — no
    traceback reaches the user for anticipated failure modes.
    """
    # No local keeps the parser (a reference cycle) alive: it must be
    # garbage before a command's build_world collects and freezes.
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

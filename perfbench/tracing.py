"""The traced run: per-layer metrics, tracing overhead, layer report.

Every per-layer value is *per traced unit* (one world build plus one
pass of the workload).  Times are self times (see ``layers.py``);
``scan.sharding.scan_s`` is the one inclusive wall time, because the
worker idle share is measured against it.  A layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict

from repro.telemetry import Tracer

from perfbench.layers import LayerTracer, self_times
from perfbench.workloads import SHARD_WORKERS, run_unit, run_units

WORLDGEN_PHASES = (
    "internet", "egress", "ingress", "assignment", "pools",
    "geodb", "history", "topology", "dns", "probes",
)
FAULT_KINDS = ("drop", "servfail", "refused", "truncated", "latency")
#: Counter surfaces that are not a relay domain's DNS scan.
NON_DNS_SURFACES = ("relay", "atlas")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [(f"worldgen.{phase}_s", "s") for phase in WORLDGEN_PHASES]
    + [
        ("dns.replay_compile_s", "s"),
        ("dns.replay_compile_calls", "count"),
        ("dns.answer_plan_hit_ratio", "ratio"),
        ("dns.answer_plan_invalidations", "count"),
        ("dns.server_queries", "count"),
        ("scan.ecs.busy_s", "s"),
        ("scan.ecs.calls", "count"),
        ("scan.ecs.queries", "count"),
        ("scan.ecs.answer_ratio", "ratio"),
        ("scan.ecs.scope_skipped_slash24s", "count"),
        ("scan.ecs.retries", "count"),
        ("scan.ecs.gave_up", "count"),
        ("scan.ecs.ratelimit_wait_sim_s", "s"),
        ("scan.ecs.fault_wait_sim_s", "s"),
    ]
    + [
        (f"scan.columnar.{name}{suffix}", unit)
        for name in ("addresses", "addresses_by_asn", "slash24s_by_asn", "scope_tally")
        for suffix, unit in (("_s", "s"), ("_calls", "count"))
    ]
    + [
        ("scan.longitudinal.record_s", "s"),
        ("scan.longitudinal.record_calls", "count"),
        ("scan.incremental.round_self_s", "s"),
        ("scan.incremental.seed_self_s", "s"),
        ("scan.incremental.accumulated_s", "s"),
        ("scan.incremental.accumulated_calls", "count"),
        ("scan.incremental.round_queries", "count"),
        ("scan.incremental.budget_deferred", "count"),
        ("scan.incremental.change_events", "count"),
        ("scan.incremental.queries_saved", "count"),
        ("scan.incremental.snapshot_save_s", "s"),
        ("scan.incremental.snapshot_saves", "count"),
        ("scan.incremental.snapshot_bytes", "B"),
        ("monitor.events_emit_s", "s"),
        ("monitor.events_emitted", "count"),
        ("monitor.events_dropped", "count"),
        ("monitor.event_log_bytes", "B"),
        ("faults.injected", "count"),
    ]
    + [(f"faults.injected.{kind}", "count") for kind in FAULT_KINDS]
    + [
        ("faults.wait_sim_s", "s"),
        ("scan.sharding.scan_s", "s"),
        ("scan.sharding.worker_busy_s", "s"),
        ("scan.sharding.worker_idle_frac", "ratio"),
        ("scan.sharding.shards", "count"),
        ("scan.sharding.rerun", "count"),
        ("scan.sharding.speedup", "ratio"),
        ("scan.sharding.worker_peak_rss_mb", "MB"),
        ("relay.scan_s", "s"),
        ("relay.connect_s", "s"),
        ("relay.connect_calls", "count"),
        ("relay.ingress_active_s", "s"),
        ("relay.connect_refused", "count"),
        ("atlas.measure_s", "s"),
        ("atlas.blocking_s", "s"),
        ("atlas.run_dns_calls", "count"),
    ]
    + [
        (f"analysis.{name}_s", "s")
        for name in (
            "table1", "table2", "table3", "table4",
            "egress_facts", "location_cdfs", "rotation", "overlap",
        )
    ]
    + [
        ("quic.scan_s", "s"),
        ("unattributed_frac", "ratio"),
        ("tracing_overhead_s", "s"),
    ]
)


class _Counters:
    """Counter and histogram totals over the traced units' registries."""

    def __init__(self, units) -> None:
        self.counters: list[tuple[str, dict, float]] = []
        self.histogram_totals: dict[str, float] = defaultdict(float)
        for unit in units:
            if unit.registry is None:
                continue
            snapshot = unit.registry.snapshot()
            for entry in snapshot["counters"]:
                self.counters.append((entry["name"], entry["labels"], entry["value"]))
            for entry in snapshot["histograms"]:
                self.histogram_totals[entry["name"]] += entry["total"]

    def total(self, name: str, dns_only: bool = False, **labels) -> float:
        out = 0.0
        for counter, counter_labels, value in self.counters:
            if counter != name:
                continue
            if dns_only and counter_labels.get("surface") in NON_DNS_SURFACES:
                continue
            if all(counter_labels.get(k) == v for k, v in labels.items()):
                out += value
        return out


def _qps(unit) -> float:
    return unit.queries / unit.scan_wall_s


def traced_run(ctx, seconds: float):
    """Run the untraced reference units, then the traced phase."""
    start = time.perf_counter()
    if ctx.workload == "campaign_sharded":
        reference = [run_unit(ctx, workers=1), run_unit(ctx)]
    else:
        reference = [run_unit(ctx), run_unit(ctx)]
    tracer = Tracer()
    layers = LayerTracer(tracer).install()
    try:
        remaining = seconds - (time.perf_counter() - start)
        traced = run_units(dataclasses.replace(ctx, tracer=tracer), remaining, 1)
    finally:
        layers.uninstall()
    metrics, report = _layer_metrics(ctx, reference, traced, tracer, layers.calls)
    return reference + traced, metrics, report


def _layer_metrics(ctx, reference, traced, tracer, wrapper_calls):
    roots = [span for span in tracer.roots if span.name.startswith("bench.")]
    layer_s, layer_calls, layer_wall, gaps = self_times(roots)
    e2e = sum(span.wall_seconds for span in roots)
    n = len(traced)
    counters = _Counters(traced)
    stats: dict[str, float] = defaultdict(float)
    for unit in traced:
        for key, value in unit.world_stats.items():
            stats[key] += value
    facts: dict[str, float] = defaultdict(float)
    for unit in traced:
        for key in ("snapshot_bytes", "event_log_bytes", "events_emitted",
                    "events_dropped"):
            facts[key] += unit.facts.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    probes = counters.total("ecs.probes_sent")
    answers = counters.total("ecs.answers")
    plan_lookups = stats["answer_plan_hits"] + stats["answer_plan_misses"]
    injected = {
        kind: counters.total("faults.injected", dns_only=True, kind=kind)
        for kind in FAULT_KINDS
    }
    shard_scan_s = layer_wall.get("scan.sharding.scan", 0.0)
    worker_busy = counters.histogram_totals.get("ecs.shard_wall_seconds", 0.0)
    speedup = 0.0
    speedup_bases = None
    if ctx.workload == "campaign_sharded":
        sequential, sharded = reference
        speedup = _qps(sharded) / _qps(sequential)
        speedup_bases = {
            "sharded_queries_per_s": _qps(sharded),
            "sequential_queries_per_s": _qps(sequential),
        }
    ref_e2e = reference[-1].setup_s + reference[-1].report_s
    traced_e2e = statistics.median(u.setup_s + u.report_s for u in traced)
    overhead = traced_e2e - ref_e2e
    unattributed = sum(gaps.values())

    totals = {
        **{
            f"worldgen.{phase}_s": layer_s.get(f"worldgen.{phase}", 0.0)
            for phase in WORLDGEN_PHASES
        },
        "dns.replay_compile_s": layer_s.get("dns.replay_compile", 0.0),
        "dns.replay_compile_calls": layer_calls.get("dns.replay_compile", 0),
        "dns.answer_plan_invalidations": stats["answer_plan_invalidations"],
        "dns.server_queries": stats["server_queries"],
        "scan.ecs.busy_s": layer_s.get("scan.ecs", 0.0),
        "scan.ecs.calls": layer_calls.get("scan.ecs", 0),
        "scan.ecs.queries": probes,
        "scan.ecs.scope_skipped_slash24s": counters.total("ecs.scope_skipped_slash24s"),
        "scan.ecs.retries": counters.total("scan.retries", dns_only=True),
        "scan.ecs.gave_up": counters.total("scan.gaveup", dns_only=True),
        "scan.ecs.ratelimit_wait_sim_s": counters.total("ratelimit.waited_seconds"),
        "scan.ecs.fault_wait_sim_s": counters.total("faults.wait_seconds"),
        "scan.incremental.round_self_s": layer_s.get("scan.incremental.round", 0.0),
        "scan.incremental.seed_self_s": layer_s.get("scan.incremental.seed", 0.0),
        "scan.incremental.accumulated_s": layer_s.get(
            "scan.incremental.accumulated", 0.0
        ),
        "scan.incremental.accumulated_calls": layer_calls.get(
            "scan.incremental.accumulated", 0
        ),
        "scan.incremental.round_queries": counters.total("delta.probes_sent"),
        "scan.incremental.budget_deferred": sum(u.budget_deferred for u in traced),
        "scan.incremental.change_events": sum(u.change_events for u in traced),
        "scan.incremental.queries_saved": counters.total("delta.queries_saved"),
        "scan.incremental.snapshot_save_s": layer_s.get(
            "scan.incremental.snapshot_save", 0.0
        ),
        "scan.incremental.snapshot_saves": layer_calls.get(
            "scan.incremental.snapshot_save", 0
        ),
        "scan.incremental.snapshot_bytes": facts["snapshot_bytes"],
        "monitor.events_emit_s": layer_s.get("monitor.events_emit", 0.0),
        "monitor.events_emitted": facts["events_emitted"],
        "monitor.events_dropped": facts["events_dropped"],
        "monitor.event_log_bytes": facts["event_log_bytes"],
        "faults.injected": sum(injected.values()),
        **{f"faults.injected.{kind}": injected[kind] for kind in FAULT_KINDS},
        "faults.wait_sim_s": counters.total("faults.wait_seconds"),
        "scan.sharding.scan_s": shard_scan_s,
        "scan.sharding.worker_busy_s": worker_busy,
        "scan.sharding.shards": counters.total("ecs.shards"),
        "scan.sharding.rerun": counters.total("shards.rerun"),
        "relay.scan_s": layer_s.get("relay.scan", 0.0),
        "relay.connect_s": layer_s.get("relay.connect", 0.0),
        "relay.connect_calls": layer_calls.get("relay.connect", 0),
        "relay.ingress_active_s": layer_s.get("relay.ingress_active", 0.0),
        "relay.connect_refused": counters.total("relay.connect_refused"),
        "atlas.measure_s": layer_s.get("atlas.measure", 0.0),
        "atlas.blocking_s": layer_s.get("atlas.blocking", 0.0),
        "atlas.run_dns_calls": wrapper_calls.get("atlas.run_dns", 0),
        **{
            f"analysis.{name}_s": layer_s.get(f"analysis.{name}", 0.0)
            for name in (
                "table1", "table2", "table3", "table4",
                "egress_facts", "location_cdfs", "rotation", "overlap",
            )
        },
        "quic.scan_s": layer_s.get("quic.scan", 0.0),
    }
    for name in ("addresses", "addresses_by_asn", "slash24s_by_asn", "scope_tally"):
        totals[f"scan.columnar.{name}_s"] = layer_s.get(f"scan.columnar.{name}", 0.0)
        totals[f"scan.columnar.{name}_calls"] = layer_calls.get(
            f"scan.columnar.{name}", 0
        )
    totals["scan.longitudinal.record_s"] = layer_s.get("scan.longitudinal.record", 0.0)
    totals["scan.longitudinal.record_calls"] = layer_calls.get(
        "scan.longitudinal.record", 0
    )
    values = {name: value / n for name, value in totals.items()}
    # Ratios are not per-unit quantities.
    values["dns.answer_plan_hit_ratio"] = ratio(stats["answer_plan_hits"], plan_lookups)
    values["scan.ecs.answer_ratio"] = ratio(answers, probes)
    values["scan.sharding.worker_idle_frac"] = (
        1.0 - ratio(worker_busy, SHARD_WORKERS * shard_scan_s) if shard_scan_s else 0.0
    )
    values["scan.sharding.speedup"] = speedup
    values["scan.sharding.worker_peak_rss_mb"] = max(u.worker_peak_rss_mb for u in traced)
    values["unattributed_frac"] = ratio(unattributed, e2e)
    values["tracing_overhead_s"] = overhead

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    largest_gap = max(gaps.items(), key=lambda kv: kv[1], default=("", 0.0))
    summary = {
        "traced_units": n,
        "reference_units": len(reference),
        "traced_e2e_s": e2e,
        "tracing_overhead_s": overhead,
        "tracing_overhead_frac": ratio(overhead, ref_e2e),
        "untraced_unit_e2e_s": ref_e2e,
        "traced_unit_e2e_s": traced_e2e,
        "unattributed_frac": values["unattributed_frac"],
        "largest_unattributed_gap": {"span": largest_gap[0], "self_s": largest_gap[1]},
        "ratio_bases": {
            "dns.answer_plan_hit_ratio": {
                "hits": stats["answer_plan_hits"], "lookups": plan_lookups,
            },
            "scan.ecs.answer_ratio": {"answers": answers, "probes": probes},
            "scan.sharding.worker_idle_frac": {
                "worker_busy_s": worker_busy,
                "workers": SHARD_WORKERS,
                "scan_s": shard_scan_s,
            },
            "scan.sharding.speedup": speedup_bases,
            "unattributed_frac": {"unattributed_s": unattributed, "e2e_s": e2e},
        },
    }
    markdown = _markdown(ctx, summary, layer_s, layer_calls, gaps, e2e, n, values)
    report = {
        "summary": summary,
        "markdown": markdown,
        "trace": tracer.chrome_trace(),
    }
    return metrics, report


def _markdown(ctx, summary, layer_s, layer_calls, gaps, e2e, n, values) -> str:
    lines = [
        f"# Traced run: {ctx.workload} (scale {ctx.scale}, world {ctx.world_seed})",
        "",
        f"{n} traced unit(s), {e2e:.3f} s traced end-to-end wall "
        "(set-up plus workload).  Values per traced unit.",
        "",
        "| layer | self s | share of e2e | calls |",
        "|---|---|---|---|",
    ]
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"| {layer} | {seconds / n:.4f} | {seconds / e2e:.1%} | "
            f"{layer_calls.get(layer, 0) / n:g} |"
        )
    for name, seconds in sorted(gaps.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"| (unattributed: {name}) | {seconds / n:.4f} | {seconds / e2e:.1%} | |"
        )
    lines += ["", "| metric | value | unit | base |", "|---|---|---|---|"]
    bases = summary["ratio_bases"]
    for name, unit in PER_LAYER:
        if values[name]:
            base = bases.get(name) or ""
            lines.append(f"| {name} | {values[name]:.6g} | {unit} | {base} |")
    lines += [
        "",
        f"Tracing overhead: {summary['tracing_overhead_s']:+.3f} s per unit "
        f"({summary['tracing_overhead_frac']:+.1%}; traced "
        f"{summary['traced_unit_e2e_s']:.3f} s vs untraced "
        f"{summary['untraced_unit_e2e_s']:.3f} s).",
        f"Unattributed: {summary['unattributed_frac']:.1%} of the traced wall.",
    ]
    if summary["unattributed_frac"] > 0.10:
        gap = summary["largest_unattributed_gap"]
        lines.append(
            f"Largest unattributed gap: `{gap['span']}` "
            f"({gap['self_s'] / n:.3f} s per unit)."
        )
    return "\n".join(lines) + "\n"

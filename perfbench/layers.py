"""Per-layer tracing for the benchmark's traced run.

The traced run hands the program a live ``Telemetry()`` (so the spans
and counters the program records itself are kept) and, on top of that,
wraps each layer's public entry points in a span of the same tracer.
The wrappers live here, in the benchmark; the program is not edited.
Wrapping replaces a class or module attribute for the life of the
traced phase and :meth:`LayerTracer.uninstall` restores the original.

A layer's *self time* is the wall time of its spans minus the part
their child spans cover, so nested layers (a relay scan that connects,
a connect that looks up the active ingress set) are never counted
twice.  Spans that belong to no layer (the benchmark's own unit spans,
``campaign.month``) keep their self time as *unattributed* time.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict

#: Span wrappers: (module, attribute path, layer span name).
SPAN_TARGETS = (
    ("repro.dns.answer_cache", "ScopeAnswerCache.replay_program", "dns.replay_compile"),
    ("repro.scan.ecs_scanner", "EcsScanner.scan", "scan.ecs"),
    ("repro.scan.ecs_scanner", "EcsScanner.scan_regions", "scan.ecs"),
    ("repro.scan.ecs_scanner", "EcsScanner.scan_ranges", "scan.ecs"),
    ("repro.scan.ecs_scanner", "EcsScanResult.addresses", "scan.columnar.addresses"),
    (
        "repro.scan.ecs_scanner",
        "EcsScanResult.addresses_by_asn",
        "scan.columnar.addresses_by_asn",
    ),
    (
        "repro.scan.ecs_scanner",
        "EcsScanResult.slash24s_by_asn",
        "scan.columnar.slash24s_by_asn",
    ),
    ("repro.scan.ecs_scanner", "EcsScanResult.scope_tally", "scan.columnar.scope_tally"),
    ("repro.scan.longitudinal", "IngressArchive.record", "scan.longitudinal.record"),
    ("repro.scan.incremental", "DeltaScanEngine.run_round", "scan.incremental.round"),
    ("repro.scan.incremental", "DeltaScanEngine.seed", "scan.incremental.seed"),
    (
        "repro.scan.incremental",
        "DeltaScanEngine._accumulated",
        "scan.incremental.accumulated",
    ),
    ("repro.scan.incremental", "SnapshotStore.save", "scan.incremental.snapshot_save"),
    ("repro.monitor.events", "EventLog.emit", "monitor.events_emit"),
    ("repro.scan.sharding", "ShardedCampaignExecutor.scan", "scan.sharding.scan"),
    ("repro.scan.sharding", "ShardedCampaignExecutor.scan_regions", "scan.sharding.scan"),
    ("repro.scan.relay_scanner", "RelayScanner.run", "relay.scan"),
    ("repro.relay.service", "PrivateRelayService.connect", "relay.connect"),
    ("repro.relay.ingress", "IngressFleet.active_addresses", "relay.ingress_active"),
    ("repro.scan.atlas_scanner", "AtlasIngressScanner.measure_ingress_v4", "atlas.measure"),
    ("repro.scan.atlas_scanner", "AtlasIngressScanner.measure_ingress_v6", "atlas.measure"),
    ("repro.scan.quic_scanner", "QuicScanner.scan", "quic.scan"),
)

#: Module-level functions the paper example imports by name (the paper
#: workload rebinds its copy of the example to the wrapped versions).
FUNCTION_TARGETS = (
    ("repro.scan.blocking", "classify_blocking", "atlas.blocking"),
    ("repro.analysis.ingress_report", "build_table1", "analysis.table1"),
    ("repro.analysis.ingress_report", "build_table2", "analysis.table2"),
    ("repro.analysis.egress_report", "build_table3", "analysis.table3"),
    ("repro.analysis.egress_report", "build_table4", "analysis.table4"),
    ("repro.analysis.egress_report", "build_egress_facts", "analysis.egress_facts"),
    ("repro.analysis.egress_report", "build_location_cdfs", "analysis.location_cdfs"),
    ("repro.analysis.rotation_report", "build_rotation_report", "analysis.rotation"),
    ("repro.analysis.overlap", "build_overlap_report", "analysis.overlap"),
)

#: Call counters without a span (the calls nest inside layer spans whose
#: self time should keep them).
COUNT_TARGETS = (("repro.atlas.platform", "AtlasPlatform.run_dns", "atlas.run_dns"),)

#: Spans the program records itself, folded into the layer they time.
PROGRAM_SPAN_LAYERS = {
    "ecs.scan": "scan.ecs",
    "ecs.scan.sharded": "scan.sharding.scan",
}

#: Every span name that is a layer (the rest is unattributed time).
LAYER_SPANS = frozenset(
    [name for _, _, name in SPAN_TARGETS + FUNCTION_TARGETS]
    + list(PROGRAM_SPAN_LAYERS.values())
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTracer:
    """Installs the layer wrappers around one tracer."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.calls: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        span = self.tracer.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "LayerTracer":
        """Wrap every target in its defining module or class."""
        for module_name, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        for module_name, path, name in COUNT_TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))
        for module_name, attr, name in FUNCTION_TARGETS:
            owner = importlib.import_module(module_name)
            self._patch(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_name(span_name: str) -> str | None:
    """The layer a span's self time belongs to (None: unattributed)."""
    name = PROGRAM_SPAN_LAYERS.get(span_name, span_name)
    if name in LAYER_SPANS or name.startswith("worldgen."):
        return name
    return None


def self_times(roots) -> tuple[dict, dict, dict, dict]:
    """Walk a span forest.

    Returns per-layer self seconds, per-layer calls and inclusive wall
    seconds (a layer span nested in the same layer, such as ``scan`` ->
    ``scan_ranges``, is one call), and the self seconds of every
    unattributed span name.
    """
    layer_s: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    layer_wall: dict[str, float] = defaultdict(float)
    gaps: dict[str, float] = defaultdict(float)
    stack = [(span, None) for span in roots]
    while stack:
        span, parent_layer = stack.pop()
        if span.wall_end is None:
            continue
        covered = sum(child.wall_seconds for child in span.children)
        own = max(span.wall_seconds - covered, 0.0)
        layer = layer_name(span.name)
        if layer is None:
            gaps[span.name] += own
        else:
            layer_s[layer] += own
            if parent_layer != layer:
                layer_calls[layer] += 1
                layer_wall[layer] += span.wall_seconds
        stack.extend((child, layer) for child in span.children)
    return dict(layer_s), dict(layer_calls), dict(layer_wall), dict(gaps)

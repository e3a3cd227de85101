"""Wiring the registry into the simulated world's existing counters.

The DNS/cache/BGP layers already account for themselves through
:class:`~repro.perfstats.CacheStats` and
:class:`~repro.dns.server.ServerStats` — both thin adapters over
telemetry :class:`~repro.telemetry.registry.Counter` objects.  This
module *adopts* those live counters into a registry (zero extra
hot-path cost: the counters are bumped regardless, adoption only makes
snapshots see them) and registers collectors for values derived from
live structures (rotation advances, world sizes).

Everything here is adoption/collection, not ownership: the adopted
counters cross the shard-worker boundary through their own merge paths
(``ServerStats.merge`` / ``CacheStats.merge``), which is why
:meth:`~repro.telemetry.registry.MetricsRegistry.owned_snapshot`
excludes them — see the registry module docstring.
"""

from __future__ import annotations

__all__ = ["instrument_server", "instrument_world"]

_CACHE_FIELDS = ("hits", "misses", "invalidations")


def _adopt_cache(registry, stats, **labels) -> None:
    for field in _CACHE_FIELDS:
        registry.adopt("cache." + field, stats.counter(field), **labels)


def instrument_server(registry, server) -> None:
    """Adopt one authoritative server's query and cache counters.

    Exposes ``dns.server.*{server=<name>}`` for the six
    :class:`~repro.dns.server.ServerStats` fields, plus
    ``cache.*{cache=answer_plan|zone_for, server=<name>}`` for the
    scope-block answer cache and the zone-routing memo.
    """
    name = server.name
    for field in server.stats._FIELDS:
        registry.adopt(
            "dns.server." + field, server.stats.counter(field), server=name
        )
    _adopt_cache(registry, server.answer_cache.stats, cache="answer_plan", server=name)
    _adopt_cache(registry, server.zone_for_stats, cache="zone_for", server=name)


def instrument_world(telemetry, world) -> None:
    """Adopt a built world's counters and register its gauge collectors.

    Called by :func:`~repro.worldgen.world.build_world` after assembly
    (and usable on any existing world).  Covers the authoritative
    servers, the delegation memo, the name-intern table, the BGP origin
    memo, relay rotation-stream advances, and world-size gauges.
    """
    registry = telemetry.registry
    if not registry.enabled:
        return
    from repro.dns.name import intern_stats

    instrument_server(registry, world.route53)
    instrument_server(registry, world.control_server)
    _adopt_cache(registry, world.ns_registry.delegation_stats, cache="delegation")
    _adopt_cache(registry, intern_stats, cache="name_intern")
    _adopt_cache(registry, world.routing.origin_stats, cache="origin_memo")

    # The collector holds the parts it reads, never the world: the world
    # holds the registry (through the relay service's telemetry), and a
    # reference back would close a cycle that refcounting cannot free.
    counters = world.service._pod_counters
    clock = world.clock
    ingress_v4, ingress_v6 = world.ingress_v4, world.ingress_v6

    def collect(reg) -> None:
        reg.gauge("relay.rotation_advances").set(
            sum(value - counters.base for value in counters.values())
        )
        now = clock.now
        reg.gauge("world.sim_time_seconds").set(now)
        reg.gauge("relay.ingress_active", version="4").set(
            len(ingress_v4.active(now))
        )
        reg.gauge("relay.ingress_active", version="6").set(
            len(ingress_v6.active(now))
        )

    registry.add_collector(collect)
    registry.gauge("world.client_ases").set(len(world.registry))
    registry.gauge("world.assignment_units").set(len(world.assignment))
    registry.gauge("world.atlas_probes").set(len(world.atlas.probes))
    registry.gauge("relay.egress_pools").set(len(world.egress_fleet.pools))
    registry.gauge("relay.ingress_relays", version="4").set(
        len(world.ingress_v4.relays)
    )
    registry.gauge("relay.ingress_relays", version="6").set(
        len(world.ingress_v6.relays)
    )

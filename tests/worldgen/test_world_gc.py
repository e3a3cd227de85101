"""The world freeze's precondition: a built world holds no reference
cycle, so freezing it out of the cyclic GC leaks nothing.

``build_world`` pauses cyclic GC while it builds and then calls
``gc.freeze()``, which moves every tracked object into the permanent
generation that no collection walks.  That is only sound while a dropped
world is freed by refcounting alone: a cycle through the world graph
would make every discarded world a silent, permanent leak.  These tests
pin that property at scale 0.02.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cli import main
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan import EcsScanner
from repro.telemetry import Telemetry
from repro.worldgen import WorldConfig, build_world

CONFIG = WorldConfig.small(seed=2023)


def _tracked() -> int:
    """Every object the collector knows of, frozen or not."""
    return len(gc.get_objects()) + gc.get_freeze_count()


@pytest.fixture(scope="module", autouse=True)
def warm_build():
    # The first build of a process fills module-level intern tables and
    # memos that outlive any one world; keep them out of the counts.
    build_world(CONFIG)


@pytest.mark.parametrize("enabled", [True, False])
def test_build_world_restores_callers_gc_state(enabled):
    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        build_world(CONFIG)
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_world_is_frozen_and_freed_by_refcounting():
    gc.collect()
    before = _tracked()
    frozen_before = gc.get_freeze_count()

    world = build_world(CONFIG)
    world_objects = _tracked() - before
    assert world_objects > 10_000
    assert gc.get_freeze_count() - frozen_before >= world_objects

    del world
    assert abs(_tracked() - before) <= 100


def test_callers_cyclic_garbage_is_collected_before_the_freeze():
    class Node:
        pass

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        build_world(CONFIG)
        # Frozen garbage would outlive every later collection.
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_cli_main_leaves_nothing_frozen(capsys):
    # main() must drop its argparse parser (a reference cycle) before
    # the command builds its world: anything cyclic still referenced at
    # the freeze is never collected once it dies.
    argv = ["world-info", "--scale", "0.02", "--seed", "2023"]
    main(argv)
    gc.collect()
    before = _tracked()
    main(argv)
    gc.collect()
    assert abs(_tracked() - before) <= 100
    capsys.readouterr()


@pytest.mark.parametrize("traced", [False, True])
def test_scanned_world_is_freed_by_refcounting(traced):
    # A live registry holds collectors over the world, and scans attach
    # caches and replay programs to it after the freeze; none of them
    # may close a cycle back through it.
    world = build_world(CONFIG, telemetry=Telemetry() if traced else None)
    world.clock.advance_to(world.scan_start(2022, 4))
    scanner = EcsScanner(world.route53, world.routing, world.clock)
    assert scanner.scan(RELAY_DOMAIN_QUIC).addresses()
    ref = weakref.ref(world)
    del world, scanner
    assert ref() is None

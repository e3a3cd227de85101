"""Shared fixtures for the benchmark suite.

The benchmarks reproduce every table and figure at paper scale by
default; set ``REPRO_BENCH_SCALE`` (e.g. ``0.05``) for a faster pass.
World generation and the scan campaign are session-scoped — individual
benchmarks time the analysis step they cover and assert the paper's
shape on the results.
"""

from __future__ import annotations

import os

import pytest

from _bench_utils import bench_scale

from repro import WorldConfig, build_world
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan import (
    AtlasIngressScanner,
    RelayScanConfig,
    RelayScanner,
    ScanCampaign,
    classify_blocking,
)
from repro.worldgen.world import CONTROL_DOMAIN

INGRESS_ASNS = {714, 36183}


def pytest_configure(config):
    """Refuse a bad ``REPRO_BENCH_SCALE`` before collecting anything."""
    try:
        bench_scale()
    except ValueError as exc:
        pytest.exit(f"error: {exc}", returncode=2)


@pytest.fixture(scope="session")
def bench_world():
    """The world every benchmark runs against."""
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2022"))
    return build_world(WorldConfig(seed=seed, scale=bench_scale()))


@pytest.fixture(scope="session")
def monthly_scans(bench_world):
    """The Jan–Apr ECS campaign: (year, month, default, fallback|None)."""
    world = bench_world
    campaign = ScanCampaign(world.route53, world.routing, world.clock)
    campaign.run(world.scan_months())
    return campaign.table1_input()


@pytest.fixture(scope="session")
def april_scan(monthly_scans):
    """The April default-domain scan (the paper's 1586-address scan)."""
    return monthly_scans[-1][2]


@pytest.fixture(scope="session")
def atlas_results(bench_world, april_scan):
    """Atlas validation + IPv6 discovery + blocking classification."""
    world = bench_world
    atlas_time = world.deployment.april_scan_start + 40 * 3600.0
    if world.clock.now < atlas_time:
        world.clock.advance_to(atlas_time)
    scanner = AtlasIngressScanner(world.atlas, world.routing, INGRESS_ASNS)
    validation = scanner.validate_against_ecs(
        RELAY_DOMAIN_QUIC, april_scan.addresses()
    )
    v6_report = None
    for _ in range(4):
        v6_report = scanner.measure_ingress_v6(RELAY_DOMAIN_QUIC, v6_report)
    blocking = classify_blocking(
        world.atlas, world.routing, RELAY_DOMAIN_QUIC, CONTROL_DOMAIN, INGRESS_ASNS
    )
    return {"validation": validation, "v6": v6_report, "blocking": blocking}


@pytest.fixture(scope="session")
def relay_scans(bench_world):
    """Open + fixed scan days (Figure 3) and the 48 h fine scan."""
    from repro.dns.rr import RRType
    from repro.relay.client import DnsConfig
    from repro.relay.ingress import RelayProtocol

    world = bench_world
    open_client = world.make_vantage_client()
    open_day = RelayScanner(
        open_client, world.web_server, world.echo_server, world.clock
    ).run(RelayScanConfig(300.0, 86400.0), "open")
    ingress = sorted(
        world.ingress_v4.active_addresses(world.clock.now, RelayProtocol.QUIC)
    )[0]
    fixed_client = world.make_vantage_client(
        DnsConfig.fixed({("mask.icloud.com", RRType.A): [ingress]})
    )
    fixed_day = RelayScanner(
        fixed_client, world.web_server, world.echo_server, world.clock
    ).run(RelayScanConfig(300.0, 86400.0), "fixed")
    fine = RelayScanner(
        open_client, world.web_server, world.echo_server, world.clock
    ).run(RelayScanConfig(30.0, 2 * 86400.0), "open-30s")
    return {"open_day": open_day, "fixed_day": fixed_day, "fine": fine}


def once(benchmark, func):
    """Run ``func`` exactly once under the benchmark timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


@pytest.fixture()
def run_once():
    """Expose the single-round benchmark helper to test modules."""
    return once

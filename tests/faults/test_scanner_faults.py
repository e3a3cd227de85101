"""Fault injection at the ECS scan boundary.

The batch-replay kernel and the reference oracle (the server's answer
cache off) must inject *exactly* the same faults — full bit-identity,
responses included — and an attached ``none`` profile must be
indistinguishable from no plan at all.
"""

import dataclasses

import pytest

from repro.faults import FaultPlan, WAIT_QUANTUM
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
from repro.telemetry import Telemetry
from repro.worldgen import WorldConfig, build_world

SEED = 2022


def _scan(profile, kernel, telemetry=None, **overrides):
    world = build_world(WorldConfig.tiny(seed=SEED))
    world.route53.answer_cache.enabled = kernel
    plan = None if profile is None else FaultPlan(profile, seed=SEED)
    settings = EcsScanSettings(fault_plan=plan, **overrides)
    scanner = EcsScanner(
        world.route53, world.routing, world.clock, settings, telemetry=telemetry
    )
    return scanner.scan(RELAY_DOMAIN_QUIC)


def _assert_identical(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


@pytest.fixture(scope="module", params=["lossy", "hostile"])
def kernel_pair(request):
    profile = request.param
    return profile, _scan(profile, True), _scan(profile, False)


class TestKernelEquivalence:
    def test_fast_and_slow_paths_bit_identical(self, kernel_pair):
        _, fast, slow = kernel_pair
        _assert_identical(fast, slow)

    def test_faults_actually_fire(self, kernel_pair):
        profile, fast, _ = kernel_pair
        assert fast.retries > 0
        assert sum(fast.fault_injected.values()) > 0
        assert fast.fault_wait_seconds > 0.0
        if profile == "hostile":
            assert fast.gave_up


class TestAccounting:
    def test_retry_and_giveup_identity(self, kernel_pair):
        """Every lost attempt is either retried or abandoned — never silent."""
        _, result, _ = kernel_pair
        lost = sum(
            count
            for kind, count in result.fault_injected.items()
            if kind != "latency"
        )
        assert lost == result.retries + len(result.gave_up)

    def test_abandoned_subnets_have_no_response(self, kernel_pair):
        _, result, _ = kernel_pair
        answered = {r.subnet for r in result.responses}
        assert answered.isdisjoint(result.gave_up)

    def test_fault_wait_is_dyadic(self, kernel_pair):
        _, result, _ = kernel_pair
        w = result.fault_wait_seconds
        assert w == round(w / WAIT_QUANTUM) * WAIT_QUANTUM

    def test_queries_sent_includes_retried_attempts(self, kernel_pair):
        _, result, _ = kernel_pair
        baseline = _scan(None, True)
        assert result.queries_sent > baseline.queries_sent
        assert result.finished_at > baseline.finished_at


class TestNoneProfile:
    def test_none_plan_is_a_no_op(self):
        plain = _scan(None, True)
        hooked = _scan("none", True)
        _assert_identical(plain, hooked)


class TestTelemetry:
    def test_fault_counters_recorded(self):
        telemetry = Telemetry()
        result = _scan("hostile", True, telemetry=telemetry)
        counters = {
            (entry["name"], entry["labels"].get("kind")): entry["value"]
            for entry in telemetry.snapshot()["metrics"]["counters"]
        }
        assert counters[("scan.retries", None)] == result.retries
        assert counters[("scan.gaveup", None)] == len(result.gave_up)
        for kind, count in result.fault_injected.items():
            assert counters[("faults.injected", kind)] == count

    def test_no_fault_counters_without_a_plan(self):
        telemetry = Telemetry()
        _scan(None, True, telemetry=telemetry)
        names = {
            entry["name"]
            for entry in telemetry.snapshot()["metrics"]["counters"]
        }
        assert not {"scan.retries", "scan.gaveup", "faults.injected"} & names

"""Shard-crash recovery and executor exception-safety.

A worker process dying mid-task breaks the whole fork pool; the
executor must respawn it, re-run only the lost shards, and merge the
exact sequential result.  A shard that *keeps* crashing must surface as
:class:`~repro.errors.WorkerCrashed` — with the pool torn down, never
leaked — and an ordinary worker exception must propagate promptly.
"""

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import WorkerCrashed
from repro.faults import FaultPlan, FaultProfile
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan import sharding
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
from repro.scan.sharding import ShardedCampaignExecutor
from repro.telemetry import Telemetry
from repro.worldgen import WorldConfig, build_world

pytestmark = pytest.mark.skipif(
    not ShardedCampaignExecutor.supported(),
    reason="sharded execution requires the fork start method",
)

SEED = 2022


def _executor(plan, workers=4, telemetry=None):
    world = build_world(WorldConfig.tiny(seed=SEED))
    settings = EcsScanSettings(
        workers=workers, campaign_seed=SEED, fault_plan=plan
    )
    scanner = EcsScanner(
        world.route53, world.routing, world.clock, settings, telemetry=telemetry
    )
    return ShardedCampaignExecutor(scanner, workers)


def _boom(task):
    raise RuntimeError(f"worker bug on shard {task.index}")


class TestCrashRecovery:
    def test_crash_drill_recovers_and_counts_reruns(self):
        telemetry = Telemetry()
        plan = FaultPlan("hostile", seed=SEED)
        with _executor(plan, telemetry=telemetry) as executor:
            result = executor.scan(RELAY_DOMAIN_QUIC)
        assert result.queries_sent > 0
        reruns = [
            entry
            for entry in telemetry.snapshot()["metrics"]["counters"]
            if entry["name"] == "shards.rerun"
        ]
        assert reruns and reruns[0]["value"] >= 1

    def test_unrecoverable_crash_raises_worker_crashed(self):
        profile = FaultProfile(
            name="always-crash",
            crash_shards=(0, 1, 2, 3),
            crash_attempts=10**6,
        )
        executor = _executor(FaultPlan(profile, seed=SEED))
        with executor:
            with pytest.raises(WorkerCrashed):
                executor.scan(RELAY_DOMAIN_QUIC)
        assert executor._pool is None  # torn down, not leaked

    def test_pool_broken_during_submission_reruns_refused_shards(
        self, monkeypatch
    ):
        """A submit the pool refuses (as a pool broken by a worker death
        does) re-runs that shard on a fresh pool instead of ending the
        scan, and the merge still equals the sequential scan."""
        real_submit = ProcessPoolExecutor.submit
        calls = 0

        def submit(pool, fn, *args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise BrokenProcessPool("worker died during submission")
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        telemetry = Telemetry()
        with _executor(None, telemetry=telemetry) as executor:
            result = executor.scan(RELAY_DOMAIN_QUIC)
        world = build_world(WorldConfig.tiny(seed=SEED))
        sequential = EcsScanner(
            world.route53,
            world.routing,
            world.clock,
            EcsScanSettings(campaign_seed=SEED),
        ).scan(RELAY_DOMAIN_QUIC)
        assert [(r.subnet, r.scope) for r in result.responses] == [
            (r.subnet, r.scope) for r in sequential.responses
        ]
        assert result.queries_sent == sequential.queries_sent
        assert result.addresses_by_asn() == sequential.addresses_by_asn()
        reruns = [
            entry
            for entry in telemetry.snapshot()["metrics"]["counters"]
            if entry["name"] == "shards.rerun"
        ]
        assert reruns and reruns[0]["value"] >= 1

    def test_pool_refusing_every_submission_raises_worker_crashed(
        self, monkeypatch
    ):
        def submit(pool, fn, *args, **kwargs):
            raise BrokenProcessPool("pool is broken")

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        executor = _executor(None)
        with executor:
            with pytest.raises(WorkerCrashed):
                executor.scan(RELAY_DOMAIN_QUIC)
        assert executor._pool is None

    def test_worker_exception_propagates_and_closes_pool(self, monkeypatch):
        monkeypatch.setattr(sharding, "_run_shard", _boom)
        executor = _executor(FaultPlan("none", seed=SEED))
        with executor:
            with pytest.raises(RuntimeError, match="worker bug"):
                executor.scan(RELAY_DOMAIN_QUIC)
        assert executor._pool is None


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        executor = _executor(None)
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_close_after_killed_worker_does_not_hang(self):
        executor = _executor(None)
        pool = executor._ensure_pool()
        # Force the pool to actually fork its workers before the kill.
        pool.submit(os.getpid).result()
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        executor.close()
        assert executor._pool is None

    def test_context_manager_always_closes(self):
        executor = _executor(None)
        with pytest.raises(ValueError):
            with executor:
                executor._ensure_pool()
                raise ValueError("scan went sideways")
        assert executor._pool is None

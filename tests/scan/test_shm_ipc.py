"""Shared-memory shard IPC: segments must never outlive a scan.

The sharded executor names one shared-memory segment per shard attempt
(workers write their result columns into it; the parent adopts the
columns zero-copy and unlinks the name).  The cleanup contract is
unconditional: after ``scan()`` returns — or raises, or a worker
crashed mid-write — no ``repro-*`` segment may remain linked in the
system namespace, and the executor's live-segment ledger must be empty.
A leaked segment is real leaked RAM (``/dev/shm`` is memory), so these
tests check the OS namespace, not just the ledger.

The subprocess test additionally asserts the resource tracker stays
silent: a double-registered or double-unlinked name makes Python print
``leaked shared_memory`` / ``KeyError`` noise at interpreter exit,
which is exactly how an ownership bug would first show up in CI.
"""

import os
import subprocess
import sys

import pytest

from repro.faults import FaultPlan
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
from repro.scan.sharding import SHM_DIR, ShardedCampaignExecutor, shared_memory
from repro.worldgen import WorldConfig, build_world

pytestmark = pytest.mark.skipif(
    not ShardedCampaignExecutor.supported() or shared_memory is None,
    reason="shm shard IPC requires fork start method and shared memory",
)

SEED = 2022


def _executor(plan=None, workers=4):
    world = build_world(WorldConfig.tiny(seed=SEED))
    settings = EcsScanSettings(workers=workers, campaign_seed=SEED, fault_plan=plan)
    scanner = EcsScanner(world.route53, world.routing, world.clock, settings)
    return ShardedCampaignExecutor(scanner, workers)


def _linked_segments(pid=None):
    """``repro-*`` segment names currently linked for one parent pid."""
    if not os.path.isdir(SHM_DIR):
        pytest.skip("no /dev/shm to inspect")
    prefix = f"repro-{os.getpid() if pid is None else pid}-"
    return [name for name in os.listdir(SHM_DIR) if name.startswith(prefix)]


class TestSegmentLifecycle:
    def test_scan_leaves_no_linked_segments(self):
        with _executor() as executor:
            result = executor.scan(RELAY_DOMAIN_QUIC)
            assert result.queries_sent > 0
            # Adoption unlinks eagerly: clean even while the result (and
            # its zero-copy columns) is still alive, not just at close().
            assert executor._live_segments == set()
            assert _linked_segments() == []

    def test_worker_crash_recovery_unlinks_segments(self):
        # The hostile profile kills shard 1's worker on its first
        # attempt: the segment named for the dead attempt must be swept,
        # and the re-run's segment adopted and unlinked as usual.
        with _executor(plan=FaultPlan("hostile", seed=SEED)) as executor:
            result = executor.scan(RELAY_DOMAIN_QUIC)
            assert result.queries_sent > 0
            assert executor._live_segments == set()
            assert _linked_segments() == []

    def test_cleanup_segment_unlinks_a_partial_write(self):
        # A worker that died mid-write leaves a linked segment with no
        # outcome referencing it; the parent's sweep must unlink it by
        # name alone.
        executor = _executor()
        try:
            name = executor._allocate_segment_name(0, 0)
            assert name in executor._live_segments
            segment = shared_memory.SharedMemory(name=name, create=True, size=64)
            segment.buf[:3] = b"\x01\x02\x03"  # torn write
            segment.close()
            assert _linked_segments() == [name]
            executor._cleanup_segment(name)
            assert name not in executor._live_segments
            assert _linked_segments() == []
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            executor.close()

    def test_cleanup_segment_unlinks_an_unsized_segment(self):
        # A worker killed between shm_open and ftruncate leaves a linked
        # zero-byte segment, which cannot be attached (mmap refuses an
        # empty file); the sweep must still unlink it, quietly.
        if not os.path.isdir(SHM_DIR):
            pytest.skip("no /dev/shm to inspect")
        executor = _executor()
        try:
            name = executor._allocate_segment_name(2, 0)
            fd = os.open(
                os.path.join(SHM_DIR, name), os.O_CREAT | os.O_EXCL | os.O_RDWR
            )
            os.close(fd)
            assert _linked_segments() == [name]
            executor._cleanup_segment(name)
            assert name not in executor._live_segments
            assert _linked_segments() == []
        finally:
            executor.close()

    def test_cleanup_segment_tolerates_never_created(self):
        # BrokenExecutor can fire before the worker ever created the
        # segment; sweeping the allocated name must be a quiet no-op.
        executor = _executor()
        try:
            name = executor._allocate_segment_name(3, 1)
            executor._cleanup_segment(name)
            assert name not in executor._live_segments
        finally:
            executor.close()


class TestTrackerSilence:
    def test_crashy_scan_subprocess_exits_clean(self, tmp_path):
        """rc 0, no tracker complaints, nothing left in /dev/shm."""
        script = tmp_path / "crashy_scan.py"
        script.write_text(
            "import os, sys\n"
            "from repro.faults import FaultPlan\n"
            "from repro.relay.service import RELAY_DOMAIN_QUIC\n"
            "from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings\n"
            "from repro.scan.sharding import ShardedCampaignExecutor\n"
            "from repro.worldgen import WorldConfig, build_world\n"
            f"world = build_world(WorldConfig.tiny(seed={SEED}))\n"
            "settings = EcsScanSettings(workers=4, campaign_seed="
            f"{SEED}, fault_plan=FaultPlan('hostile', seed={SEED}))\n"
            "scanner = EcsScanner(world.route53, world.routing, world.clock, settings)\n"
            "with ShardedCampaignExecutor(scanner, 4) as executor:\n"
            "    result = executor.scan(RELAY_DOMAIN_QUIC)\n"
            "assert result.queries_sent > 0\n"
            "print(os.getpid())\n"
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        child_pid = int(proc.stdout.strip().splitlines()[-1])
        assert _linked_segments(pid=child_pid) == []

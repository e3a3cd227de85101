"""Sharded parallel execution of ECS scan campaigns.

A full routed-space ECS scan is embarrassingly parallel in address
space: the paper's scanner walks /24 client subnets in order, and no
query's *content* depends on any earlier query — only two pieces of
shared state evolve along the walk:

* the rate limiter (which advances the simulated clock), and
* the relay service's per-pod rotation counters (which select the
  8-record window each answer starts at).

This module exploits that: it partitions the routed spans (and the
sparse-probed gaps between them) into contiguous **shards**, runs each
shard's scan in a forked worker process against a copy-on-write replica
of the authoritative world, and deterministically merges the shard
results into one :class:`~repro.scan.ecs_scanner.EcsScanResult` that is
equivalent to the sequential scan:

* the merged query set — and with it every query-accounting counter —
  is *identical* (shard boundaries are alignment-snapped so scope-skip
  blocks and sparse-probe strides never straddle a boundary);
* the merged response list carries the same subnets and scopes in the
  same address order;
* each worker reseeds its replica's rotation counters from (campaign
  seed, shard index) before a task, so shard results depend only on the
  shard's own query order — never on which worker ran which shard
  first, and never on the number of workers;
* the parent clock is advanced by taking the merged query count from a
  fresh token bucket in one closed-form step
  (:meth:`~repro.dns.ratelimit.TokenBucket.take_many`), which lands
  exactly where the sequential scan's takes leave the clock.

Workers ship results back as **columnar integer arrays** (subnet
values, scopes, indices into a distinct-address-tuple table), not as
response objects: the relay service's rotation memoisation means a scan
of hundreds of thousands of answers shares a few thousand distinct
address tuples, and encoding by tuple identity keeps the IPC payload —
and the parent's re-materialisation work — proportional to the distinct
answers, not the query count.  The columns themselves travel through
``multiprocessing.shared_memory`` segments: each worker writes its
result columns into a parent-named segment in place, and the parent
adopts them zero-copy (``memoryview`` casts over the mapping) during
the deterministic merge.  Segment names are allocated — and tracked —
by the parent *before* a shard is submitted, so cleanup is guaranteed
whatever happens to the worker: adopted segments are unlinked at merge
time, crashed shards' segments are unlinked during pool recovery, and
``close()`` / the scan's unwind path sweep anything left.  Where shared
memory is unavailable (or a segment cannot be created) the worker falls
back to shipping pickled column bytes; the merge is identical either
way.

Sharding requires the ``fork`` start method (the world is shared with
workers by copy-on-write inheritance, never pickled); where fork is
unavailable the executor transparently falls back to the sequential
in-process scan.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import time
from array import array
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass

try:  # shared-memory shard IPC (absent on exotic interpreter builds)
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform without posix/winapi shm
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

from repro.dns.name import DnsName
from repro.errors import WorkerCrashed
from repro.dns.ratelimit import TokenBucket
from repro.dns.rr import RRType
from repro.dns.server import ServerStats
from repro.netmodel.addr import IPAddress, Prefix
from repro.perfstats import CacheStats, gc_paused
from repro.scan.columnar import ColumnarResponses
from repro.scan.ecs_scanner import (
    EcsResponse,
    EcsScanResult,
    EcsScanner,
    merge_ranges,
)
from repro.telemetry.registry import DURATION_BUCKETS

_SPACE_END = 1 << 32

#: Where Linux mounts the POSIX shared-memory namespace.
SHM_DIR = "/dev/shm"

#: Per-shard rotation stream derivation (splitmix-style multipliers):
#: distinct shards start their rotation rings at well-separated offsets,
#: so the union of shard windows covers the relay pools at least as
#: thoroughly as the sequential walk does.
_ROTATION_MULT = 0x9E3779B1
_ROTATION_STEP = 0x85EBCA6B
_ROTATION_MASK = 0x3FFFFFFF


def rotation_base(campaign_seed: int, shard_index: int) -> int:
    """The deterministic rotation-stream base for one shard."""
    return (
        campaign_seed * _ROTATION_MULT + shard_index * _ROTATION_STEP
    ) & _ROTATION_MASK


def shard_alignment(
    prefix_lengths: list[int], source_prefix_len: int, sparse_stride: int
) -> int:
    """The boundary alignment that makes shard splits query-invisible.

    A shard boundary is safe exactly when no scan-order jump can cross
    it, which requires the boundary to be a multiple of

    * the routed-walk step (``2**(32 - source_prefix_len)``),
    * the sparse-probe stride in addresses (``sparse_stride * 256``),
    * every scope-skip block size the zone can declare.  Scope blocks
      are power-of-two aligned ranges no larger than the widest routed
      prefix (assignment units live inside routed client prefixes) or
      the fallback /16 — whichever is larger.

    All of these are powers of two in practice, so the lcm degenerates
    to the max; ``math.lcm`` keeps odd ``sparse_stride`` settings safe.
    """
    widest_routed = 1 << 16
    for length in prefix_lengths:
        size = 1 << (32 - length)
        if size > widest_routed:
            widest_routed = size
    step = 1 << (32 - source_prefix_len)
    stride = sparse_stride << 8
    return math.lcm(widest_routed, step, stride)


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """One shard's slice of the scan: a contiguous address region."""

    index: int
    start: int
    end: int  # inclusive
    spans: tuple[tuple[int, int], ...]
    gaps: tuple[tuple[int, int], ...]

    def routed_addresses(self) -> int:
        """Routed address volume in this shard (balance diagnostics)."""
        return sum(end - start + 1 for start, end in self.spans)


def plan_shards(
    spans: list[tuple[int, int]],
    gaps: list[tuple[int, int]],
    workers: int,
    alignment: int,
) -> list[ShardPlan]:
    """Partition spans and gaps into at most ``workers`` contiguous shards.

    Boundaries are chosen by routed-address volume (the /24 walk
    dominates query counts; sparse probes are three orders of magnitude
    rarer) and snapped to the nearest ``alignment`` multiple, so the
    per-shard walks reproduce exactly the sequential queries of their
    region.  Shards that end up with no work are dropped; the returned
    plans cover the space in ascending, disjoint order.
    """
    total = sum(end - start + 1 for start, end in spans)
    cuts: set[int] = set()
    if workers > 1 and total > 0:
        for k in range(1, workers):
            target = total * k // workers
            cum = 0
            pos = _SPACE_END
            for start, end in spans:
                size = end - start + 1
                if cum + size >= target:
                    pos = start + (target - cum)
                    break
                cum += size
            snapped = (pos + alignment // 2) // alignment * alignment
            if 0 < snapped < _SPACE_END:
                cuts.add(snapped)
    edges = [0, *sorted(cuts), _SPACE_END]
    plans: list[ShardPlan] = []
    for lo, hi_edge in zip(edges, edges[1:]):
        hi = hi_edge - 1
        shard_spans = _clip(spans, lo, hi)
        shard_gaps = _clip(gaps, lo, hi)
        if not shard_spans and not shard_gaps:
            continue
        plans.append(
            ShardPlan(len(plans), lo, hi, tuple(shard_spans), tuple(shard_gaps))
        )
    return plans


def _clip(
    ranges: list[tuple[int, int]], lo: int, hi: int
) -> list[tuple[int, int]]:
    """The pieces of inclusive ``ranges`` that fall inside [lo, hi]."""
    out = []
    for start, end in ranges:
        if end < lo or start > hi:
            continue
        out.append((start if start > lo else lo, end if end < hi else hi))
    return out


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The scanner (and through it the whole world) inherited by forked
#: workers.  Set by the executor before its pool forks; one process
#: drives one executor's pool at a time (campaign scans are strictly
#: sequential from the orchestrator's point of view).
_WORKER_SCANNER: EcsScanner | None = None


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything a worker needs to run one shard of one scan."""

    index: int
    domain: str
    rtype: RRType
    start_time: float
    rotation_base: int
    spans: tuple[tuple[int, int], ...]
    gaps: tuple[tuple[int, int], ...]
    #: How many times this shard has been handed out before (pool
    #: recovery re-runs).  Only the fault plan's crash drill reads it —
    #: shard *results* must never depend on it (rotation_base doesn't).
    run_attempt: int = 0
    #: Parent-allocated shared-memory segment name for this task's result
    #: columns (None disables the shm path).  The parent records the name
    #: before submitting, so it can always clean the segment up — even
    #: when the worker dies mid-write.
    shm_name: str | None = None
    #: Parent-created heartbeat segment (one u64 slot per pending shard)
    #: and this task's slot in it.  None when the hung-shard watchdog is
    #: off; the worker then skips all liveness bookkeeping.
    heartbeat_name: str | None = None
    heartbeat_slot: int = 0


#: Pickled fallback for one response set's columns: (subnet values,
#: scopes, answer refs — as packed ``array`` bytes — and the answer
#: table).  The table holds one ``(address pairs, asn)`` entry per
#: *distinct* address tuple — distinct by identity, which the scan
#: kernel's answer interning makes equivalent to distinct by value.
#: Used only when the shared-memory path is unavailable.
_Columnar = tuple[bytes, bytes, bytes, list[tuple]]

#: In-memory column set: (values, scopes, refs, encoded table) where the
#: first three are any buffer-backed integer sequences.
_Columns = tuple


@dataclass(frozen=True, slots=True)
class ShardOutcome:
    """One shard's results, in picklable columnar form.

    Response columns travel through the task's shared-memory segment
    when possible: :attr:`shm_rows` gives the routed/sparse row counts
    laid out in the segment (see :func:`_write_segment` for the layout)
    and :attr:`shm_tables` the matching answer tables; the pickled
    :attr:`responses` / :attr:`sparse_responses` fallback is None then.
    """

    index: int
    queries_sent: int
    sparse_queries: int
    sparse_answered: int
    responses: _Columnar | None
    sparse_responses: _Columnar | None
    server_stats: ServerStats
    cache_stats: CacheStats
    #: Per shard hook (in ``zone.shard_hooks()`` order): the per-key
    #: rotation advances accumulated by this shard's queries.
    rotation_deltas: tuple[dict, ...]
    #: Fault/retry accounting: retried attempts, abandoned subnets as
    #: picklable ``(value, length)`` pairs in scan order, injected-fault
    #: counts by kind name, and the shard's accumulated injected waits
    #: (dyadic, so the parent's sum is bit-identical to sequential).
    retries: int
    gave_up: tuple[tuple[int, int], ...]
    fault_injected: dict
    fault_wait_seconds: float
    #: Wall-clock seconds this shard's scan took in its worker (feeds
    #: the parent's ``ecs.shard_wall_seconds`` balance histogram).
    wall_seconds: float
    #: The worker registry's *owned* metrics for this task — the shard's
    #: ``ecs.*`` / ``ratelimit.*`` deltas, absorbed (summed) by the
    #: parent.  Adopted instruments (ServerStats / CacheStats counters)
    #: are deliberately excluded: they travel via the two fields above
    #: and absorbing them too would double count.  Empty when telemetry
    #: is off.
    metrics: dict
    #: Shared-memory shipment (all None/zero on the pickled fallback):
    #: the task's segment name, the (routed, sparse) row counts laid out
    #: in it, and the matching (routed, sparse) answer tables.
    shm_name: str | None = None
    shm_rows: tuple[int, int] = (0, 0)
    shm_tables: tuple[list, list] | None = None


def _encode_table(
    table: list[tuple[tuple[IPAddress, ...], int | None]],
) -> list[tuple]:
    """Address tuples down to picklable ``(version, value)`` pairs."""
    return [
        (tuple((a.version, a.value) for a in addresses), asn)
        for addresses, asn in table
    ]


def _encode_responses(responses: list[EcsResponse]) -> _Columns:
    """Strip response objects down to columns plus a distinct-answer table.

    Address tuples are deduplicated by identity: the scan kernels hand
    every recurrence of an answer the same tuple object, so the table
    stays small (slow-path responses, which do not share tuples, still
    encode correctly — one table entry each).  The responses list keeps
    every tuple alive for the duration, so ids are never reused.
    """
    table_index: dict[int, int] = {}
    table: list[tuple] = []
    refs: list[int] = []
    append_ref = refs.append
    index_get = table_index.get
    for response in responses:
        addresses = response[2]
        key = id(addresses)
        ref = index_get(key)
        if ref is None:
            ref = len(table)
            table_index[key] = ref
            table.append(
                (
                    tuple((a.version, a.value) for a in addresses),
                    response[3],
                )
            )
        append_ref(ref)
    values = array("I", [response[0].value for response in responses])
    scopes = array("B", [response[1] for response in responses])
    return (values, scopes, array("I", refs), table)


def _result_columns(result: EcsScanResult) -> _Columns:
    """The routed response columns of one shard result.

    The batch-replay kernel already produced packed columns — reuse them
    as-is (encoding just the answer table); only slow-path results pay
    for a per-response encoding pass.
    """
    view = result.columnar_view()
    if view is None:
        return _encode_responses(result.responses)
    values = array("I")
    scopes = array("B")
    refs = array("I")
    table: list[tuple] = []
    for chunk_values, chunk_scopes, chunk_refs, chunk_table in view.chunks:
        if table:
            base = len(table)
            refs.extend(ref + base for ref in chunk_refs)
        else:
            refs.extend(chunk_refs)
        values.extend(chunk_values)
        scopes.extend(chunk_scopes)
        table.extend(_encode_table(chunk_table))
    return (values, scopes, refs, table)


def _pack_columns(columns: _Columns) -> _Columnar:
    """Columns into the pickled fallback form (packed bytes + table)."""
    values, scopes, refs, table = columns
    return (
        memoryview(values).tobytes(),
        memoryview(scopes).tobytes(),
        memoryview(refs).tobytes(),
        table,
    )


def _write_segment(name: str, routed: _Columns, sparse: _Columns):
    """Create segment ``name`` and write both column sets into it.

    Layout (row counts travel in the outcome): routed values (4 bytes
    each), routed scopes (1), routed refs (4), then the sparse columns
    in the same order — 9 bytes per row overall.  Returns the segment,
    or None when shared memory is unusable (caller falls back to
    pickling).  The worker closes its mapping right after writing; it
    never unlinks — the name's lifetime belongs to the parent.
    """
    if shared_memory is None:
        return None
    size = 9 * (len(routed[0]) + len(sparse[0]))
    if size == 0:
        return None
    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    except OSError:
        return None
    buf = segment.buf
    offset = 0
    for column in (*routed[:3], *sparse[:3]):
        raw = memoryview(column).cast("B")
        buf[offset : offset + len(raw)] = raw
        offset += len(raw)
    return segment


def _run_shard(task: ShardTask) -> ShardOutcome:
    """Worker entry point: run one shard against the forked replica.

    The replica's mutable scan state is reset to the task's starting
    conditions first — the worker may have run an earlier shard (of this
    or a previous scan) that left its copy's clock, stats, caches and
    rotation counters elsewhere:

    * the replica clock rewinds to the scan's start slot,
    * server query stats restart from zero (the shard's contribution is
      shipped back and merged),
    * the answer cache is emptied with zeroed stats (each worker starts
      a task cold; epoch invalidation behaviour within the task is then
      identical to a sequential scan's),
    * every rotation hook of the scanned zone is reseeded from
      (campaign seed, shard index).
    """
    scanner = _WORKER_SCANNER
    assert scanner is not None, "worker forked without a scanner context"
    # A previous task's heartbeat closure (left behind by an error
    # unwind) points into a segment the parent has since unlinked.
    scanner.heartbeat = None
    # Crash drill: profiles can nominate shard indices whose worker dies
    # mid-task.  os._exit (not an exception) models a real process death
    # — the pool breaks and the parent must respawn and re-run.  The
    # drill keys on the task's run_attempt, so re-runs succeed.
    plan = scanner.settings.fault_plan
    if plan is not None and plan.crash_shard(task.index, task.run_attempt):
        # repro: allow[CONC002] fault-plan crash drill: models real worker death
        os._exit(70)
    # Liveness heartbeat for the parent-side watchdog: bump the task's
    # u64 slot once at start (a nonzero slot means "started" — queued
    # shards stay at zero and never trip the deadline), then hand the
    # scanner a bump callable it calls at region/chunk boundaries.
    hb_segment = None
    if task.heartbeat_name is not None and shared_memory is not None:
        try:
            hb_segment = shared_memory.SharedMemory(name=task.heartbeat_name)
        except OSError:
            hb_segment = None
    if hb_segment is not None:
        hb_buf = hb_segment.buf
        hb_lo = task.heartbeat_slot * 8
        hb_hi = hb_lo + 8

        def _bump() -> None:
            count = int.from_bytes(hb_buf[hb_lo:hb_hi], "little")
            hb_buf[hb_lo:hb_hi] = ((count + 1) & 0xFFFFFFFFFFFFFFFF).to_bytes(
                8, "little"
            )

        _bump()
        scanner.heartbeat = _bump
        # Hang drill: profiles can nominate shard indices that go silent
        # mid-task — started (slot bumped above) but never progressing.
        # Only armed when the watchdog is (heartbeat configured), so
        # hostile-profile runs without a deadline never stall; keyed on
        # run_attempt, so the post-recovery re-run completes.  The
        # wall-clock backstop bounds an undetected hang instead of
        # wedging the host forever.
        if plan is not None and plan.hang_shard(task.index, task.run_attempt):
            # repro: allow[DET001] hang-drill backstop timer; the task produces no results
            backstop = time.monotonic() + 120.0
            # repro: allow[DET001] hang-drill backstop timer; the task produces no results
            while time.monotonic() < backstop:
                time.sleep(0.05)
            # repro: allow[CONC002] hang-drill backstop: models a truly wedged worker
            os._exit(70)
    # Shard workers only ever run scans: their allocations (responses,
    # columnar encodings) are acyclic and freed per task by refcounting,
    # so no collection finds anything.  Keep the collector off for the
    # process's lifetime, not just inside scan_ranges.
    gc.disable()
    server = scanner.server
    scanner.clock.reset_to(task.start_time)
    server.stats.reset()
    cache = server.answer_cache
    cache.clear()
    cache.stats.reset()
    zone = server.zone_for(DnsName.parse(task.domain))
    hooks = zone.shard_hooks() if zone is not None else []
    for hook in hooks:
        hook.reseed(task.rotation_base)
    # The forked registry may hold owned counters inherited from the
    # parent (or from this worker's previous task); zero them so the
    # shipped snapshot is exactly this task's contribution.
    registry = scanner.telemetry.registry
    registry.reset_owned()
    # repro: allow[DET001] wall-time feeds the shard telemetry histogram only
    wall_start = time.perf_counter()
    result = scanner.scan_ranges(
        task.domain, list(task.spans), list(task.gaps), task.rtype
    )
    # repro: allow[DET001] wall-time feeds the shard telemetry histogram only
    wall_seconds = time.perf_counter() - wall_start
    if hb_segment is not None:
        # The scan is the only phase worth watching; encoding the result
        # is bounded work.  Release before close — the segment refuses
        # to unmap while the buffer view is exported.
        scanner.heartbeat = None
        hb_buf.release()
        hb_segment.close()
    routed_columns = _result_columns(result)
    sparse_columns = _encode_responses(result.sparse_responses)
    segment = (
        _write_segment(task.shm_name, routed_columns, sparse_columns)
        if task.shm_name is not None
        else None
    )
    if segment is not None:
        segment.close()
        responses = sparse_responses = None
        shm_name = task.shm_name
        shm_rows = (len(routed_columns[0]), len(sparse_columns[0]))
        shm_tables = (routed_columns[3], sparse_columns[3])
    else:
        responses = _pack_columns(routed_columns)
        sparse_responses = _pack_columns(sparse_columns)
        shm_name = None
        shm_rows = (0, 0)
        shm_tables = None
    return ShardOutcome(
        index=task.index,
        queries_sent=result.queries_sent,
        sparse_queries=result.sparse_queries,
        sparse_answered=result.sparse_answered,
        responses=responses,
        sparse_responses=sparse_responses,
        shm_name=shm_name,
        shm_rows=shm_rows,
        shm_tables=shm_tables,
        retries=result.retries,
        gave_up=tuple((p.value, p.length) for p in result.gave_up),
        fault_injected=dict(result.fault_injected),
        fault_wait_seconds=result.fault_wait_seconds,
        server_stats=server.stats.copy(),
        cache_stats=CacheStats(
            hits=cache.stats.hits,
            misses=cache.stats.misses,
            invalidations=cache.stats.invalidations,
        ),
        rotation_deltas=tuple(hook.delta_snapshot() for hook in hooks),
        wall_seconds=wall_seconds,
        metrics=registry.owned_snapshot(),
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _submit(pool: ProcessPoolExecutor, task: ShardTask) -> Future:
    """Queue one shard task on the pool.

    A worker can die while the parent is still submitting; the pool
    then refuses the remaining tasks with ``BrokenProcessPool``.  Such a
    shard gets a future already failed with that error, so it takes the
    same crash-recovery path as a shard lost after it was queued.
    """
    try:
        return pool.submit(_run_shard, task)
    except BrokenExecutor as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


class ShardedCampaignExecutor:
    """Runs one scanner's scans sharded across forked worker processes.

    Wraps an :class:`EcsScanner` with a ``scan()`` of the same shape, so
    the campaign orchestrator can swap it in transparently when
    ``settings.workers > 1``.  The pool is created lazily on the first
    sharded scan and reused for the whole campaign; :meth:`close` (or
    use as a context manager) shuts it down.
    """

    def __init__(
        self,
        scanner: EcsScanner,
        workers: int,
        heartbeat_deadline: float | None = None,
    ) -> None:
        self.scanner = scanner
        self.workers = max(1, int(workers))
        #: Hung-shard watchdog: a *started* shard whose heartbeat slot
        #: stays unchanged for this many wall seconds is declared hung —
        #: its pool is terminated and the shard re-runs through the same
        #: respawn path a crashed worker takes.  None disables the
        #: watchdog (and all heartbeat plumbing).
        self.heartbeat_deadline = (
            float(heartbeat_deadline)
            if heartbeat_deadline is not None and heartbeat_deadline > 0
            else None
        )
        self._pool: ProcessPoolExecutor | None = None
        self._alignment_cache: tuple[object, int] | None = None
        # Parent-side interning for re-materialised shard responses:
        # shards and monthly scans rediscover the same subnets and
        # address tuples, so the merged results share objects the same
        # way sequential results do (which keeps the identity-based
        # deduplication in EcsScanResult.addresses() effective).
        self._prefixes: dict[int, dict[int, Prefix]] = {}
        self._addresses: dict[tuple[int, int], IPAddress] = {}
        self._tuples: dict[tuple, tuple[IPAddress, ...]] = {}
        # Shared-memory segment bookkeeping: every name this executor
        # has allocated and not yet unlinked (adoption, crash cleanup,
        # or sweep removes entries), plus a sequence number that keeps
        # names unique across scans and pool respawns.
        self._live_segments: set[str] = set()
        self._shm_seq = 0
        # Mutation tokens of the zones the pool's forked replicas were
        # built from, keyed by zone apex (see _refresh_if_stale).
        self._fork_tokens: dict[object, tuple] = {}
        #: Optional live monitoring plane (repro.monitor): shard
        #: liveness on the StatusBoard, crash/respawn records in the
        #: EventLog.  Parent-side only — forked workers inherit copies.
        self.status = None
        self.events = None

    @staticmethod
    def supported() -> bool:
        """Whether this platform can fork shard workers."""
        return "fork" in multiprocessing.get_all_start_methods()

    # -- lifecycle ------------------------------------------------------

    #: How many times scan() will rebuild a broken pool before giving
    #: up with :class:`~repro.errors.WorkerCrashed`.
    MAX_POOL_RESPAWNS = 3

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Always terminates the workers — ``cancel_futures`` keeps a close
        during an in-flight scan (error unwind, ``__exit__``) from
        blocking on queued shards nobody will collect.  The workers are
        SIGKILLed before the shutdown joins them: a worker killed while
        holding the pool's call-queue lock leaves its forked siblings
        blocked on that lock for good, and ``shutdown(wait=True)`` would
        wait on them forever.  Nothing a worker holds outlives it — shard
        results are collected (or re-run) and segments swept below.
        """
        global _WORKER_SCANNER
        if self._pool is not None:
            for process in list(self._pool._processes.values()):
                process.kill()
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if _WORKER_SCANNER is self.scanner:
            _WORKER_SCANNER = None
        # With the workers gone, any segment still tracked is orphaned
        # (un-adopted results, crashes, cancelled shards) — unlink them.
        self._sweep_segments()

    def __enter__(self) -> "ShardedCampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        global _WORKER_SCANNER
        # (Re)publish the world for workers the pool has yet to fork.
        # Late spawns only read this global at fork time, so it must
        # point at *this* executor's scanner whenever work is submitted.
        _WORKER_SCANNER = self.scanner
        if self._pool is None:
            if resource_tracker is not None:
                # Start the resource tracker in the parent before forking
                # workers: children then inherit its pipe, so segments a
                # crashed worker registered still get unlinked at parent
                # exit should this executor's own cleanup ever be skipped.
                resource_tracker.ensure_running()
            # Shard results are deterministic per shard index — never per
            # worker process — so the process count is an implementation
            # detail: capped at the machine's cores, because extra
            # CPU-bound processes on an oversubscribed box only add
            # copy-on-write duplication and scheduler churn, without
            # changing a single output bit.
            processes = min(self.workers, os.cpu_count() or 1)
            self._pool = ProcessPoolExecutor(
                max_workers=processes,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool

    def _refresh_if_stale(self, domain: str) -> None:
        """Respawn the pool when the served world changed since it forked.

        Workers inherit the world by fork-time copy-on-write, so an
        assignment-map or fleet-composition edit in the parent — e.g. a
        deployment change injected between delta-scan rounds — never
        reaches a live pool.  The zone's mutation token captures exactly
        that editable state (time-driven changes are excluded), so a
        token change here means the replicas are stale: shut the pool
        down and let the next submission fork fresh ones.
        """
        zone = self.scanner.server.zone_for(DnsName.parse(domain))
        if zone is None:
            return
        token = zone.mutation_token()
        known = self._fork_tokens.get(zone.apex)
        if known is not None and known != token and self._pool is not None:
            self.close()
        self._fork_tokens[zone.apex] = token

    # -- scanning -------------------------------------------------------

    def scan(self, domain: str, rtype: RRType = RRType.A) -> EcsScanResult:
        """Run one sharded scan; falls back to sequential when sharding
        cannot help (one worker, no fork, or a single-shard plan)."""
        scanner = self.scanner
        if self.workers <= 1 or not self.supported():
            return scanner.scan(domain, rtype)
        self._refresh_if_stale(domain)
        if scanner.settings.prune_unrouted:
            spans, gaps = scanner.routed_ranges()
        else:
            spans, gaps = [(0, _SPACE_END - 1)], []
        plans = plan_shards(spans, gaps, self.workers, self._alignment())
        if len(plans) <= 1:
            return scanner.scan_ranges(domain, spans, gaps, rtype)
        return self._scan_sharded(domain, rtype, plans)

    def scan_regions(
        self,
        domain: str,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]] | tuple = (),
        rtype: RRType = RRType.A,
    ) -> EcsScanResult:
        """Shard an explicit region worklist (the delta-scan entry).

        The delta-scan executor hands over the changed-region and
        refresh-wheel ranges of one round; they are normalised exactly
        like :meth:`EcsScanner.scan_regions` and split with the same
        aligned volume-balanced planner as a full scan, so the merged
        result is bit-identical to the sequential region scan (shard
        cuts land on scope-block boundaries, rotation bases depend only
        on the shard index).  Falls back to the sequential scanner when
        sharding cannot help.
        """
        scanner = self.scanner
        spans = merge_ranges(spans)
        gaps = merge_ranges(gaps)
        if self.workers <= 1 or not self.supported():
            return scanner.scan_ranges(domain, spans, gaps, rtype)
        self._refresh_if_stale(domain)
        plans = plan_shards(spans, gaps, self.workers, self._alignment())
        if len(plans) <= 1:
            return scanner.scan_ranges(domain, spans, gaps, rtype)
        return self._scan_sharded(domain, rtype, plans)

    def _scan_sharded(
        self, domain: str, rtype: RRType, plans: list[ShardPlan]
    ) -> EcsScanResult:
        """Gather and merge the shards of one planned scan.

        Cyclic GC is paused as in ``scan_ranges``: the executor's result
        thread unpickles large shard outcomes while we wait, and those
        acyclic allocations would otherwise set off young collections
        (the world itself is frozen out of the collector).
        """
        scanner = self.scanner
        start_time = scanner.clock.now
        seed = scanner.settings.campaign_seed
        try:
            with gc_paused(), scanner.telemetry.tracer.span(
                "ecs.scan.sharded", domain=domain, shards=len(plans)
            ):
                outcomes = self._gather(domain, rtype, start_time, seed, plans)
                return self._merge(domain, rtype, start_time, outcomes)
        finally:
            # Adoption and crash recovery unlink as they go; anything
            # still tracked here (e.g. an error between gather and
            # merge) is orphaned — unlink it now.  No-op on success.
            self._sweep_segments()

    def _gather(
        self,
        domain: str,
        rtype: RRType,
        start_time: float,
        seed: int,
        plans: list[ShardPlan],
    ) -> list[ShardOutcome]:
        """Run every shard to completion, recovering from worker crashes.

        A dead worker breaks the whole fork pool: its own shard, any
        shard still queued behind it, and any shard the broken pool
        refused at submission surface as ``BrokenExecutor`` from
        ``future.result()``.  Those shards — and only those — are re-run
        against a fresh pool (bounded by :attr:`MAX_POOL_RESPAWNS`, then
        :class:`~repro.errors.WorkerCrashed`).  Shard results depend only
        on the shard index, never on which pool incarnation ran them, so
        recovery cannot change the merged output.  A worker raising an
        ordinary *exception* is a bug, not a crash: it propagates
        immediately, after the pool is torn down so no workers leak.
        """
        outcomes: dict[int, ShardOutcome] = {}
        pending = list(plans)
        registry = self.scanner.telemetry.registry
        attempt = 0
        if self.status is not None:
            self.status.clear_shards()
            self.status.publish(shards_planned=len(plans))
        while pending:
            pool = self._ensure_pool()
            if self.status is not None:
                for plan in pending:
                    self.status.shard_state(plan.index, "running")
            hb_name, hb_segment = self._heartbeat_segment(len(pending))
            futures = [
                (
                    plan,
                    shm_name := self._allocate_segment_name(plan.index, attempt),
                    _submit(
                        pool,
                        ShardTask(
                            index=plan.index,
                            domain=domain,
                            rtype=rtype,
                            start_time=start_time,
                            rotation_base=rotation_base(seed, plan.index),
                            spans=plan.spans,
                            gaps=plan.gaps,
                            run_attempt=attempt,
                            shm_name=shm_name,
                            heartbeat_name=hb_name,
                            heartbeat_slot=slot,
                        ),
                    ),
                )
                for slot, plan in enumerate(pending)
            ]
            if hb_segment is not None:
                try:
                    self._watch_heartbeats(domain, pool, hb_segment, futures, attempt)
                finally:
                    hb_segment.close()
                    self._cleanup_segment(hb_name)
            crashed: list[ShardPlan] = []
            failure: BaseException | None = None
            for plan, shm_name, future in futures:
                if failure is not None:
                    future.cancel()
                    continue
                try:
                    outcome = future.result()
                except BrokenExecutor:
                    # The worker may have died mid-write (or never run):
                    # its segment — if it got as far as creating one — is
                    # orphaned.  Unlink before the shard is re-run under
                    # a fresh name.
                    if shm_name is not None:
                        self._cleanup_segment(shm_name)
                    crashed.append(plan)
                    if self.status is not None:
                        self.status.shard_state(plan.index, "crashed")
                        self.status.add("shard_crashes")
                    if self.events is not None:
                        self.events.emit(
                            "shard_crash",
                            domain=domain,
                            shard=plan.index,
                            attempt=attempt,
                        )
                # repro: allow[HYG002] first failure re-raised after pool teardown
                except BaseException as exc:
                    failure = exc
                else:
                    outcomes[plan.index] = outcome
                    if self.status is not None:
                        self.status.shard_state(plan.index, "done")
                    if outcome.shm_name is None and shm_name is not None:
                        # Worker fell back to pickling; the allocated
                        # name was never (fully) used.
                        self._cleanup_segment(shm_name)
            if failure is not None:
                self.close()
                raise failure
            pending = crashed
            if pending:
                attempt += 1
                if attempt > self.MAX_POOL_RESPAWNS:
                    indices = [plan.index for plan in pending]
                    self.close()
                    raise WorkerCrashed(
                        f"shards {indices} of {domain} kept crashing after "
                        f"{self.MAX_POOL_RESPAWNS} pool respawns"
                    )
                if registry.enabled:
                    registry.counter("shards.rerun", domain=domain).inc(
                        len(pending)
                    )
                if self.events is not None:
                    self.events.emit(
                        "shard_respawn",
                        domain=domain,
                        shards=sorted(plan.index for plan in pending),
                        attempt=attempt,
                    )
                if self.status is not None:
                    self.status.add("pool_respawns")
                self._respawn_pool()
        return [outcomes[plan.index] for plan in plans]

    def _heartbeat_segment(self, count: int):
        """Parent-created liveness slots: one u64 per pending shard.

        Returns ``(name, segment)`` — or ``(None, None)`` when the
        watchdog is off or shared memory is unusable, which disables the
        whole heartbeat path for this attempt.  The name is tracked in
        :attr:`_live_segments` before any worker sees it, same cleanup
        guarantee as result segments.
        """
        if self.heartbeat_deadline is None or shared_memory is None:
            return None, None
        self._shm_seq += 1
        name = f"repro-{os.getpid()}-{self._shm_seq}-hb"
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=8 * count
            )
        except OSError:
            return None, None
        self._live_segments.add(name)
        segment.buf[:] = bytes(8 * count)
        return name, segment

    def _watch_heartbeats(
        self, domain: str, pool, segment, futures: list, attempt: int
    ) -> None:
        """Poll shard liveness until every future settles or one hangs.

        A shard is *hung* when its slot has been bumped at least once
        (the worker started it) but then stays unchanged past
        :attr:`heartbeat_deadline`.  Queued shards — slot still zero —
        never trip the deadline, so deep work queues don't false-
        positive.  Detection terminates every pool worker: the pool
        breaks, all unfinished futures raise ``BrokenExecutor``, and the
        caller's existing crash-recovery path re-runs them against a
        fresh pool (the hang drill keys on ``run_attempt``, so re-runs
        complete).  Innocent in-flight shards re-run too; that cannot
        change the merged output (results depend only on shard index).
        """
        deadline = self.heartbeat_deadline
        view = segment.buf.cast("Q")
        counts = [0] * len(futures)
        # repro: allow[DET001] watchdog liveness clock; never feeds simulation state
        now = time.monotonic()
        last_change = [now] * len(futures)
        poll = min(0.05, deadline / 4)
        try:
            while True:
                if all(future.done() for _, _, future in futures):
                    return
                # repro: allow[DET001] watchdog liveness clock; never feeds simulation state
                now = time.monotonic()
                hung = None
                for slot, (plan, _, future) in enumerate(futures):
                    if future.done():
                        continue
                    value = view[slot]
                    if value != counts[slot]:
                        counts[slot] = value
                        last_change[slot] = now
                    elif value and now - last_change[slot] > deadline:
                        hung = plan
                        break
                if hung is not None:
                    registry = self.scanner.telemetry.registry
                    if registry.enabled:
                        registry.counter("shards.hung", domain=domain).inc()
                    if self.status is not None:
                        self.status.shard_state(hung.index, "hung")
                        self.status.add("shard_hangs")
                    if self.events is not None:
                        self.events.emit(
                            "shard_hung",
                            domain=domain,
                            shard=hung.index,
                            attempt=attempt,
                        )
                    # Killing the workers breaks the pool, which is the
                    # point: the hung shard (and any collateral) surfaces
                    # as BrokenExecutor and re-runs via the respawn path.
                    # SIGKILL, not SIGTERM: a wedged worker may be stuck
                    # in C code, and forked workers inherit the parent's
                    # graceful-drain SIGTERM handler — a catchable signal
                    # would be absorbed instead of ending the process.
                    for process in list(pool._processes.values()):
                        process.kill()
                    return
                time.sleep(poll)
        finally:
            view.release()

    def _respawn_pool(self) -> None:
        """Drop a broken pool so the next :meth:`_ensure_pool` forks anew."""
        if self._pool is not None:
            # The pool is already broken; don't wait on its corpse.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- shared-memory segment lifecycle --------------------------------

    def _allocate_segment_name(self, shard_index: int, attempt: int) -> str | None:
        """A fresh segment name, tracked *before* the task is submitted.

        Tracking first is the whole cleanup guarantee: whatever the
        worker does with the name — writes it, crashes halfway through,
        never runs — the parent knows to unlink it.  Returns None when
        shared memory is unavailable (tasks then use the pickled path).
        """
        if shared_memory is None:
            return None
        self._shm_seq += 1
        name = f"repro-{os.getpid()}-{self._shm_seq}-{shard_index}-{attempt}"
        self._live_segments.add(name)
        return name

    def _cleanup_segment(self, name: str) -> None:
        """Unlink one tracked segment if the worker got as far as creating it."""
        self._live_segments.discard(name)
        if shared_memory is None:
            return
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        except ValueError:
            # Created but never sized (the worker died between shm_open
            # and ftruncate): an empty segment cannot be mapped.  It was
            # never registered with the resource tracker either (that
            # follows the mapping), so unlinking the name is all that is
            # left to do — through the POSIX shm namespace's mount.
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass
            return
        segment.close()
        # unlink() also drops the name from the resource tracker — which
        # clears the worker-side registration from creation too, since
        # forked workers share the parent's tracker process.
        segment.unlink()

    def _sweep_segments(self) -> None:
        """Unlink every still-tracked segment (normal paths leave none)."""
        for name in list(self._live_segments):
            self._cleanup_segment(name)

    def _alignment(self) -> int:
        """Shard boundary alignment, cached on the routing-table version."""
        routing = self.scanner.routing
        version = getattr(routing, "version", None)
        cached = self._alignment_cache
        if cached is not None and version is not None and cached[0] == version:
            return cached[1]
        settings = self.scanner.settings
        alignment = shard_alignment(
            [p.length for p in routing.routed_v4_prefixes()],
            settings.source_prefix_len,
            settings.sparse_stride,
        )
        if version is not None:
            self._alignment_cache = (version, alignment)
        return alignment

    def _merge(
        self,
        domain: str,
        rtype: RRType,
        start_time: float,
        outcomes: list[ShardOutcome],
    ) -> EcsScanResult:
        """Fold shard outcomes into one sequential-equivalent result.

        Outcomes arrive in shard-index order, i.e. ascending address
        order, so plain concatenation reproduces the sequential response
        order.  Server and cache statistics are merged into the
        authoritative objects; the zone's rotation hooks advance by the
        summed per-key deltas (each key's counter increments by exactly
        one per query, so summed counts reproduce the sequential end
        state); and the clock takes the merged query count from a fresh
        token bucket at once — the closed-form schedule the sequential
        scan's takes follow, so the clock lands on the same float.
        """
        scanner = self.scanner
        server = scanner.server
        settings = scanner.settings
        result = EcsScanResult(domain=domain, started_at=start_time)
        merged_deltas: list[dict] = []
        # GC is already suspended by scan() across the gather and merge.
        self._merge_outcomes(result, outcomes, merged_deltas)
        zone = server.zone_for(DnsName.parse(domain))
        if zone is not None:
            for hook, deltas in zip(zone.shard_hooks(), merged_deltas):
                hook.apply_deltas(deltas)
        bucket = TokenBucket(settings.rate, settings.burst, scanner.clock)
        bucket.take_many(result.queries_sent)
        # Injected waits advance the clock after the takes, mirroring
        # scan_ranges (takes first, one advance at the end); the shard
        # partial sums are dyadic so their sum is the sequential float.
        if result.fault_wait_seconds:
            scanner.clock.advance(result.fault_wait_seconds)
        result.finished_at = scanner.clock.now
        if self.status is not None:
            # Parent-side merged view (forked workers' boards are their
            # own post-fork copies); batch, once per sharded scan.
            self.status.add("queries_sent", result.queries_sent)
            self.status.add("scans_completed")
            self.status.publish(last_domain=domain, sim_time=scanner.clock.now)
        return result

    def _merge_outcomes(
        self,
        result: EcsScanResult,
        outcomes: list[ShardOutcome],
        merged_deltas: list[dict],
    ) -> None:
        scanner = self.scanner
        server = scanner.server
        settings = scanner.settings
        registry = scanner.telemetry.registry
        telemetry_on = registry.enabled
        if telemetry_on:
            shard_wall = registry.histogram(
                "ecs.shard_wall_seconds", DURATION_BUCKETS, domain=result.domain
            )
            registry.counter("ecs.shards", domain=result.domain).inc(len(outcomes))
        # Routed responses stay columnar end to end: each shard's columns
        # become one chunk of the merged view (zero-copy for shm
        # outcomes), concatenated in shard-index — i.e. address — order.
        # Sparse responses are three orders of magnitude rarer; decoding
        # them eagerly keeps the list-based fault/retry accounting paths
        # simple.
        source_len = settings.source_prefix_len
        merged_columns = ColumnarResponses(
            source_len, prefixes=self._prefixes.setdefault(source_len, {})
        )
        for outcome in outcomes:
            result.queries_sent += outcome.queries_sent
            result.sparse_queries += outcome.sparse_queries
            result.sparse_answered += outcome.sparse_answered
            result.retries += outcome.retries
            result.fault_wait_seconds += outcome.fault_wait_seconds
            for value, length in outcome.gave_up:
                result.gave_up.append(self._prefix(value, length))
            injected = result.fault_injected
            for kind, count in outcome.fault_injected.items():
                injected[kind] = injected.get(kind, 0) + count
            routed, sparse, segment = self._adopt_columns(outcome)
            if len(routed[0]):
                merged_columns.chunks.append(
                    (routed[0], routed[1], routed[2], self._decode_table(routed[3]))
                )
            if segment is not None:
                merged_columns.retain(segment)
            self._decode_into(result.sparse_responses, sparse, 24)
            server.stats.merge(outcome.server_stats)
            server.answer_cache.stats.merge(outcome.cache_stats)
            if telemetry_on:
                registry.absorb(outcome.metrics)
                shard_wall.observe(outcome.wall_seconds)
            for position, deltas in enumerate(outcome.rotation_deltas):
                if position == len(merged_deltas):
                    merged_deltas.append({})
                merged = merged_deltas[position]
                for key, delta in deltas.items():
                    merged[key] = merged.get(key, 0) + delta
        result.attach_columnar(merged_columns)

    def _adopt_columns(
        self, outcome: ShardOutcome
    ) -> tuple[_Columns, _Columns, object | None]:
        """One outcome's (routed, sparse) columns, plus the owning segment.

        Shared-memory outcomes are adopted zero-copy: the columns are
        ``memoryview`` casts straight over the segment mapping, and the
        segment is unlinked (and dropped from the resource tracker)
        immediately — the mapping itself stays valid until the last view
        dies, which :meth:`ColumnarResponses.retain` ties to the merged
        result.  Unlinking before use means the name cannot leak no
        matter what happens downstream.  Pickled outcomes unpack into
        plain arrays.
        """
        if outcome.shm_name is not None:
            segment = shared_memory.SharedMemory(name=outcome.shm_name)
            n, m = outcome.shm_rows
            buf = segment.buf
            routed_table, sparse_table = outcome.shm_tables
            base = 9 * n
            routed = (
                buf[: 4 * n].cast("I"),
                buf[4 * n : 5 * n],
                buf[5 * n : base].cast("I"),
                routed_table,
            )
            sparse = (
                buf[base : base + 4 * m].cast("I"),
                buf[base + 4 * m : base + 5 * m],
                buf[base + 5 * m : base + 9 * m].cast("I"),
                sparse_table,
            )
            # unlink() also drops the tracker registration (the worker's
            # create and this attach share one tracker entry).
            segment.unlink()
            self._live_segments.discard(outcome.shm_name)
            # Hand the mapping over to the views: strip the segment's own
            # buffer references so closing it only closes the fd — its
            # finalizer would otherwise try to close the mmap while the
            # column views still point into it.  The views (and the
            # retained mapping) keep the mmap object alive; the OS
            # reclaims the unlinked memory when the last of them dies.
            mapping = segment._mmap
            segment._buf = None
            segment._mmap = None
            segment.close()
            return routed, sparse, mapping
        return (
            self._unpack_columns(outcome.responses),
            self._unpack_columns(outcome.sparse_responses),
            None,
        )

    @staticmethod
    def _unpack_columns(columnar: _Columnar) -> _Columns:
        """Pickled column bytes back into arrays (fallback path)."""
        packed_values, packed_scopes, packed_refs, table = columnar
        values = array("I")
        values.frombytes(packed_values)
        scopes = array("B")
        scopes.frombytes(packed_scopes)
        refs = array("I")
        refs.frombytes(packed_refs)
        return (values, scopes, refs, table)

    def _decode_table(self, table: list[tuple]) -> list[tuple]:
        """Shipped ``(version, value)`` pairs back to interned address tuples."""
        tuples = self._tuples
        out: list[tuple] = []
        append = out.append
        for pairs, asn in table:
            addresses = tuples.get(pairs)
            if addresses is None:
                addresses = tuples[pairs] = tuple(
                    self._address(v, value) for v, value in pairs
                )
            append((addresses, asn))
        return out

    def _decode_into(
        self,
        out: list[EcsResponse],
        columns: _Columns,
        subnet_len: int,
    ) -> None:
        """Re-materialise one shard's columns as responses, interning as we go."""
        values, scopes, refs, table = columns
        answers = self._decode_table(table)
        prefixes = self._prefixes.setdefault(subnet_len, {})
        prefix_get = prefixes.get
        for value in values:
            if prefix_get(value) is None:
                prefixes[value] = Prefix(4, value, subnet_len)
        out.extend(
            EcsResponse(prefixes[value], scope, *answers[ref])
            for value, scope, ref in zip(values, scopes, refs)
        )

    def _prefix(self, value: int, length: int) -> Prefix:
        """Re-materialise one shipped subnet, interned like responses."""
        prefixes = self._prefixes.setdefault(length, {})
        prefix = prefixes.get(value)
        if prefix is None:
            prefix = prefixes[value] = Prefix(4, value, length)
        return prefix

    def _address(self, version: int, value: int) -> IPAddress:
        key = (version, value)
        address = self._addresses.get(key)
        if address is None:
            address = IPAddress(version, value)
            self._addresses[key] = address
        return address

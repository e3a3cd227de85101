"""The scope-block answer cache — the server half of the scan fast path.

The ECS scanner sends millions of queries whose answers the server
itself declares valid for whole scope blocks ("scope /16" means every
/24 inside the /16 gets this answer).  This cache exploits exactly that
declaration: the first query of a block runs the zone's *planner*, which
performs the expensive pure derivation once (assignment lookup, relay
filtering, record-object construction) and hands back an
:class:`~repro.dns.zone.AnswerPlan`; the plan is stored keyed by
``(qname, rtype, scope-block)`` and every query — first or repeat —
calls ``plan.produce()``, which replays the per-query tail (the relay
service's answer rotation) exactly as the uncached handler would.  Scan
results are therefore *bit-identical* with the cache on or off, by
construction rather than by luck.  Switching it off (``enabled =
False``) also makes :meth:`ScopeAnswerCache.replay_program` refuse, so
the scanner runs its message-level reference path: the oracle the
kernel equivalence suites diff against.

Replay programs, the batch-replay kernel's input, are cached beside the
plans under the same token.  A program is a slice of the zone's answer
partition plus the current epoch's answer specs.  The relay zone's
partition belongs to its assignment map and is built once per map
version (:meth:`repro.relay.service.AssignmentMap.answer_partition`):
a deployment-epoch change leaves the map alone, so it drops the cached
programs but rebuilds only their specs, one per distinct answer.

Staleness is impossible by keying on the zone's epoch token
(:meth:`~repro.dns.zone.Zone.epoch_token`): zone content version plus
registered epoch sources such as relay-fleet deployment epochs, which in
turn advance with the shared :class:`~repro.simtime.SimClock`.  Any
token change — a relay activating or retiring mid-scan, a record added
between monthly scans — drops every cached plan.

Server query accounting is unaffected: the cache sits below the
:class:`~repro.dns.server.AuthoritativeServer` stats counters, which
increment once per query whether or not a plan was reused.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from repro.dns.name import DnsName
from repro.dns.rr import RRType
from repro.dns.zone import ANY_SUBNET, UNCACHED, LookupResult, Zone
from repro.netmodel.addr import Prefix
from repro.perfstats import CacheStats

class _NameEntry:
    """Cached plans for one (qname, rtype): per-block plus sentinels.

    Blocks are kept as disjoint integer intervals in start order per IP
    version, so the per-query probe is one bisect.  Should a planner ever
    store overlapping blocks (no current planner does — assignment units
    are disjoint and fallback blocks are checked against them), the entry
    migrates to a per-length dict layout that preserves most-specific-
    block-wins semantics.
    """

    __slots__ = ("any_plan", "no_subnet_plan", "starts", "ends", "plans", "by_length")

    def __init__(self) -> None:
        self.any_plan = None
        self.no_subnet_plan = None
        #: Per IP version: block starts / inclusive ends / plans, three
        #: parallel lists sorted by start.
        self.starts: dict[int, list[int]] = {4: [], 6: []}
        self.ends: dict[int, list[int]] = {4: [], 6: []}
        self.plans: dict[int, list[object]] = {4: [], 6: []}
        #: The overlap fallback: per IP version, [(block length, {masked
        #: value: plan})] most specific first.  None until first overlap.
        self.by_length: dict[int, list[tuple[int, dict[int, object]]]] | None = None


class ReplayProgram:
    """One answer program for a (qname, rtype, range, epoch).

    Flat columns over the range ``[lo, hi]``, covered contiguously in
    ascending address order:

    * ``row_starts`` / ``row_ends`` — ``array('I')`` span bounds
      (inclusive) per row;
    * ``row_answer`` — ``array('I')`` index into :attr:`answers` per row;
    * ``answers`` — the replay spec tuples the rows index (see
      :meth:`repro.relay.service._BlockAnswer.replay_spec`); thousands
      of rows share a few hundred specs.

    The relay zone's enumerator hands over a slice of its assignment
    map's answer partition, whose contiguity was checked when the
    partition was built, so construction only checks what is O(1): the
    endpoints and equal column lengths.  The scan kernel links the
    answer specs against its settings once and then replays the program
    with a monotone row pointer.
    """

    __slots__ = ("lo", "hi", "row_starts", "row_ends", "row_answer", "answers")

    def __init__(
        self,
        lo: int,
        hi: int,
        row_starts: array,
        row_ends: array,
        row_answer: array,
        answers: list,
    ) -> None:
        if not (
            lo <= hi
            and row_starts
            and len(row_starts) == len(row_ends) == len(row_answer)
            and row_starts[0] == lo
            and row_ends[-1] == hi
        ):
            raise ValueError(f"replay rows must cover [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.row_starts = row_starts
        self.row_ends = row_ends
        self.row_answer = row_answer
        self.answers = answers

    def __len__(self) -> int:
        return len(self.row_ends)


class ScopeAnswerCache:
    """Caches answer plans per (qname, rtype, scope-block, epoch)."""

    def __init__(self) -> None:
        self.enabled = True
        self.stats = CacheStats()
        # Hoisted counter objects: stats fields are properties now, and
        # this lookup runs per query.  reset() mutates these in place,
        # so the references stay live.
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._invalidations = self.stats.counter("invalidations")
        self._token: tuple | None = None
        self._entries: dict[tuple[DnsName, RRType], _NameEntry] = {}
        #: Compiled replay programs, keyed (qname, rtype, lo, hi); same
        #: epoch scoping as the plan entries (any token change clears).
        self._programs: dict[tuple[DnsName, RRType, int, int], ReplayProgram] = {}

    def _invalidate(self) -> None:
        """Drop plans and programs together (one invalidation count)."""
        if self._entries or self._programs:
            self._entries.clear()
            self._programs.clear()
            self._invalidations.value += 1

    def replay_program(
        self, zone: Zone, name: DnsName, rtype: RRType, lo: int, hi: int
    ) -> ReplayProgram | None:
        """The replay program for a scan range, or None if unsupported.

        Built from the zone's registered replay enumerator
        (:meth:`~repro.dns.zone.Zone.replay_enumerator`) on first use per
        epoch and cached under the same token discipline as answer
        plans.  Building one counts neither hits nor misses — per
        partition-invariance, program-served queries are accounted as
        cache hits by the kernel (:meth:`record_program_hits`), keeping
        ``hits + misses`` equal to the query count for any worker split.
        """
        if not self.enabled:
            return None
        token = zone.epoch_token()
        if token != self._token:
            self._invalidate()
            self._token = token
        key = (name, rtype, lo, hi)
        program = self._programs.get(key)
        if program is not None:
            return program
        enumerator = zone.replay_enumerator(name, rtype)
        if enumerator is None:
            return None
        enumerated = enumerator(lo, hi)
        if enumerated is None:
            return None
        program = ReplayProgram(lo, hi, *enumerated)
        self._programs[key] = program
        return program

    def record_program_hits(self, count: int) -> None:
        """Account ``count`` program-served queries as cache hits."""
        self._hits.value += count

    def lookup(
        self,
        zone: Zone,
        name: DnsName,
        rtype: RRType,
        subnet: Prefix | None,
    ) -> LookupResult:
        """Resolve via cached plan, planning on miss.

        Falls back to ``zone.lookup`` (uncached, exact) when the zone
        declines to plan the answer.
        """
        token = zone.epoch_token()
        if token != self._token:
            self._invalidate()
            self._token = token
        entry = self._entries.get((name, rtype))
        if entry is not None:
            plan = self._probe(entry, subnet)
            if plan is not None:
                self._hits.value += 1
                return plan.produce()
        self._misses.value += 1
        planned = zone.lookup_plan(name, rtype, subnet)
        if planned is None:
            return zone.lookup(name, rtype, subnet)
        block, plan = planned
        if block is not UNCACHED:
            self._store(name, rtype, block, plan)
        return plan.produce()

    def _probe(self, entry: _NameEntry, subnet: Prefix | None):
        if entry.any_plan is not None:
            return entry.any_plan
        if subnet is None:
            return entry.no_subnet_plan
        if entry.by_length is not None:
            return self._probe_mixed(entry, subnet)
        version = subnet.version
        starts = entry.starts[version]
        if not starts:
            return None
        value = subnet.value
        pos = bisect_right(starts, value) - 1
        if pos < 0:
            return None
        # The block must contain the whole subnet, not just its start
        # (a stored block more specific than the query does not apply).
        subnet_end = value + (1 << (subnet.bits - subnet.length)) - 1
        if entry.ends[version][pos] >= subnet_end:
            return entry.plans[version][pos]
        return None

    def _probe_mixed(self, entry: _NameEntry, subnet: Prefix):
        pairs = entry.by_length[subnet.version]
        value, bits, max_length = subnet.value, subnet.bits, subnet.length
        for length, blocks in pairs:
            if length > max_length:
                continue
            plan = blocks.get(value >> (bits - length) << (bits - length))
            if plan is not None:
                return plan
        return None

    def _store(self, name, rtype, block, plan) -> None:
        entry = self._entries.get((name, rtype))
        if entry is None:
            entry = self._entries[(name, rtype)] = _NameEntry()
        if block is ANY_SUBNET:
            entry.any_plan = plan
        elif block is None:
            entry.no_subnet_plan = plan
        else:
            assert isinstance(block, Prefix)
            if entry.by_length is not None:
                self._store_mixed(entry, block, plan)
                return
            version = block.version
            starts = entry.starts[version]
            start = block.value
            end = start + (1 << (block.bits - block.length)) - 1
            pos = bisect_right(starts, start)
            if (pos > 0 and entry.ends[version][pos - 1] >= start) or (
                pos < len(starts) and starts[pos] <= end
            ):
                self._migrate_to_mixed(entry)
                self._store_mixed(entry, block, plan)
                return
            starts.insert(pos, start)
            entry.ends[version].insert(pos, end)
            entry.plans[version].insert(pos, plan)

    def _migrate_to_mixed(self, entry: _NameEntry) -> None:
        entry.by_length = {4: [], 6: []}
        for version, bits in ((4, 32), (6, 128)):
            starts = entry.starts[version]
            ends = entry.ends[version]
            plans = entry.plans[version]
            for start, end, plan in zip(starts, ends, plans):
                length = bits - (end - start + 1).bit_length() + 1
                self._store_mixed_one(entry, version, length, start, plan)
            starts.clear()
            ends.clear()
            plans.clear()

    def _store_mixed(self, entry: _NameEntry, block: Prefix, plan) -> None:
        self._store_mixed_one(entry, block.version, block.length, block.value, plan)

    def _store_mixed_one(self, entry, version, length, value, plan) -> None:
        pairs = entry.by_length[version]
        for pair_length, blocks in pairs:
            if pair_length == length:
                blocks[value] = plan
                break
        else:
            pairs.append((length, {value: plan}))
            pairs.sort(key=lambda pair: pair[0], reverse=True)

    def clear(self) -> None:
        """Drop every cached plan and program (counts as an invalidation)."""
        self._invalidate()
        self._token = None

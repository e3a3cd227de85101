"""The per-epoch answer cache — the server half of every DNS lookup.

The ECS scanner and the Atlas and relay-client resolvers send queries
whose answers the server itself declares valid for whole scope blocks
("scope /16" means every /24 inside the /16 gets this answer).  A relay
name registers an *answer table* with its zone
(:meth:`~repro.dns.zone.Zone.answer_table`): its assignment map's v4
answer partition (:class:`repro.relay.service.AnswerPartition`) plus the
current epoch's answer per roster entry.  The cache fetches the table
once per epoch, and a query with an IPv4 client subnet bisects the row
starts on the subnet's integer value and calls the row's
``answer.produce()``, which replays the per-query tail (the relay
service's answer rotation) exactly as the zone's handler would.
Nothing is planned or stored per block.  Static records, NODATA and
NXDOMAIN keep one constant per (qname, rtype)
(:meth:`~repro.dns.zone.Zone.static_result`).  Everything else — a
dynamic name without a table, a nested assignment map, a query without
an IPv4 subnet, a CNAME chase — is derived per query by the zone's
handler.  Results are therefore *bit-identical* with the cache on or
off, by construction.  Switching it off (``enabled = False``) also
makes :meth:`ScopeAnswerCache.replay_program` refuse, so the scanner
runs its message-level reference path: the oracle the kernel
equivalence suites diff against.

Replay programs, the batch-replay kernel's input, are cached beside the
tables under the same token.  A program is a slice of the same answer
partition plus the current epoch's answer specs.  The partition belongs
to the assignment map and is built once per map version
(:meth:`repro.relay.service.AssignmentMap.answer_partition`): a
deployment-epoch change leaves the map alone, so it drops the cached
tables and programs but rebuilds only their answers, one per roster
entry.

Staleness is impossible by keying on the zone's epoch token
(:meth:`~repro.dns.zone.Zone.epoch_token`): zone content version plus
registered epoch sources such as relay-fleet deployment epochs, which in
turn advance with the shared :class:`~repro.simtime.SimClock`.  Any
token change — a relay activating or retiring mid-scan, a record added
between monthly scans — drops every cached entry.

Accounting: a query answered from an entry already cached in the epoch
counts as a hit; the query that fetches the entry, and every query the
handler derives, counts as a miss, so ``hits + misses`` is the query
count.  Server query accounting is unaffected: the cache sits below the
:class:`~repro.dns.server.AuthoritativeServer` stats counters, which
increment once per query however it was answered.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from repro.dns.name import DnsName
from repro.dns.rr import RRType
from repro.dns.zone import LookupResult, Zone
from repro.netmodel.addr import Prefix
from repro.perfstats import CacheStats

#: Entry marker: (qname, rtype) is derived by the zone's handler per query.
_DERIVED = None

#: ``dict.get`` default: no entry fetched yet in this epoch.
_UNFETCHED = object()


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
    """Caches answer tables, static answers and replay programs per epoch."""

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
        #: Per (qname, rtype): the answer table as ``(row starts, row
        #: answer index, answers)``, a constant :class:`LookupResult`, or
        #: :data:`_DERIVED`.
        self._entries: dict[tuple[DnsName, RRType], object] = {}
        #: Compiled replay programs, keyed (qname, rtype, lo, hi); same
        #: epoch scoping as the entries (any token change clears).
        self._programs: dict[tuple[DnsName, RRType, int, int], ReplayProgram] = {}

    def _invalidate(self) -> None:
        """Drop entries and programs together (one invalidation count)."""
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
        epoch and cached under the same token discipline as the answer
        tables.  Building one counts neither hits nor misses — per
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
        """One query's answer: from the epoch's table or constant, else derived.

        An IPv4 subnet on a tabulated name takes its partition row's
        answer; a static name its constant.  Anything else falls back
        to ``zone.lookup`` (uncached, exact).
        """
        token = zone.epoch_token()
        if token != self._token:
            self._invalidate()
            self._token = token
        key = (name, rtype)
        entry = self._entries.get(key, _UNFETCHED)
        if entry is _UNFETCHED:
            entry = self._entries[key] = self._fetch(zone, name, rtype)
            counter = self._misses
        else:
            counter = self._hits
        if entry.__class__ is tuple:
            if subnet is not None and subnet.version == 4:
                counter.value += 1
                starts, index, answers = entry
                return answers[index[bisect_right(starts, subnet.value) - 1]].produce()
        elif entry is not _DERIVED:
            counter.value += 1
            return entry
        self._misses.value += 1
        return zone.lookup(name, rtype, subnet)

    @staticmethod
    def _fetch(zone: Zone, name: DnsName, rtype: RRType) -> object:
        """The epoch's entry for (name, rtype); see :attr:`_entries`."""
        table = zone.answer_table(name, rtype)
        if table is not None:
            partition, answers = table
            return partition.starts, partition.roster_index, answers
        result = zone.static_result(name, rtype)
        return _DERIVED if result is None else result

    def clear(self) -> None:
        """Drop every cached entry and program (counts as an invalidation)."""
        self._invalidate()
        self._token = None

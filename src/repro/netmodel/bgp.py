"""BGP announcements, the global routing table, and visibility history.

Three consumers drive this module's shape:

* The ECS scanner prunes address space not seen as routable by the local
  BGP feed (the paper's ethics measure), so it needs an efficient
  "is this /24 covered by any announced prefix" test and iteration over
  routed prefixes.
* Table 1/Table 3 attribute addresses and egress subnets to the BGP
  prefixes covering them, so longest-prefix match by origin AS is needed.
* Section 6 examines the *monthly* BGP visibility of AS36183 from 2016
  through 2022 and finds its first occurrence in June 2021, so a monthly
  snapshot history keyed by calendar month is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import AddressError, RoutingError
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.prefix_trie import DualStackTrie
from repro.perfstats import CacheStats
from repro.simtime import format_month, month_index

#: Memo-probe sentinel: a cached route may itself be None (unrouted).
_MISSING = object()


@dataclass(frozen=True, slots=True)
class Announcement:
    """A BGP origination: one prefix announced by one origin AS."""

    prefix: Prefix
    origin_asn: int

    def __str__(self) -> str:
        return f"{self.prefix} via AS{self.origin_asn}"


class RoutingTable:
    """A snapshot of the global (DFZ-style) routing table.

    Stores one origin per prefix — MOAS conflicts are rejected, which is
    accurate enough for the single-feed viewpoint the paper's scanner has.
    """

    def __init__(self) -> None:
        self._trie: DualStackTrie[Announcement] = DualStackTrie()
        self._by_origin: dict[int, list[Announcement]] = {}
        # Per-address route memo: the ECS scanner attributes every answer
        # through origin_of(), and answers repeat the same few hundred
        # relay addresses millions of times.  One dict per IP version,
        # keyed by the address value (no key object per probe), next to
        # that version's LPM probe.  Invalidated wholesale on any
        # announce/withdraw.
        self._route_memo: dict[int, tuple[dict[int, Announcement | None], Callable]] = {
            version: ({}, self._trie.family(version).best_value) for version in (4, 6)
        }
        self.origin_stats = CacheStats()
        # The live counters behind origin_stats, bumped directly per probe.
        self._memo_hits = self.origin_stats.counter("hits")
        self._memo_misses = self.origin_stats.counter("misses")
        #: Bumped on every announce/withdraw; consumers (the scanner's
        #: routed-span cache) key derived data on it.
        self.version = 0

    def __len__(self) -> int:
        return len(self._trie)

    def _invalidate_memo(self) -> None:
        memos = [memo for memo, _ in self._route_memo.values() if memo]
        for memo in memos:
            memo.clear()
        if memos:
            self.origin_stats.invalidations += 1

    def announce(self, prefix: Prefix, origin_asn: int) -> Announcement:
        """Add an origination to the table."""
        existing = self._trie.exact(prefix)
        if existing is not None:
            if existing.origin_asn == origin_asn:
                return existing
            raise RoutingError(
                f"{prefix} already announced by AS{existing.origin_asn}, "
                f"refusing conflicting origin AS{origin_asn}"
            )
        ann = Announcement(prefix, origin_asn)
        self._trie.insert(prefix, ann)
        self._by_origin.setdefault(origin_asn, []).append(ann)
        self._invalidate_memo()
        self.version += 1
        return ann

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove a prefix from the table; returns whether it was present."""
        ann = self._trie.exact(prefix)
        if ann is None:
            return False
        self._trie.remove(prefix)
        self._by_origin[ann.origin_asn].remove(ann)
        self._invalidate_memo()
        self.version += 1
        return True

    def lookup_value(self, version: int, value: int) -> Announcement | None:
        """Longest-prefix-match route for a packed address (``version``,
        integer ``value``), or None — memoised, and builds no address."""
        family = self._route_memo.get(version)
        if family is None:
            raise AddressError(f"IP version must be 4 or 6, got {version}")
        memo, best_value = family
        ann = memo.get(value, _MISSING)
        if ann is not _MISSING:
            self._memo_hits.value += 1
            return ann  # type: ignore[return-value]
        self._memo_misses.value += 1
        # The announcement carries its own prefix: ask for the value only.
        ann = memo[value] = best_value(value)
        return ann

    def lookup(self, address: IPAddress) -> Announcement | None:
        """Longest-prefix-match route for an address, or None (memoised)."""
        return self.lookup_value(address.version, address.value)

    def origin_of(self, address: IPAddress) -> int | None:
        """Origin AS number for an address, or None if unrouted."""
        ann = self.lookup_value(address.version, address.value)
        return ann.origin_asn if ann else None

    def covering_route(self, prefix: Prefix) -> Announcement | None:
        """The announcement covering the entire ``prefix``, or None."""
        return self._trie.covering_value(prefix)

    def routed_prefix_of(self, address: IPAddress) -> Prefix | None:
        """The announced prefix that routes ``address``, or None."""
        ann = self.lookup(address)
        return ann.prefix if ann else None

    def is_routed(self, address: IPAddress) -> bool:
        """Whether any announced prefix covers the address."""
        return self.lookup(address) is not None

    def announcements(self) -> Iterator[Announcement]:
        """Iterate all announcements (both IP versions)."""
        for _prefix, ann in self._trie.items():
            yield ann

    def prefixes_by_origin(self, origin_asn: int, version: int | None = None) -> list[Prefix]:
        """Prefixes announced by one AS, optionally filtered by version."""
        anns = self._by_origin.get(origin_asn, [])
        return [
            a.prefix for a in anns if version is None or a.prefix.version == version
        ]

    def origins(self) -> set[int]:
        """All origin AS numbers present in the table."""
        return {asn for asn, anns in self._by_origin.items() if anns}

    def routed_v4_prefixes(self) -> list[Prefix]:
        """All announced IPv4 prefixes — the scanner's iteration universe."""
        return [ann.prefix for ann in self.announcements() if ann.prefix.version == 4]


class BgpHistory:
    """Monthly BGP visibility snapshots.

    The paper examined the visibility of AS36183 "monthly from 2016 to
    2022" and found the first occurrence in June 2021.  This class records,
    per calendar month, the set of origin ASes visible (and optionally the
    full table), and answers first-occurrence queries.
    """

    def __init__(self) -> None:
        self._months: dict[int, frozenset[int]] = {}
        self._tables: dict[int, RoutingTable] = {}

    def record(self, year: int, month: int, table: RoutingTable, keep_table: bool = False) -> None:
        """Record the snapshot for a calendar month."""
        idx = month_index(year, month)
        self._months[idx] = frozenset(table.origins())
        if keep_table:
            self._tables[idx] = table

    def record_origins(self, year: int, month: int, origins) -> None:
        """Record only the visible-origin set for a month (compact form).

        Passing the same ``frozenset`` for many months shares storage —
        worldgen records 77 monthly snapshots of ~70 k origins this way.
        """
        self._months[month_index(year, month)] = frozenset(origins)

    def months(self) -> list[tuple[int, int]]:
        """All recorded (year, month) pairs in chronological order."""
        from repro.simtime import EPOCH_MONTH, EPOCH_YEAR

        out = []
        for idx in sorted(self._months):
            year, month0 = divmod(idx + (EPOCH_MONTH - 1), 12)
            out.append((EPOCH_YEAR + year, month0 + 1))
        return out

    def visible_in(self, year: int, month: int) -> set[int]:
        """Origin ASes visible in the given month (empty if unrecorded)."""
        return set(self._months.get(month_index(year, month), set()))

    def first_occurrence(self, asn: int) -> tuple[int, int] | None:
        """First recorded month in which ``asn`` was visible, or None."""
        for year, month in self.months():
            if asn in self._months[month_index(year, month)]:
                return year, month
        return None

    def table_for(self, year: int, month: int) -> RoutingTable | None:
        """The full routing table kept for a month, if recorded with one."""
        return self._tables.get(month_index(year, month))

    def visibility_series(self, asn: int) -> list[tuple[str, bool]]:
        """Per-month visibility of one AS, as (``YYYY-MM``, visible) pairs."""
        return [
            (format_month(year, month), asn in self._months[month_index(year, month)])
            for year, month in self.months()
        ]

"""Apple's published egress IP range list.

Apple publishes ``egress-ip-ranges.csv`` "for geolocation and
allow-listing": one row per egress subnet with the country code, region
and city the subnet *represents* (the client's assumed location — not
necessarily the relay node's physical location, as the paper shows).
At the paper's snapshot (2022-05-11) the list held ~238 k subnets, 1.6 %
of them with the city left blank.

CSV schema (matching the published file):

    prefix,country_code,region,city

e.g. ``172.224.224.0/31,US,US-CA,LOSANGELES`` — the city column may be
empty.  IPv6 rows always use a /64 mask.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import AddressError, EgressListError
from repro.netmodel.addr import Prefix
from repro.netmodel.prefix_trie import DualStackTrie

if TYPE_CHECKING:
    from repro.netmodel.bgp import Announcement, RoutingTable


@dataclass(frozen=True, slots=True)
class EgressEntry:
    """One egress subnet with its represented location."""

    prefix: Prefix
    country_code: str
    region: str
    city: str  # empty string when the location is intentionally blank

    def __post_init__(self) -> None:
        if len(self.country_code) != 2 or not self.country_code.isupper():
            raise EgressListError(
                f"country code must be two uppercase letters, got {self.country_code!r}"
            )
        if self.prefix.version == 6 and self.prefix.length != 64:
            raise EgressListError(
                f"IPv6 egress subnets use /64 masks, got /{self.prefix.length}"
            )

    @property
    def has_city(self) -> bool:
        """Whether the entry carries a city (blank ~1.6 % of the time)."""
        return bool(self.city)

    def to_csv_row(self) -> list[str]:
        """The entry as a CSV row."""
        return [str(self.prefix), self.country_code, self.region, self.city]


class EgressList:
    """The parsed egress range list with indexed queries.

    The prefix index behind the point queries is built lazily on first
    use: worldgen constructs lists of ~100 k entries (twice — the May
    and January snapshots) and many consumers only ever iterate or
    aggregate them, so indexing every entry up front would be wasted
    world-build time.  Duplicate detection uses a plain prefix set so
    ``add`` stays O(1).

    The BGP attribution behind the egress tables (:meth:`attributed`) is
    likewise computed once per routing-table state and shared by every
    table that reads it.
    """

    def __init__(self, entries: Iterable[EgressEntry] = ()) -> None:
        self._entries: list[EgressEntry] = []
        self._prefixes: set[Prefix] = set()
        self._trie: DualStackTrie[EgressEntry] | None = None
        # (routing table, its version, attributed pairs) of the last
        # attributed() call; None until the first, and after any add().
        self._attributed: tuple[RoutingTable, int, tuple] | None = None
        for entry in entries:
            self.add(entry)

    def add(self, entry: EgressEntry) -> None:
        """Append an entry; duplicate prefixes are an error."""
        if entry.prefix in self._prefixes:
            raise EgressListError(f"duplicate egress prefix {entry.prefix}")
        self._entries.append(entry)
        self._prefixes.add(entry.prefix)
        self._attributed = None
        if self._trie is not None:
            self._trie.insert(entry.prefix, entry)

    def _index(self) -> DualStackTrie[EgressEntry]:
        """The lookup trie, built on first touch."""
        trie = self._trie
        if trie is None:
            trie = DualStackTrie()
            for entry in self._entries:
                trie.insert(entry.prefix, entry)
            self._trie = trie
        return trie

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[EgressEntry]:
        return iter(self._entries)

    def entries(self, version: int | None = None) -> list[EgressEntry]:
        """All entries, optionally filtered by IP version."""
        if version is None:
            return list(self._entries)
        return [e for e in self._entries if e.prefix.version == version]

    def lookup(self, prefix: Prefix) -> EgressEntry | None:
        """The entry covering ``prefix`` exactly or as a supernet."""
        return self._index().covering_value(prefix)

    def covering_value_of(
        self, version: int, network: int, length: int
    ) -> EgressEntry | None:
        """:meth:`lookup` for a prefix given as its integer network value
        and length; builds no :class:`Prefix`."""
        return self._index().covering_value_of(version, network, length)

    def contains_address(self, address) -> bool:
        """Whether an address falls in any listed egress subnet."""
        return self._index().best_value(address) is not None

    def entry_for_address(self, address) -> EgressEntry | None:
        """The entry covering an address, or None."""
        return self._index().best_value(address)

    # ------------------------------------------------------------------
    # Aggregations used by Tables 3/4 and Figures 2/4/5
    # ------------------------------------------------------------------

    def attributed(
        self, routing: RoutingTable
    ) -> tuple[tuple[EgressEntry, Announcement], ...]:
        """``(entry, route)`` for every entry BGP routes, in list order.

        The route is the longest-prefix match of the subnet's network
        address — the attribution every §4.2 table and the §6 overlap
        share.  Computed once per (routing table, ``routing.version``);
        :meth:`add` and any announce/withdraw make it stale.
        """
        cached = self._attributed
        if cached is not None and cached[0] is routing and cached[1] == routing.version:
            return cached[2]
        lookup = routing.lookup_value
        pairs = []
        append = pairs.append
        for entry in self._entries:
            prefix = entry.prefix
            ann = lookup(prefix.version, prefix.value)
            if ann is not None:
                append((entry, ann))
        out = tuple(pairs)
        self._attributed = (routing, routing.version, out)
        return out

    def country_codes(self, version: int | None = None) -> set[str]:
        """Distinct country codes across entries."""
        return {e.country_code for e in self.entries(version)}

    def cities(self, version: int | None = None) -> set[tuple[str, str]]:
        """Distinct (country, city) pairs across entries with a city."""
        return {
            (e.country_code, e.city) for e in self.entries(version) if e.has_city
        }

    def subnets_per_country(self, version: int | None = None) -> dict[str, int]:
        """Entry count per country code."""
        counts: dict[str, int] = {}
        for entry in self.entries(version):
            counts[entry.country_code] = counts.get(entry.country_code, 0) + 1
        return counts

    def missing_city_fraction(self) -> float:
        """Fraction of entries with a blank city."""
        if not self._entries:
            return 0.0
        blank = sum(1 for e in self._entries if not e.has_city)
        return blank / len(self._entries)

    def total_ipv4_addresses(self) -> int:
        """Summed address count of all IPv4 subnets (Table 3 'IP Addr.')."""
        return sum(
            e.prefix.num_addresses() for e in self._entries if e.prefix.version == 4
        )

    def churn_against(self, other: "EgressList") -> tuple[int, int, int]:
        """(kept, added, removed) prefix counts of ``self`` vs an older list."""
        mine = {e.prefix for e in self._entries}
        theirs = {e.prefix for e in other._entries}
        return len(mine & theirs), len(mine - theirs), len(theirs - mine)

    # ------------------------------------------------------------------
    # CSV round trip
    # ------------------------------------------------------------------

    def to_csv(self) -> str:
        """Serialise in the published CSV format (no header row)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for entry in self._entries:
            writer.writerow(entry.to_csv_row())
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EgressList":
        """Parse the published CSV format."""
        entries = []
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise EgressListError(
                    f"line {lineno}: expected 4 columns, got {len(row)}"
                )
            prefix_text, country, region, city = (column.strip() for column in row)
            try:
                prefix = Prefix.parse(prefix_text)
            except AddressError as exc:
                raise EgressListError(f"line {lineno}: {exc}") from exc
            entries.append(EgressEntry(prefix, country, region, city))
        return cls(entries)

"""MaxMind-GeoLite2-style geolocation database.

The paper queried MaxMind for the egress addresses and found the database
had *adopted Apple's published egress mapping* for most subnets — i.e. a
commercial geo DB reflects the represented client location, not the relay
node's physical location.  :class:`GeoDatabase` reproduces that: it is a
prefix→record store that worldgen seeds mostly from the egress list (with
a small fraction of divergent records) plus generic records for client
space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.geo import GeoPoint
from repro.netmodel.prefix_trie import DualStackTrie


@dataclass(frozen=True, slots=True)
class GeoRecord:
    """One geolocation record: country, optional city, coordinates."""

    country: str
    city: str | None
    location: GeoPoint | None
    #: Where the record came from: "egress-list" when the DB vendor adopted
    #: the published Apple mapping, "vendor" for independently derived data.
    source: str = "vendor"


class GeoDatabase:
    """Longest-prefix-match geolocation lookups over both IP versions.

    Inserts are buffered and the trie is built on first lookup: worldgen
    seeds tens of thousands of records that analysis code may never
    query, and buffered inserts replay in ``add`` order so later records
    replace earlier ones exactly as direct inserts would.
    """

    def __init__(self) -> None:
        self._pending: list[tuple[Prefix, GeoRecord]] = []
        self._trie: DualStackTrie[GeoRecord] | None = None

    def _index(self) -> DualStackTrie[GeoRecord]:
        trie = self._trie
        if trie is None:
            trie = DualStackTrie()
            for prefix, record in self._pending:
                trie.insert(prefix, record)
            self._trie = trie
            self._pending.clear()
        return trie

    def __len__(self) -> int:
        return len(self._index())

    def add(self, prefix: Prefix, record: GeoRecord) -> None:
        """Insert or replace the record for a prefix."""
        if self._trie is None:
            self._pending.append((prefix, record))
        else:
            self._trie.insert(prefix, record)

    def lookup(self, address: IPAddress) -> GeoRecord | None:
        """The most specific record covering ``address``, or None."""
        return self._index().best_value(address)

    def lookup_prefix(self, prefix: Prefix) -> GeoRecord | None:
        """The record covering the whole prefix, or None."""
        return self._index().covering_value(prefix)

    def packed_records(self) -> Iterator[tuple[int, int, int, GeoRecord]]:
        """(version, network value, length, record) for every stored
        prefix, unsorted; builds no :class:`Prefix`."""
        return self._index().packed_items()

    def adoption_rate(self) -> float:
        """Fraction of records sourced from the published egress list.

        The paper's finding was that MaxMind "adapted the Apple egress
        mapping for most subnets"; worldgen seeds this database so that the
        rate is high, and the analysis layer reports it.
        """
        sources = [record.source for *_key, record in self.packed_records()]
        if not sources:
            return 0.0
        return sources.count("egress-list") / len(sources)

"""Longest-prefix-match index over IP prefixes.

Used for BGP routing-table lookups, geolocation-database lookups, and
egress-list membership tests.  One index instance handles a single IP
version; :class:`DualStackTrie` bundles one of each.

The index keeps one dict per stored prefix length, keyed by the prefix's
top ``length`` bits.  A lookup probes the stored lengths longest first
and stops at the first hit, so it costs one shift and one dict probe per
distinct length (a generated BGP table holds 14 IPv4 and 3 IPv6
lengths) instead of one step per address bit.  Inserts and removes are
a single dict write — worldgen inserts hundreds of thousands of
prefixes.  :meth:`items` sorts by (left-aligned value, length), which is
the preorder a binary trie over the same prefixes would walk.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from repro.errors import AddressError
from repro.netmodel.addr import IPAddress, Prefix

V = TypeVar("V")

#: Dict-probe sentinel: stored values may themselves be None.
_MISSING = object()


class PrefixTrie(Generic[V]):
    """Maps prefixes of a single IP version to values, with LPM lookup."""

    def __init__(self, version: int) -> None:
        if version not in (4, 6):
            raise AddressError(f"IP version must be 4 or 6, got {version}")
        self.version = version
        self._bits = 32 if version == 4 else 128
        # length -> {prefix value >> (bits - length): stored value}.  Only
        # non-empty tables are kept.
        self._tables: dict[int, dict[int, V]] = {}
        # (length, shift, table) per stored length, longest first: the
        # lookup probe order, rebuilt whenever a length appears or empties.
        self._probes: list[tuple[int, int, dict[int, V]]] = []

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def _check(self, prefix: Prefix) -> None:
        if prefix.version != self.version:
            raise AddressError(
                f"IPv{prefix.version} prefix in IPv{self.version} trie"
            )

    def _reprobe(self) -> None:
        bits = self._bits
        self._probes = [
            (length, bits - length, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        ]

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        self._check(prefix)
        length = prefix.length
        table = self._tables.get(length)
        if table is None:
            table = self._tables[length] = {}
            self._reprobe()
        table[prefix.value >> (self._bits - length)] = value

    def remove(self, prefix: Prefix) -> bool:
        """Remove the exact prefix; returns whether it was present."""
        self._check(prefix)
        table = self._tables.get(prefix.length)
        key = prefix.value >> (self._bits - prefix.length)
        if table is None or key not in table:
            return False
        del table[key]
        if not table:
            del self._tables[prefix.length]
            self._reprobe()
        return True

    def exact(self, prefix: Prefix) -> V | None:
        """The value stored exactly at ``prefix``, or None."""
        self._check(prefix)
        table = self._tables.get(prefix.length)
        if table is None:
            return None
        return table.get(prefix.value >> (self._bits - prefix.length))

    def _best_match(self, key: int, max_length: int) -> tuple[int, V] | None:
        """Longest stored (length, value) along ``key``'s first ``max_length`` bits."""
        for length, shift, table in self._probes:
            if length <= max_length:
                hit = table.get(key >> shift, _MISSING)
                if hit is not _MISSING:
                    return length, hit  # type: ignore[return-value]
        return None

    def best_value(self, address_value: int) -> V | None:
        """The value of the longest-prefix match for an integer address
        value, or None — :meth:`lookup_value` without building the
        matched :class:`Prefix`."""
        for _length, shift, table in self._probes:
            hit = table.get(address_value >> shift, _MISSING)
            if hit is not _MISSING:
                return hit  # type: ignore[return-value]
        return None

    def lookup_value(self, address_value: int) -> tuple[Prefix, V] | None:
        """Longest-prefix match for an integer address value."""
        best = self._best_match(address_value, self._bits)
        if best is None:
            return None
        length, value = best
        prefix = Prefix.from_address(IPAddress(self.version, address_value), length)
        return prefix, value

    def lookup(self, address: IPAddress) -> tuple[Prefix, V] | None:
        """Longest-prefix match for an :class:`IPAddress`."""
        if address.version != self.version:
            raise AddressError(
                f"IPv{address.version} address in IPv{self.version} trie"
            )
        return self.lookup_value(address.value)

    def covering(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """The longest stored prefix that covers all of ``prefix``.

        Matches only entries whose length is <= ``prefix.length`` — i.e. the
        route that would carry traffic for the whole block.
        """
        self._check(prefix)
        best = self._best_match(prefix.value, prefix.length)
        if best is None:
            return None
        length, value = best
        return prefix.truncate(length), value

    def covering_value(self, prefix: Prefix) -> V | None:
        """The value :meth:`covering` would return, without building the
        matched :class:`Prefix`."""
        self._check(prefix)
        return self.covering_value_of(prefix.value, prefix.length)

    def covering_value_of(self, network: int, length: int) -> V | None:
        """:meth:`covering_value` for a prefix given as its integer
        network value and length (as :meth:`packed_items` yields it)."""
        best = self._best_match(network, length)
        return None if best is None else best[1]

    def covering_key(self, prefix: Prefix) -> int | None:
        """The prefix :meth:`covering` would return, packed as
        ``network << 8 | length`` (the :meth:`items` sort key), or None.
        Builds no :class:`Prefix`."""
        self._check(prefix)
        best = self._best_match(prefix.value, prefix.length)
        if best is None:
            return None
        length = best[0]
        shift = self._bits - length
        return (prefix.value >> shift << shift << 8) | length

    def packed_items(self) -> Iterator[tuple[int, int, V]]:
        """All (network value, length, value) triples, longest length
        first — :meth:`items` without its sort or a :class:`Prefix` per
        entry, for walks that do not need preorder."""
        for length, shift, table in self._probes:
            for key, value in table.items():
                yield key << shift, length, value

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Iterate all (prefix, value) pairs in preorder."""
        # Sort one plain int per entry, network << 8 | length, rather than
        # (network, length) tuples: same order, but no GC-tracked object
        # per entry, so a full-table walk does not set off collections.
        order = sorted(
            (key << shift << 8) | length
            for length, shift, table in self._probes
            for key in table
        )
        tables, bits, version = self._tables, self._bits, self.version
        for packed in order:
            length = packed & 0xFF
            network = packed >> 8
            yield (
                Prefix(version, network, length),
                tables[length][network >> (bits - length)],
            )


class DualStackTrie(Generic[V]):
    """A pair of tries, one per IP version, with a unified interface."""

    def __init__(self) -> None:
        self._tries = {4: PrefixTrie[V](4), 6: PrefixTrie[V](6)}

    def __len__(self) -> int:
        return len(self._tries[4]) + len(self._tries[6])

    def family(self, version: int) -> PrefixTrie[V]:
        """The single-version trie holding IPv``version`` prefixes."""
        trie = self._tries.get(version)
        if trie is None:
            raise AddressError(f"IP version must be 4 or 6, got {version}")
        return trie

    def insert(self, prefix: Prefix, value: V) -> None:
        self._tries[prefix.version].insert(prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        return self._tries[prefix.version].remove(prefix)

    def exact(self, prefix: Prefix) -> V | None:
        return self._tries[prefix.version].exact(prefix)

    def lookup(self, address: IPAddress) -> tuple[Prefix, V] | None:
        return self._tries[address.version].lookup(address)

    def best_value(self, address: IPAddress) -> V | None:
        return self._tries[address.version].best_value(address.value)

    def covering(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        return self._tries[prefix.version].covering(prefix)

    def covering_value(self, prefix: Prefix) -> V | None:
        return self._tries[prefix.version].covering_value(prefix)

    def covering_value_of(self, version: int, network: int, length: int) -> V | None:
        return self.family(version).covering_value_of(network, length)

    def covering_key(self, prefix: Prefix) -> int | None:
        return self._tries[prefix.version].covering_key(prefix)

    def packed_items(self) -> Iterator[tuple[int, int, int, V]]:
        """(version, network value, length, value) for every entry, IPv4
        first; see :meth:`PrefixTrie.packed_items`."""
        for version in (4, 6):
            for network, length, value in self._tries[version].packed_items():
                yield version, network, length, value

    def items(self) -> Iterator[tuple[Prefix, V]]:
        yield from self._tries[4].items()
        yield from self._tries[6].items()

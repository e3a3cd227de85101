"""Columnar scan results: packed response columns plus answer tables.

The batch-replay kernel (``ecs_scanner._run_program``) and the sharded
merge both produce answers as flat columns instead of one
:class:`~repro.scan.ecs_scanner.EcsResponse` object per query:

* ``values`` — ``array('I')`` of subnet network values,
* ``scopes`` — ``array('B')`` of declared ECS scopes,
* ``refs``   — ``array('I')`` of indices into a distinct-answer table,
* ``table``  — ``list`` of ``(address tuple, answer AS)`` entries, one
  per *distinct* answer (the kernels intern recurring answers).

A :class:`ColumnarResponses` holds one or more such chunks (one per
scan for the sequential kernel, one per shard for the merged result)
and serves the scan-result aggregations — address sets, per-AS tables,
scope tallies — directly from the columns.  Materialising the classic
``list[EcsResponse]`` is deferred until something actually iterates
``EcsScanResult.responses``; the aggregate views never pay for it.
"""

from __future__ import annotations

from array import array
from collections import Counter

from repro.netmodel.addr import IPAddress, Prefix

#: One chunk of packed responses: (values, scopes, refs, table).
Chunk = tuple[array, array, array, list[tuple[tuple[IPAddress, ...], int | None]]]


class ColumnarResponses:
    """Packed ECS scan answers, queryable without per-row objects.

    Chunk columns are any buffer-backed integer sequences: the sequential
    kernel fills plain ``array`` objects, while the sharded merge adopts
    ``memoryview`` casts over shared-memory segments without copying (see
    :meth:`retain` for the backing-buffer lifetime contract).
    """

    __slots__ = ("subnet_len", "chunks", "_prefixes", "_retained")

    def __init__(
        self, subnet_len: int, prefixes: dict[int, Prefix] | None = None
    ) -> None:
        self.subnet_len = subnet_len
        self.chunks: list[Chunk] = []
        # Prefix intern table shared with the producer (the scanner's
        # subnet cache, or the sharded executor's per-length interns), so
        # materialised responses reuse the same Prefix objects a classic
        # scan would have produced.
        self._prefixes = prefixes if prefixes is not None else {}
        self._retained: list[object] = []

    @classmethod
    def pack(cls, responses: list, subnet_len: int) -> "ColumnarResponses":
        """A classic ``list[EcsResponse]`` packed into one chunk.

        Answers are interned by tuple identity (the list keeps every
        tuple alive while packing), like the kernels' answer tables.
        """
        packed = cls(subnet_len)
        values, scopes, refs, table = packed.new_chunk()
        index: dict[tuple[int, int | None], int] = {}
        for response in responses:
            addresses = response.addresses
            asn = response.answer_asn
            key = (id(addresses), asn)
            ref = index.get(key)
            if ref is None:
                ref = index[key] = len(table)
                table.append((addresses, asn))
            values.append(response.subnet.value)
            scopes.append(response.scope)
            refs.append(ref)
        return packed

    def new_chunk(self) -> Chunk:
        """Append and return one empty chunk for a producer to fill."""
        chunk: Chunk = (array("I"), array("B"), array("I"), [])
        self.chunks.append(chunk)
        return chunk

    def retain(self, owner: object) -> None:
        """Keep ``owner`` (a chunk's backing buffer) alive with the columns.

        Zero-copy chunks view memory owned elsewhere — e.g. an adopted
        (already unlinked) shared-memory segment.  Retaining the owner
        here ties the mapping's lifetime to the responses that read it;
        the OS reclaims the memory when both die.
        """
        self._retained.append(owner)

    def __len__(self) -> int:
        return sum(len(values) for values, _, _, _ in self.chunks)

    def scope_tally(self) -> Counter:
        """Responses per declared scope (the ``ecs.scope`` histogram feed).

        Iterating an ``array('B')`` via ``tobytes`` hands ``Counter`` a
        bytes object, which it tallies at C speed into integer keys.
        """
        tally: Counter = Counter()
        for _, scopes, _, _ in self.chunks:
            tally.update(scopes.tobytes())
        return tally

    def materialize(self) -> list:
        """The classic ``list[EcsResponse]`` view, built once on demand."""
        # Imported here, not at module top: ecs_scanner imports this
        # module for the kernel's output type.
        from repro.scan.ecs_scanner import EcsResponse

        length = self.subnet_len
        prefixes = self._prefixes
        out: list = []
        append = out.append
        prefix_get = prefixes.get
        for values, scopes, refs, table in self.chunks:
            for value, scope, ref in zip(values, scopes, refs):
                subnet = prefix_get(value)
                if subnet is None:
                    subnet = prefixes[value] = Prefix(4, value, length)
                append(EcsResponse(subnet, scope, *table[ref]))
        return out

    # -- aggregations (mirror EcsScanResult's list-based accessors) -----

    def addresses(self) -> set[IPAddress]:
        """All distinct answered addresses (union over the tables)."""
        out: set[IPAddress] = set()
        update = out.update
        for _, _, _, table in self.chunks:
            for addresses, _ in table:
                update(addresses)
        return out

    def addresses_by_asn(self) -> dict[int, set[IPAddress]]:
        """Distinct addresses per answer AS.

        Deduplicates table entries by ``(asn, id(addresses))`` across
        chunks — merged shard chunks intern their tuples, so a shared
        answer is unioned once, exactly like the list-based accessor.
        """
        out: dict[int, set[IPAddress]] = {}
        seen: set[tuple[int, int]] = set()
        seen_add = seen.add
        for _, _, _, table in self.chunks:
            for addresses, asn in table:
                if asn is None:
                    continue
                key = (asn, id(addresses))
                if key in seen:
                    continue
                seen_add(key)
                bucket = out.get(asn)
                if bucket is None:
                    bucket = out[asn] = set()
                bucket.update(addresses)
        return out

    def slash24s_by_asn(self) -> dict[int, int]:
        """Served /24 client subnets per answer AS.

        ``covered_slash24s`` is a pure function of the scope, so one
        C-speed tally over ``(ref, scope)`` pairs replaces the per-row
        loop.
        """
        out: dict[int, int] = {}
        for _, scopes, refs, table in self.chunks:
            for (ref, scope), n in Counter(zip(refs, scopes)).items():
                asn = table[ref][1]
                if asn is None:
                    continue
                covered = 1 if scope >= 24 else 1 << (24 - scope)
                out[asn] = out.get(asn, 0) + n * covered
        return out

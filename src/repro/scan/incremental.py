"""Incremental delta-scan engine: continuous monitoring under a budget.

A full ECS scan re-enumerates every routed scope block every month, yet
month over month the overwhelming majority of blocks answer identically
— deployment churn is bursty and localized.  This module turns the scan
layer into a monitoring loop that exploits that:

* a durable :class:`SnapshotStore` (the ``checkpoint.py`` atomic-write
  machinery, extended) persists the remembered scope blocks and answer
  fingerprints of each domain between rounds and between processes;

* each round, the :class:`DeltaScanEngine` probes **one canonical
  subnet per remembered scope block** — the block's start, which is a
  walk landing position in every full scan.  An unchanged block answers
  with its remembered scope, the scope skip covers the whole block, and
  one query has re-verified (and fully re-enumerated) it.  A changed
  block answers differently, and because the probe *is* a scan of the
  block's coverage range, the walk descends into the refined structure
  automatically — re-enumeration and classification are the same
  queries;

* a deterministic round-robin **refresh wheel** guarantees every block
  is re-probed within ``refresh_rounds`` rounds (content-keyed like
  ``faults/plan.py``, so the schedule is process- and worker-
  independent), while blocks whose answers changed recently carry a
  churn weight that keeps them probed every round until they go quiet;

* an explicit per-round **query budget** caps the probe volume; blocks
  due but beyond the budget are deferred (and counted), and the wheel's
  age rule pulls them back as overdue next round, preserving the
  coverage bound.

Change classification is rotation-robust: answers rotate through a
pod's relay roster, so two probes of an unchanged block rarely return
the same window.  The engine learns supplier rosters with a union-find
over answer windows (consecutive windows of one pod overlap, chaining
into one roster), and classifies a probed window against the block's
remembered roster: a window drawn from the same roster is rotation, a
disjoint window is a pod move.

Budget arithmetic.  Both relay domains share one assignment partition,
so their remembered block sets are identical.  The primary (QUIC)
domain runs its wheel at ``refresh_rounds``; the fallback domain
stretches its wheel by ``secondary_stretch`` and instead receives the
primary's changed ranges *in the same round* (cross-domain hot
propagation), keeping steady-state rounds well under the budget gate
while still detecting assignment-level churn within ``refresh_rounds``
on both domains.  (A change visible *only* on the secondary domain is
detected within ``refresh_rounds * secondary_stretch``.)
"""

from __future__ import annotations

import base64
import json
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from repro.errors import CheckpointError
from repro.faults.plan import MASK64, MIX_MULT_A, MIX_MULT_B, fault_key
from repro.faults.storage import (
    InjectedStorageFault,
    atomic_write_json,
    count_handled,
)
from repro.scan.checkpoint import payload_crc, quarantine_warning
from repro.netmodel.addr import IPAddress, Prefix
from repro.perfstats import gc_paused
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan.columnar import ColumnarResponses
from repro.scan.ecs_scanner import EcsResponse, EcsScanResult, merge_ranges
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Bump when the snapshot layout changes; files of a version the store
#: cannot read are treated as absent (the domain is simply re-seeded),
#: not as errors.  Version 2 packs the columns as bytes; the store still
#: reads version 1 (one JSON list per row), so an upgraded monitor
#: resumes instead of re-running the seeding full scan.
SNAPSHOT_VERSION = 2
READABLE_VERSIONS = (1, SNAPSHOT_VERSION)

#: Detection-latency histogram bounds, in rounds.
DETECTION_BOUNDS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


def _mix64(x: int) -> int:
    """The fault plane's splitmix64 finalizer (same published constants).

    Spreads the crc32 content key over 64 bits so the wheel residue
    ``key % period`` is uniform — rows sharing a residue class would
    otherwise cluster by address locality.
    """
    x &= MASK64
    x = ((x ^ (x >> 30)) * MIX_MULT_A) & MASK64
    x = ((x ^ (x >> 27)) * MIX_MULT_B) & MASK64
    return (x ^ (x >> 31)) & MASK64


def _row_key(domain: str, value: int) -> int:
    """Content-keyed wheel position of one remembered block.

    Depends only on the domain and the block's address — never on
    discovery order or worker count — so every process computes the
    same refresh schedule.
    """
    return _mix64(fault_key(f"{domain}:{value}"))


class BlockColumns:
    """The remembered scope blocks of one domain, as parallel columns.

    Row ``i`` is one walk landing of the last full enumeration and its
    last answer; rows are sorted by ``values``.  Columns are never
    written in place once a round has published them (the accumulated
    view shares them): every change builds new arrays.

    * ``values``    — ``array('I')`` block start (the probed subnet),
    * ``scopes``    — ``array('B')`` declared ECS scope,
    * ``refs``      — ``array('I')`` index into the snapshot's
      :class:`WindowTable` (answer addresses plus answer AS),
    * ``rids``      — ``array('I')`` roster id (union-find leaf; resolve
      through :meth:`DomainSnapshot.find`),
    * ``refreshed`` — ``array('i')`` round last probed (-1 = only the
      seeding full scan),
    * ``changed``   — ``array('i')`` round the answer last changed (-1 =
      never since seed),
    * ``weights``   — ``array('i')`` churn weight: probed every round
      while positive, decremented on each quiet probe,
    * ``keys``      — ``array('Q')`` wheel position (content-keyed,
      recomputed on load, not persisted).
    """

    NAMES = (
        "values", "scopes", "refs", "rids", "refreshed", "changed", "weights", "keys"
    )
    TYPECODES = ("I", "B", "I", "I", "i", "i", "i", "Q")

    __slots__ = NAMES

    def __init__(self, *columns: array) -> None:
        if not columns:
            columns = tuple(array(code) for code in self.TYPECODES)
        for name, column in zip(self.NAMES, columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.values)

    def columns(self) -> tuple[array, ...]:
        """Every column, in :attr:`NAMES` order."""
        return tuple(getattr(self, name) for name in self.NAMES)

    def extend_from(self, other: "BlockColumns", start: int, stop: int) -> None:
        """Append rows ``start:stop`` of ``other`` (slice copies, no per-row work)."""
        if start < stop:
            for name in self.NAMES:
                getattr(self, name).extend(getattr(other, name)[start:stop])

    def take(self, runs: list[tuple[int, int]]) -> "BlockColumns":
        """The rows of the given ``(start, stop)`` index runs, in run order."""
        out = type(self)()
        for start, stop in runs:
            out.extend_from(self, start, stop)
        return out

    def within(self, ranges: list[tuple[int, int]]) -> "BlockColumns":
        """Rows whose value lies inside one of the disjoint inclusive ranges.

        Returns ``self`` when every row does (the common, routing-stable
        case), so nothing is copied.
        """
        values = self.values
        runs = [
            (bisect_left(values, start), bisect_right(values, end))
            for start, end in sorted(ranges)
        ]
        if sum(stop - start for start, stop in runs) == len(values):
            return self
        return self.take(runs)

    def sorted_by_value(self) -> "BlockColumns":
        """``self`` if the rows are in value order, else a sorted copy."""
        values = self.values
        if all(a < b for a, b in zip(values, values[1:])):
            return self
        order = sorted(range(len(values)), key=values.__getitem__)
        return type(self)(
            *(
                array(column.typecode, map(column.__getitem__, order))
                for column in self.columns()
            )
        )


class SparseColumns(BlockColumns):
    """The answered sparse probes of unrouted space, as parallel columns
    (``values``, ``scopes``, ``refs``; same conventions as
    :class:`BlockColumns`)."""

    NAMES = ("values", "scopes", "refs")
    TYPECODES = ("I", "B", "I")

    __slots__ = ()


class WindowTable:
    """The interned answer windows of one domain snapshot.

    One entry per distinct ``(addresses, answer AS)`` pair; the block and
    sparse columns refer to entries by index.  The table persists across
    rounds: a round's fresh answers intern into it, and
    :meth:`DomainSnapshot.compact` drops entries no row refers to, so
    every entry is referenced and the routed rows' entries come first.
    """

    __slots__ = ("entries", "pairs", "sets", "_index")

    def __init__(self) -> None:
        self.entries: list[tuple[tuple[IPAddress, ...], int | None]] = []
        #: Per entry, the addresses as ``(version, value)`` pairs: the
        #: content key, and the persisted form of the window.
        self.pairs: list[tuple[tuple[int, int], ...]] = []
        #: Per entry, the addresses as a frozenset: set tests against
        #: rosters reuse its stored hashes instead of rehashing.
        self.sets: list[frozenset[IPAddress]] = []
        self._index: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def intern(
        self,
        addresses: tuple[IPAddress, ...],
        asn: int | None,
        pairs: tuple[tuple[int, int], ...] | None = None,
    ) -> int:
        """The entry index of one answer window, adding it if new."""
        if pairs is None:
            pairs = tuple((a.version, a.value) for a in addresses)
        key = (pairs, asn)
        ref = self._index.get(key)
        if ref is None:
            ref = self._index[key] = len(self.entries)
            self.entries.append((addresses, asn))
            self.pairs.append(pairs)
            self.sets.append(frozenset(addresses))
        return ref

    def compact(self, order: list[int]) -> list[int]:
        """Keep only the entries in ``order``, renumbered in that order.

        Returns the old-to-new index map (dropped entries map to 0).
        """
        remap = [0] * len(self.entries)
        for new, old in enumerate(order):
            remap[old] = new
        self.entries = [self.entries[old] for old in order]
        self.pairs = [self.pairs[old] for old in order]
        self.sets = [self.sets[old] for old in order]
        self._index = {
            (pairs, entry[1]): i
            for i, (pairs, entry) in enumerate(zip(self.pairs, self.entries))
        }
        return remap


@dataclass(frozen=True, slots=True)
class ChangeEvent:
    """One detected answer change at a remembered block."""

    domain: str
    value: int
    scope: int
    #: ``structure`` (scope/AS/partition changed), ``answers`` (same
    #: structure, answers from a different roster — a pod move), or
    #: ``removed`` (the block boundary vanished).
    kind: str
    round: int
    #: Rounds since the block was last verified — the detection latency.
    latency: int


@dataclass
class DomainSnapshot:
    """Everything the delta engine remembers about one domain.

    ``rows`` tile the routed spans (every walk landing of the last full
    enumeration), ``sparse_rows`` are the answered unrouted probes —
    both columnar, referring into the ``windows`` table — and
    ``rosters`` is the learned supplier-roster partition of all answer
    addresses (union-find: ``parent`` over roster ids, ``addr_rid``
    from address to leaf id).
    """

    domain: str
    source_len: int
    round: int
    seeded_at: float
    spans: list[tuple[int, int]]
    gaps: list[tuple[int, int]]
    rows: BlockColumns = field(default_factory=BlockColumns)
    sparse_rows: SparseColumns = field(default_factory=SparseColumns)
    windows: WindowTable = field(default_factory=WindowTable)
    rosters: list[set[IPAddress]] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    addr_rid: dict[IPAddress, int] = field(default_factory=dict)
    #: Sparse probe positions a full scan of the current gaps issues
    #: (exact while every sparse probe answers, as in this world).
    sparse_positions: int = 0
    #: Largest answer window ever observed for this domain.  A row whose
    #: window is *smaller* is served by a supplier whose whole roster
    #: fits one window — its window set is rotation-invariant, giving an
    #: exact per-row change fingerprint (see :meth:`classify`).
    window_max: int = 0
    #: Leading ``windows`` entries the routed rows refer to (set by
    #: :meth:`compact`; the rest are referred to by sparse rows only).
    routed_windows: int = 0

    # -- columnar intake -------------------------------------------------

    def intake(self, result: EcsScanResult) -> tuple[array, array, array]:
        """A scan's routed answers as ``(values, scopes, refs)`` columns.

        Reads the result's columnar chunks — plain arrays from the
        kernel, ``memoryview`` casts from the sharded merge — and
        interns each chunk's answer table into :attr:`windows`.  A
        result that carries a ``responses`` list instead (the per-query
        fallback, the reference path) is packed into one chunk first.
        """
        columnar = result.columnar_view()
        if columnar is None:
            columnar = ColumnarResponses.pack(result.responses, self.source_len)
        values, scopes, refs = array("I"), array("B"), array("I")
        intern = self.windows.intern
        for chunk_values, chunk_scopes, chunk_refs, table in columnar.chunks:
            values.frombytes(memoryview(chunk_values).cast("B"))
            scopes.frombytes(memoryview(chunk_scopes).cast("B"))
            remap = [intern(addresses, asn) for addresses, asn in table]
            refs.extend(map(remap.__getitem__, chunk_refs))
        return values, scopes, refs

    def intake_sparse(self, responses: list) -> SparseColumns:
        """Sparse responses as value-sorted columns (windows interned)."""
        intern = self.windows.intern
        return SparseColumns(
            array("I", [response.subnet.value for response in responses]),
            array("B", [response.scope for response in responses]),
            array(
                "I",
                [
                    intern(response.addresses, response.answer_asn)
                    for response in responses
                ],
            ),
        ).sorted_by_value()

    def compact(self) -> None:
        """Drop unreferenced windows; renumber in first-use order.

        First use over the rows, then over the sparse rows — the order
        the persisted table uses — so the routed rows' windows are the
        leading :attr:`routed_windows` entries.
        """
        rows, sparse = self.rows, self.sparse_rows
        routed = dict.fromkeys(rows.refs)
        order = list(routed)
        self.routed_windows = len(order)
        order.extend(ref for ref in dict.fromkeys(sparse.refs) if ref not in routed)
        if order == list(range(len(self.windows))):
            return
        remap = self.windows.compact(order).__getitem__
        rows.refs = array("I", map(remap, rows.refs))
        sparse.refs = array("I", map(remap, sparse.refs))

    # -- union-find over answer rosters ---------------------------------

    def find(self, rid: int) -> int:
        """Root roster id, with path compression."""
        parent = self.parent
        root = rid
        while parent[root] != root:
            root = parent[root]
        while parent[rid] != root:
            parent[rid], rid = root, parent[rid]
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge roster ``b`` into ``a`` (both roots); returns ``a``."""
        self.parent[b] = a
        self.rosters[a] |= self.rosters[b]
        self.rosters[b] = set()
        return a

    def absorb(self, addresses: tuple[IPAddress, ...]) -> int:
        """Fold one answer window into the rosters; returns its roster.

        Windows of one supplier chain together: consecutive rotation
        windows share all but one address, so any overlap unions their
        rosters.  A window with no known address starts a new roster.
        Absorbing a window again changes nothing (all its addresses
        already share one root), so callers absorb each distinct window
        once and reuse the id.
        """
        rid = -1
        for address in addresses:
            known = self.addr_rid.get(address)
            if known is None:
                continue
            known = self.find(known)
            if rid < 0:
                rid = known
            elif known != rid:
                rid = self._union(rid, known)
        if rid < 0:
            rid = len(self.rosters)
            self.rosters.append(set())
            self.parent.append(rid)
        roster = self.rosters[rid]
        for address in addresses:
            roster.add(address)
            self.addr_rid[address] = rid
        return rid

    def classify(self, old_ref: int, rid: int, new_ref: int) -> str:
        """A probed window (``new_ref``) against a block's remembered one.

        ``old_ref`` and ``rid`` are the block's remembered window and
        roster.  Saturated rings first: a window shorter than the
        domain's maximum is its supplier's *entire* roster, so rotation
        can never change it as a set — any set change is a supplier
        change (``moved``).  This stays exact even where the roster
        partition below has been chained together by spilled suppliers.

        Otherwise, the learned roster partition: ``same`` — every
        address known (pure rotation); ``grow`` — some known (rotation
        exposing new roster members); ``moved`` — none known (answers
        from a disjoint supplier: a pod move).
        """
        if old_ref == new_ref:
            return "same"
        entries = self.windows.entries
        sets = self.windows.sets
        window_max = self.window_max
        if (
            len(entries[old_ref][0]) < window_max
            or len(entries[new_ref][0]) < window_max
        ):
            return "same" if sets[new_ref] == sets[old_ref] else "moved"
        roster = self.rosters[self.find(rid)]
        addresses = sets[new_ref]
        if roster.issuperset(addresses):
            return "same"
        if roster.isdisjoint(addresses):
            return "moved"
        return "grow"


# ----------------------------------------------------------------------
# Snapshot persistence (the checkpoint codec, extended)
# ----------------------------------------------------------------------


#: Every column the persisted document carries, per column group (the
#: wheel ``keys`` are recomputed on load, not persisted).
_ROW_COLUMNS = tuple(zip(BlockColumns.NAMES, BlockColumns.TYPECODES))[:-1]
_SPARSE_COLUMNS = tuple(zip(SparseColumns.NAMES, SparseColumns.TYPECODES))
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(column: array) -> str:
    """One column as base64 of its little-endian item bytes."""
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unpack(typecode: str, text: str) -> array:
    """Inverse of :func:`_pack`.  A byte count that splits an item
    raises ``ValueError`` (from ``frombytes``), as does bad base64."""
    column = array(typecode)
    column.frombytes(base64.b64decode(text, validate=True))
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def encode_snapshot(snapshot: DomainSnapshot) -> dict:
    """One domain snapshot as a JSON-safe dict (format version 2).

    The header scalars, spans, gaps, window table and rosters are plain
    JSON; the row and sparse columns are each one base64 string of
    packed little-endian array bytes.  The window table is written as it
    stands — each entry's addresses and answer AS — so the ``refs``
    columns need no remap; the engine compacts it after every change,
    which puts it in first-use order over the rows, then the sparse
    rows.  Rosters are compacted to their union-find roots in first-use
    order, so the encoding is independent of merge history.
    """
    rows, sparse, windows = snapshot.rows, snapshot.sparse_rows, snapshot.windows
    table = [
        [[list(pair) for pair in pairs], entry[1]]
        for pairs, entry in zip(windows.pairs, windows.entries)
    ]
    roster_index: dict[int, int] = {}
    roster_of: dict[int, int] = {}
    rosters: list = []
    for rid in dict.fromkeys(rows.rids):
        root = snapshot.find(rid)
        position = roster_index.get(root)
        if position is None:
            position = roster_index[root] = len(rosters)
            rosters.append(
                sorted([a.version, a.value] for a in snapshot.rosters[root])
            )
        roster_of[rid] = position
    row_columns = {name: getattr(rows, name) for name, _ in _ROW_COLUMNS}
    row_columns["rids"] = array("I", map(roster_of.__getitem__, rows.rids))
    return {
        "domain": snapshot.domain,
        "source_len": snapshot.source_len,
        "round": snapshot.round,
        "seeded_at": snapshot.seeded_at,
        "spans": [list(span) for span in snapshot.spans],
        "gaps": [list(gap) for gap in snapshot.gaps],
        "windows": table,
        "rows": {name: _pack(column) for name, column in row_columns.items()},
        "sparse": {name: _pack(getattr(sparse, name)) for name in sparse.NAMES},
        "rosters": rosters,
        "sparse_positions": snapshot.sparse_positions,
        "window_max": snapshot.window_max,
    }


def decode_snapshot(data: dict, version: int = SNAPSHOT_VERSION) -> DomainSnapshot:
    """Rebuild an :func:`encode_snapshot` snapshot (wheel keys recomputed).

    ``version`` is the document's format version: 2 is what
    :func:`encode_snapshot` writes, 1 the earlier per-row list layout.
    A malformed document raises ``ValueError`` (or the ``LookupError`` /
    ``TypeError`` of a missing or mistyped field) instead of building a
    snapshot whose columns disagree.
    """
    domain = data["domain"]
    snapshot = DomainSnapshot(
        domain=domain,
        source_len=data["source_len"],
        round=data["round"],
        seeded_at=data["seeded_at"],
        spans=[tuple(span) for span in data["spans"]],
        gaps=[tuple(gap) for gap in data["gaps"]],
        sparse_positions=data["sparse_positions"],
        window_max=data["window_max"],
    )
    for pairs in data["rosters"]:
        rid = len(snapshot.rosters)
        roster = {IPAddress(*pair) for pair in pairs}
        snapshot.rosters.append(roster)
        snapshot.parent.append(rid)
        for address in roster:
            snapshot.addr_rid[address] = rid
    if version == 1:
        _decode_rows_v1(snapshot, data)
    else:
        _decode_columns(snapshot, data)
    snapshot.compact()
    return snapshot


def _decode_columns(snapshot: DomainSnapshot, data: dict) -> None:
    """The version-2 window table and packed columns, validated."""
    intern = snapshot.windows.intern
    for pairs, asn in data["windows"]:
        pairs = tuple((version, value) for version, value in pairs)
        intern(tuple(IPAddress(*pair) for pair in pairs), asn, pairs)
    if len(snapshot.windows) != len(data["windows"]):
        raise ValueError("window table lists an entry twice")
    groups = {
        label: [_unpack(code, data[label][name]) for name, code in names]
        for label, names in (("rows", _ROW_COLUMNS), ("sparse", _SPARSE_COLUMNS))
    }
    for label, columns in groups.items():
        values, refs = columns[0], columns[2]
        if any(len(column) != len(values) for column in columns):
            raise ValueError(f"{label} columns differ in length")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError(f"{label} values are not strictly increasing")
        if refs and max(refs) >= len(snapshot.windows):
            raise ValueError(f"{label} refs point past the window table")
    rows = groups["rows"]
    rids = rows[3]
    if rids and max(rids) >= len(snapshot.rosters):
        raise ValueError("rows rids point past the roster list")
    domain = snapshot.domain
    keys = array("Q", [_row_key(domain, value) for value in rows[0]])
    snapshot.rows = BlockColumns(*rows, keys)
    snapshot.sparse_rows = SparseColumns(*groups["sparse"])


def _decode_rows_v1(snapshot: DomainSnapshot, data: dict) -> None:
    """The version-1 layout: a window table of address lists deduped by
    content, and one JSON list per row carrying the answer AS."""
    pairs_of = [tuple(map(tuple, pairs)) for pairs in data["table"]]
    windows = [
        tuple(IPAddress(version, value) for version, value in pairs)
        for pairs in pairs_of
    ]
    intern = snapshot.windows.intern

    def window_refs(table_refs, asns) -> array:
        keys = list(zip(table_refs, asns))
        ref_of = {
            (ref, asn): intern(windows[ref], asn, pairs_of[ref])
            for ref, asn in dict.fromkeys(keys)
        }
        return array("I", map(ref_of.__getitem__, keys))

    domain = snapshot.domain
    rows = data["rows"]
    if rows:
        values, scopes, refs, asns, rids, refreshed, changed, weights = zip(*rows)
        snapshot.rows = BlockColumns(
            array("I", values),
            array("B", scopes),
            window_refs(refs, asns),
            array("I", rids),
            array("i", refreshed),
            array("i", changed),
            array("i", weights),
            array("Q", [_row_key(domain, value) for value in values]),
        )
    sparse = data["sparse"]
    if sparse:
        values, scopes, refs, asns = zip(*sparse)
        snapshot.sparse_rows = SparseColumns(
            array("I", values), array("B", scopes), window_refs(refs, asns)
        )


class SnapshotStore:
    """Durable per-domain snapshots (atomic writes, fingerprint-guarded).

    Same contract as :class:`~repro.scan.checkpoint.CampaignCheckpointer`:
    temp file + ``os.replace`` so a kill mid-write never leaves a torn
    snapshot; missing, torn, malformed or unreadable-version files read
    as None (the domain is re-seeded); a *fingerprint* mismatch raises
    :class:`~repro.errors.CheckpointError` — resuming a delta loop
    against different result-affecting settings (or a different campaign
    mode) would silently corrupt the accumulated state.
    """

    def __init__(
        self,
        directory: str | Path,
        fingerprint: dict,
        *,
        gate=None,
        registry=None,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.gate = gate
        self.registry = registry

    def path_for(self, domain: str) -> Path:
        """Where one domain's snapshot lives."""
        return self.directory / f"snapshot-{domain.strip('.')}.json"

    def save(self, snapshot: DomainSnapshot, attempt: int = 0) -> Path:
        """Durably and atomically persist one domain snapshot.

        ``attempt`` keys the storage fault gate's draw: the engine's
        degraded-mode retry loop passes fresh attempt numbers, so an
        injected failure is transient — exactly like a retried query in
        the packet plane.
        """
        path = self.path_for(snapshot.domain)
        document = {
            "version": SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint,
            **encode_snapshot(snapshot),
        }
        document["crc"] = payload_crc(document)
        atomic_write_json(
            path,
            document,
            gate=self.gate,
            surface="snapshot",
            item=f"{snapshot.domain}:{snapshot.round}",
            attempt=attempt,
            registry=self.registry,
        )
        return path

    def load(self, domain: str) -> DomainSnapshot | None:
        """One domain's snapshot, or None when it must be re-seeded."""
        path = self.path_for(domain)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            quarantine_warning(path, f"unparseable JSON ({exc})")
            return None
        except OSError:
            return None
        if not isinstance(document, dict):
            quarantine_warning(path, "not a JSON object")
            return None
        version = document.get("version")
        if version not in READABLE_VERSIONS:
            return None
        crc = document.get("crc")
        if crc is not None and crc != payload_crc(document):
            quarantine_warning(path, "checksum mismatch (bit flip?)")
            return None
        if document.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"snapshot {path} was written under different "
                "result-affecting settings (or campaign mode); refusing "
                "to resume from it"
            )
        try:
            return decode_snapshot(document, version)
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            # Intact bytes, inconsistent content: a writer bug or a
            # hand-edited file.  Same recovery as a torn one.
            quarantine_warning(path, f"malformed snapshot ({exc})")
            return None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


@dataclass
class DeltaRound:
    """One monitoring round's outcome and accounting."""

    index: int
    started_at: float
    finished_at: float = 0.0
    #: Queries actually issued this round (routed probes + sparse).
    queries_sent: int = 0
    sparse_queries: int = 0
    #: Due blocks pushed to the next round by the query budget.
    budget_deferred: int = 0
    #: What a full rescan of every domain would have cost.
    full_cost: int = 0
    #: Remembered blocks re-probed this round.
    refreshed_blocks: int = 0
    changed_blocks: int = 0
    new_blocks: int = 0
    removed_blocks: int = 0
    events: list[ChangeEvent] = field(default_factory=list)

    @property
    def queries_frac(self) -> float:
        """This round's cost as a fraction of a full rescan."""
        if not self.full_cost:
            return 0.0
        return self.queries_sent / self.full_cost


class DeltaScanEngine:
    """Plans and executes delta-scan rounds over persisted snapshots.

    ``executor`` is anything with the campaign scan front-end shape —
    an :class:`~repro.scan.ecs_scanner.EcsScanner` or a
    :class:`~repro.scan.sharding.ShardedCampaignExecutor` — exposing
    ``scan()`` (seeding) and ``scan_regions()`` (rounds).
    """

    def __init__(
        self,
        executor,
        store: SnapshotStore | None = None,
        *,
        domains: tuple[str, ...] = (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK),
        budget: int | None = None,
        refresh_rounds: int = 3,
        secondary_stretch: int = 2,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        scanner = getattr(executor, "scanner", executor)
        if not scanner.settings.prune_unrouted:
            raise ValueError(
                "delta scanning requires prune_unrouted: remembered blocks "
                "tile the routed spans"
            )
        if refresh_rounds < 1:
            raise ValueError("refresh_rounds must be >= 1")
        if secondary_stretch < 1:
            raise ValueError("secondary_stretch must be >= 1")
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive (or None)")
        self.executor = executor
        self.scanner = scanner
        self.store = store
        self.domains = tuple(domains)
        self.budget = budget
        self.refresh_rounds = refresh_rounds
        self.secondary_stretch = secondary_stretch
        self.telemetry = telemetry
        self.snapshots: dict[str, DomainSnapshot] = {}
        self.rounds: list[DeltaRound] = []
        #: Subnet intern table per source length, shared by every
        #: accumulated view (materialised responses reuse the Prefixes).
        self._prefixes: dict[int, dict[int, Prefix]] = {}
        #: Per domain, the sparse rows object last materialised and its
        #: responses.  Sparse rows change only with routing, and every
        #: change installs a new object, so identity keys the cache.
        self._sparse_views: dict[str, tuple[SparseColumns, list[EcsResponse]]] = {}
        #: Optional live monitoring plane (repro.monitor): a StatusBoard
        #: receiving coarse per-round publishes and an EventLog receiving
        #: round_summary / churn_detected / budget_deferral records.
        self.status = None
        self.events = None

    def period(self, domain: str) -> int:
        """The domain's refresh-wheel period, in rounds."""
        if domain == self.domains[0]:
            return self.refresh_rounds
        return self.refresh_rounds * self.secondary_stretch

    # -- seeding ---------------------------------------------------------

    def seed(self, domain: str) -> EcsScanResult:
        """Full scan of one domain, remembered as the baseline snapshot."""
        # Seeds and rounds allocate thousands of acyclic containers that
        # refcounting frees: above all the ~7k region tuples per domain
        # that _coverage_ranges and merge_ranges build each round, and
        # the windows interned at seed.  The pause spares the young
        # collections they would set off (scale 0.05, gc.callbacks:
        # ~9 per round and ~5 per domain seed, about 1.5 ms and 2.5 ms).
        with gc_paused():
            return self._seed(domain)

    def _seed(self, domain: str) -> EcsScanResult:
        result = self.executor.scan(domain)
        spans, gaps = self.scanner.routed_ranges()
        snapshot = DomainSnapshot(
            domain=domain,
            source_len=self.scanner.settings.source_prefix_len,
            round=0,
            seeded_at=result.started_at,
            spans=[tuple(span) for span in spans],
            gaps=[tuple(gap) for gap in gaps],
            sparse_positions=result.sparse_queries,
        )
        values, scopes, refs = snapshot.intake(result)
        entries = snapshot.windows.entries
        # Absorb each distinct window once, in scan order (a repeat
        # absorb is a no-op).  Sparse windows join no roster.
        rid_of = {ref: snapshot.absorb(entries[ref][0]) for ref in dict.fromkeys(refs)}
        n = len(values)
        snapshot.rows = BlockColumns(
            values,
            scopes,
            refs,
            array("I", map(rid_of.__getitem__, refs)),
            array("i", [-1]) * n,
            array("i", [-1]) * n,
            array("i", [0]) * n,
            array("Q", [_row_key(domain, value) for value in values]),
        ).sorted_by_value()
        snapshot.sparse_rows = snapshot.intake_sparse(result.sparse_responses)
        snapshot.window_max = max(
            (
                len(entries[ref][0])
                for ref in chain(rid_of, set(snapshot.sparse_rows.refs))
            ),
            default=0,
        )
        snapshot.compact()
        self.snapshots[domain] = snapshot
        if self.store is not None:
            self._persist_snapshot(snapshot)
        if self.events is not None:
            self.events.emit(
                "delta_seeded",
                domain=domain,
                rows=len(snapshot.rows),
                sparse=snapshot.sparse_positions,
                queries=result.queries_sent,
            )
        return result

    def ensure_seeded(self) -> dict[str, EcsScanResult | None]:
        """Load or seed every domain; fresh seed scans are returned.

        A domain restored from the store maps to None (no scan ran);
        callers that archive scan results record only the fresh ones.
        """
        seeds: dict[str, EcsScanResult | None] = {}
        for domain in self.domains:
            if domain in self.snapshots:
                continue
            snapshot = None
            if self.store is not None:
                snapshot = self.store.load(domain)
            if snapshot is not None:
                self.snapshots[domain] = snapshot
                seeds[domain] = None
            else:
                seeds[domain] = self.seed(domain)
        return seeds

    def reseed_from_store(self) -> None:
        """Degraded-mode recovery: drop in-memory state and re-seed.

        Used by the campaign when a round is abandoned mid-flight
        (worker respawn exhaustion): whatever partial per-domain state
        the failed round left in :attr:`snapshots` is discarded, and the
        engine restores the last *persisted* snapshots — or runs fresh
        seed scans when no store is attached — so the next round starts
        from a consistent baseline.
        """
        self.snapshots.clear()
        self.ensure_seeded()

    # -- rounds ----------------------------------------------------------

    def run_round(self) -> DeltaRound:
        """One monitoring round across all domains under the budget."""
        with gc_paused():
            return self._run_round()

    def _run_round(self) -> DeltaRound:
        for domain in self.domains:
            if domain not in self.snapshots:
                raise ValueError(
                    f"domain {domain!r} is not seeded; call ensure_seeded()"
                )
        index = self.snapshots[self.domains[0]].round
        if self.status is not None:
            self.status.publish(phase="delta_round", round=index)
        rnd = DeltaRound(index=index, started_at=self.scanner.clock.now)
        spans, gaps = self.scanner.routed_ranges()
        spans = [tuple(span) for span in spans]
        gaps = [tuple(gap) for gap in gaps]
        budget_state = {"left": self.budget}
        hot_ranges: list[tuple[int, int]] = []
        for domain in self.domains:
            self._round_domain(domain, rnd, spans, gaps, hot_ranges, budget_state)
        rnd.finished_at = self.scanner.clock.now
        rnd.full_cost = sum(
            len(snapshot.rows) + snapshot.sparse_positions
            for snapshot in self.snapshots.values()
        )
        unpersisted = 0
        for domain in self.domains:
            snapshot = self.snapshots[domain]
            snapshot.round = index + 1
            if self.store is not None and not self._persist_snapshot(snapshot):
                unpersisted += 1
        registry = self.telemetry.registry
        if registry.enabled:
            registry.counter("delta.rounds").inc()
            histogram = registry.histogram(
                "delta.detection_rounds", DETECTION_BOUNDS
            )
            for event in rnd.events:
                histogram.observe(float(event.latency))
        self.rounds.append(rnd)
        if self.events is not None:
            for event in rnd.events:
                self.events.emit(
                    "churn_detected",
                    domain=event.domain,
                    value=event.value,
                    scope=event.scope,
                    change=event.kind,
                    round=event.round,
                    latency=event.latency,
                )
            if rnd.budget_deferred:
                self.events.emit(
                    "budget_deferral", round=index, deferred=rnd.budget_deferred
                )
            self.events.emit(
                "round_summary",
                round=index,
                queries=rnd.queries_sent,
                sparse=rnd.sparse_queries,
                full_cost=rnd.full_cost,
                frac=round(rnd.queries_frac, 6),
                changed=rnd.changed_blocks,
                new=rnd.new_blocks,
                removed=rnd.removed_blocks,
                events=len(rnd.events),
            )
        if self.status is not None:
            self.status.add("rounds_completed")
            self.status.add("churn_events", len(rnd.events))
            if rnd.budget_deferred:
                self.status.add("budget_deferred", rnd.budget_deferred)
            if self.store is not None and not unpersisted:
                self.status.record_checkpoint(
                    self.scanner.clock.now, kind="snapshot"
                )
        return rnd

    #: Degraded-mode snapshot persistence policy: save attempts per
    #: round (each a fresh storage-gate draw) and the wall backoff base
    #: between them.
    SNAPSHOT_SAVE_ATTEMPTS = 3
    SNAPSHOT_BACKOFF_SECONDS = 0.01

    def _persist_snapshot(self, snapshot: DomainSnapshot) -> bool:
        """Persist one round's snapshot, degrading instead of aborting.

        Save failures retry with a short backoff (the attempt number is
        part of the storage gate's key, so injected faults are
        transient); after the last attempt the *previous* on-disk
        snapshot is carried forward and the round marked unpersisted —
        the in-memory snapshot stays current, so the next successful
        save catches the store up and a resume from the stale file
        merely re-runs a round it would have run anyway.  Returns
        whether the snapshot landed on disk.
        """
        injected = 0
        registry = self.telemetry.registry
        for attempt in range(self.SNAPSHOT_SAVE_ATTEMPTS):
            try:
                self.store.save(snapshot, attempt=attempt)
            except OSError as exc:
                if isinstance(exc, InjectedStorageFault):
                    injected += 1
                if registry.enabled:
                    registry.counter(
                        "persistence.save_failures", surface="snapshot"
                    ).inc()
                if attempt + 1 < self.SNAPSHOT_SAVE_ATTEMPTS:
                    time.sleep(self.SNAPSHOT_BACKOFF_SECONDS * (attempt + 1))
            else:
                count_handled(registry, "snapshot", injected, 0)
                return True
        count_handled(registry, "snapshot", 0, injected)
        if registry.enabled:
            registry.counter("persistence.rounds_unpersisted").inc()
        if self.status is not None:
            self.status.publish(snapshot_degraded=True)
            self.status.add("rounds_unpersisted")
        if self.events is not None:
            self.events.emit(
                "persistence_degraded",
                surface="snapshot",
                domain=snapshot.domain,
                round=snapshot.round,
            )
        return False

    def _round_domain(
        self,
        domain: str,
        rnd: DeltaRound,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]],
        hot_ranges: list[tuple[int, int]],
        budget_state: dict,
    ) -> None:
        snapshot = self.snapshots[domain]
        index = rnd.index
        period = self.period(domain)
        primary = domain == self.domains[0]

        # Routing diff: spans/gaps not set-identical to the remembered
        # ones are re-scanned wholesale (walks restart per span, so a
        # merged or split span shifts landings near its boundaries —
        # per-block surgery there is not worth the risk).
        old_spans = set(snapshot.spans)
        fresh_spans = [span for span in spans if span not in old_spans]
        stable_spans = [span for span in spans if span in old_spans]
        old_gaps = set(snapshot.gaps)
        fresh_gaps = [gap for gap in gaps if gap not in old_gaps]
        stable_gaps = [gap for gap in gaps if gap in old_gaps]

        rows = snapshot.rows.within(stable_spans)
        removed_by_routing = len(snapshot.rows) - len(rows)
        kept_sparse = snapshot.sparse_rows.within(stable_gaps)
        dropped_sparse = len(snapshot.sparse_rows) - len(kept_sparse)

        selected = self._select(
            rows, index, period, primary, hot_ranges, budget_state, rnd
        )

        ranges = self._coverage_ranges(rows.values, sorted(selected), stable_spans)
        ranges.extend(fresh_spans)
        if not ranges and not fresh_gaps:
            # Nothing due this round (budget exhausted or quiet wheel
            # slot): the accumulated state simply carries over.
            snapshot.rows = rows
            snapshot.sparse_rows = kept_sparse
            snapshot.spans = spans
            snapshot.gaps = gaps
            snapshot.sparse_positions -= dropped_sparse
            snapshot.compact()
            rnd.removed_blocks += removed_by_routing
            self._record_domain(domain, 0, removed_by_routing, 0)
            return

        before = budget_state["left"]
        result = self.executor.scan_regions(domain, ranges, fresh_gaps)
        rnd.queries_sent += result.queries_sent
        rnd.sparse_queries += result.sparse_queries
        if before is not None:
            # Replace the planned one-query-per-block charge with the
            # actual cost (descent into changed blocks, sparse probes).
            budget_state["left"] = before - result.queries_sent

        events, stats = self._fold(
            snapshot, rows, merge_ranges(ranges), snapshot.intake(result), index
        )
        snapshot.spans = spans
        snapshot.gaps = gaps
        snapshot.sparse_rows = kept_sparse
        if result.sparse_responses:
            new_sparse = snapshot.intake_sparse(result.sparse_responses)
            merged_sparse = SparseColumns()
            merged_sparse.extend_from(kept_sparse, 0, len(kept_sparse))
            merged_sparse.extend_from(new_sparse, 0, len(new_sparse))
            snapshot.sparse_rows = merged_sparse.sorted_by_value()
        snapshot.sparse_positions += result.sparse_queries - dropped_sparse
        snapshot.compact()

        rnd.events.extend(events)
        rnd.refreshed_blocks += stats["refreshed"]
        rnd.changed_blocks += stats["changed"]
        rnd.new_blocks += stats["new"]
        rnd.removed_blocks += stats["removed"] + removed_by_routing
        if primary:
            hot_ranges.extend(stats["hot_ranges"])
        self._record_domain(
            domain,
            stats["refreshed"],
            stats["removed"] + removed_by_routing,
            result.queries_sent,
            stats,
        )

    # -- planning helpers ------------------------------------------------

    def _select(
        self,
        rows: BlockColumns,
        index: int,
        period: int,
        primary: bool,
        hot_ranges: list[tuple[int, int]],
        budget_state: dict,
        rnd: DeltaRound,
    ) -> set[int]:
        """Row indices to probe this round, in budget priority order.

        Mandatory work first (ranges the primary domain just flagged as
        changed — never deferred, so cross-domain detection stays within
        the round), then churn-weighted hot rows, then wheel-due rows by
        descending age; the last two defer once the budget runs out.
        The age rule (``index - refreshed >= period``) re-arms deferred
        rows every following round until they are probed.
        """
        selected: set[int] = set()
        left = budget_state["left"]
        values = rows.values
        if not primary and hot_ranges:
            for start, end in merge_ranges(hot_ranges):
                first = bisect_left(values, start)
                stop = bisect_right(values, end)
                selected.update(range(first, stop))
                if left is not None:
                    left -= stop - first
        weights, keys, refreshed = rows.weights, rows.keys, rows.refreshed
        hot = [
            i for i, weight in enumerate(weights) if weight > 0 and i not in selected
        ]
        phase = index % period
        due = [
            i
            for i, (weight, key, last) in enumerate(zip(weights, keys, refreshed))
            if weight <= 0
            and (key % period == phase or index - last >= period)
            and i not in selected
        ]
        if left is None:
            selected.update(hot)
            selected.update(due)
        else:
            hot.sort(key=lambda i: (-weights[i], keys[i]))
            due.sort(key=lambda i: (refreshed[i], keys[i]))
            queue = hot + due
            take = max(0, min(left, len(queue)))
            selected.update(queue[:take])
            rnd.budget_deferred += len(queue) - take
            left -= take
        budget_state["left"] = left
        return selected

    @staticmethod
    def _coverage_ranges(
        values: array,
        indices: list[int],
        spans: list[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        """The selected rows' remembered coverage ranges, in order.

        Rows tile their span, so a row's coverage runs to the next
        row's start (or the span end for the last row of a span).
        """
        out: list[tuple[int, int]] = []
        bounds = sorted(spans)
        position = 0
        last = len(values) - 1
        for i in indices:
            value = values[i]
            while position < len(bounds) and bounds[position][1] < value:
                position += 1
            span_end = bounds[position][1]
            if i < last and values[i + 1] <= span_end:
                out.append((value, values[i + 1] - 1))
            else:
                out.append((value, span_end))
        return out

    # -- folding ---------------------------------------------------------

    def _fold(
        self,
        snapshot: DomainSnapshot,
        rows: BlockColumns,
        scanned: list[tuple[int, int]],
        fresh: tuple[array, array, array],
        index: int,
    ) -> tuple[list[ChangeEvent], dict]:
        """Merge one round's scanned ranges back into the remembered rows.

        ``fresh`` is the round's routed answers as ``(values, scopes,
        refs)`` columns (see :meth:`DomainSnapshot.intake`).  Walks the
        remembered rows and the scanned ranges in address order over a
        copy of the columns: rows outside every scanned range carry over
        untouched, rows inside are replaced by the fresh answers and
        classified against their predecessors.  A fresh answer whose
        scope extends *past* its scanned range (a withdrawn unit
        reverting to the coarse fallback answer) swallows the remembered
        rows under the extension — and any later scanned range that now
        lies inside a scope skip, whose answers a full scan would never
        produce.  Scopes are >= /16 and blocks never cross a /16
        boundary in this world, so swallowed rows are always swallowed
        whole.  Installs the folded rows as ``snapshot.rows``.
        """
        domain = snapshot.domain
        values, refreshed = rows.values, rows.refreshed
        fresh_values, fresh_scopes = fresh[0], fresh[1]
        out = BlockColumns(*(column[:] for column in rows.columns()))
        events: list[ChangeEvent] = []
        hot_local: list[tuple[int, int]] = []
        stats: dict = {"refreshed": 0, "changed": 0, "new": 0, "removed": 0}
        span_ends = {start: end for start, end in snapshot.spans}
        span_bounds = sorted(snapshot.spans)
        # Roster id per window, absorbed once per fold (a repeat absorb
        # is a no-op, so reusing the id changes nothing).
        absorbed: dict[int, int] = {}
        # Output row index minus remembered row index: moves only when a
        # range's row count changes or rows are swallowed.
        shift = 0

        def drop(start: int, stop: int, emit: bool) -> None:
            nonlocal shift
            if start >= stop:
                return
            if emit:
                for i in range(start, stop):
                    events.append(
                        ChangeEvent(
                            domain,
                            values[i],
                            rows.scopes[i],
                            "removed",
                            index,
                            index - refreshed[i],
                        )
                    )
            stats["removed"] += stop - start
            for column in out.columns():
                del column[start + shift : stop + shift]
            shift -= stop - start

        oi = 0
        ri = 0
        swallow_until = -1
        for rs, re_ in scanned:
            stop = bisect_left(values, rs, oi)
            drop(oi, bisect_right(values, swallow_until, oi, stop), True)
            oi = stop
            if rs <= swallow_until:
                ri = bisect_right(fresh_values, re_, ri)
                stop = bisect_right(values, re_, oi)
                drop(oi, stop, False)
                oi = stop
                continue
            new_stop = bisect_right(fresh_values, re_, ri)
            old_stop = bisect_right(values, re_, oi)
            range_hot, shift = self._fold_range(
                snapshot,
                rows,
                (oi, old_stop),
                fresh,
                (ri, new_stop),
                index,
                stats,
                out,
                shift,
                events,
                absorbed,
            )
            oi = old_stop
            if new_stop > ri:
                if range_hot:
                    hot_local.append((rs, re_))
                ext = fresh_values[new_stop - 1]
                scope = fresh_scopes[new_stop - 1]
                if scope < 32:
                    ext |= (1 << (32 - scope)) - 1
                if ext > re_:
                    eff_end = min(
                        ext, self._span_end_at(span_bounds, span_ends, rs)
                    )
                    if eff_end > re_:
                        swallow_until = eff_end
                        if range_hot:
                            hot_local[-1] = (rs, eff_end)
                        stop = bisect_right(values, eff_end, oi)
                        drop(oi, stop, True)
                        oi = stop
            ri = new_stop
        drop(oi, bisect_right(values, swallow_until, oi), False)
        stats["hot_ranges"] = hot_local
        snapshot.rows = out
        return events, stats

    def _fold_range(
        self,
        snapshot: DomainSnapshot,
        rows: BlockColumns,
        old_range: tuple[int, int],
        fresh: tuple[array, array, array],
        new_range: tuple[int, int],
        index: int,
        stats: dict,
        out: BlockColumns,
        shift: int,
        events: list[ChangeEvent],
        absorbed: dict[int, int],
    ) -> tuple[bool, int]:
        """Classify one scanned range's fresh answers against its rows.

        Writes the range's folded rows into ``out`` (whose rows sit
        ``shift`` places from the remembered ones) and its events to
        ``events``.  A range answering at exactly its remembered block
        starts — every quiet round — is rewritten in place; any other
        is spliced.  Returns whether anything in the range changed, and
        the shift after it.
        """
        domain = snapshot.domain
        refresh = self.refresh_rounds
        entries = snapshot.windows.entries
        values = rows.values
        fresh_values, fresh_scopes, fresh_refs = fresh
        old_start, old_stop = old_range
        new_start, new_stop = new_range
        in_place = (
            old_stop - old_start == new_stop - new_start
            and values[old_start:old_stop] == fresh_values[new_start:new_stop]
        )
        if not in_place:
            spliced: tuple[list, ...] = tuple([] for _ in BlockColumns.NAMES)
        unmatched: list[int] = []
        hot = False
        j = old_start
        for p in range(new_start, new_stop):
            value = fresh_values[p]
            scope = fresh_scopes[p]
            ref = fresh_refs[p]
            length = len(entries[ref][0])
            if length > snapshot.window_max:
                snapshot.window_max = length
            while j < old_stop and values[j] < value:
                unmatched.append(j)
                j += 1
            event_kind = None
            if j < old_stop and values[j] == value:
                i = j
                j += 1
                stats["refreshed"] += 1
                latency = index - rows.refreshed[i]
                old_ref = rows.refs[i]
                if (
                    rows.scopes[i] != scope
                    or entries[old_ref][1] != entries[ref][1]
                ):
                    event_kind = "structure"
                elif snapshot.classify(old_ref, rows.rids[i], ref) == "moved":
                    event_kind = "answers"
                if event_kind is not None:
                    stats["changed"] += 1
            else:
                i = None
                event_kind = "structure"
                # A new block is as stale as the range's stalest row.
                latency = index - min(
                    rows.refreshed[old_start:old_stop], default=index
                )
                stats["new"] += 1
            rid = absorbed.get(ref)
            if rid is None:
                rid = absorbed[ref] = snapshot.absorb(entries[ref][0])
            if event_kind is None:
                changed = rows.changed[i]
                weight = max(rows.weights[i] - 1, 0)
            else:
                events.append(
                    ChangeEvent(domain, value, scope, event_kind, index, latency)
                )
                hot = True
                changed = index
                weight = refresh
            if in_place:
                at = i + shift
                out.scopes[at] = scope
                out.refs[at] = ref
                out.rids[at] = rid
                out.refreshed[at] = index
                out.changed[at] = changed
                out.weights[at] = weight
            else:
                key = _row_key(domain, value) if i is None else rows.keys[i]
                for column, item in zip(
                    spliced,
                    (value, scope, ref, rid, index, changed, weight, key),
                ):
                    column.append(item)
        unmatched.extend(range(j, old_stop))
        for i in unmatched:
            stats["removed"] += 1
            events.append(
                ChangeEvent(
                    domain,
                    values[i],
                    rows.scopes[i],
                    "removed",
                    index,
                    index - rows.refreshed[i],
                )
            )
            hot = True
        if not in_place:
            start, stop = old_start + shift, old_stop + shift
            for column, items in zip(out.columns(), spliced):
                column[start:stop] = array(column.typecode, items)
            shift += (new_stop - new_start) - (old_stop - old_start)
        return hot, shift

    @staticmethod
    def _span_end_at(
        span_bounds: list[tuple[int, int]], span_ends: dict, value: int
    ) -> int:
        """End of the current routed span containing ``value``.

        Scope skips clamp at span ends in a full scan (the walk restarts
        per span), so an extension never swallows across a span gap.
        """
        end = span_ends.get(value)
        if end is not None:
            return end
        for start, stop in span_bounds:
            if start <= value <= stop:
                return stop
        return value

    # -- accumulated state ----------------------------------------------

    def _accumulated(
        self, snapshot: DomainSnapshot, started_at: float
    ) -> EcsScanResult:
        """The remembered state as a full-scan-shaped result.

        Row for row what a full scan of the current routed space would
        return (windows are drawn from whichever round last refreshed
        each block, but rotation saturates each supplier's roster, so
        the aggregate address views match a fresh full scan — the
        equivalence the delta suite asserts).  The routed answers are a
        columnar view over the snapshot's own columns (shared, never
        copied: rounds replace columns instead of writing them) and the
        routed prefix of its window table.
        """
        rows, sparse = snapshot.rows, snapshot.sparse_rows
        source_len = snapshot.source_len
        prefixes = self._prefixes.setdefault(source_len, {})
        entries = snapshot.windows.entries
        result = EcsScanResult(domain=snapshot.domain, started_at=started_at)
        result.finished_at = self.scanner.clock.now
        result.queries_sent = len(rows) + snapshot.sparse_positions
        result.sparse_queries = snapshot.sparse_positions
        result.sparse_answered = len(sparse)
        columnar = ColumnarResponses(source_len, prefixes=prefixes)
        if len(rows):
            columnar.chunks.append(
                (
                    rows.values,
                    rows.scopes,
                    rows.refs,
                    entries[: snapshot.routed_windows],
                )
            )
        result.attach_columnar(columnar)
        cached = self._sparse_views.get(snapshot.domain)
        if cached is None or cached[0] is not sparse:
            responses = []
            for value, scope, ref in zip(sparse.values, sparse.scopes, sparse.refs):
                subnet = prefixes.get(value)
                if subnet is None:
                    subnet = prefixes[value] = Prefix(4, value, source_len)
                responses.append(EcsResponse(subnet, scope, *entries[ref]))
            cached = self._sparse_views[snapshot.domain] = (sparse, responses)
        result.sparse_responses = list(cached[1])
        return result

    def accumulated(self, domain: str) -> EcsScanResult:
        """The current accumulated state of one domain."""
        snapshot = self.snapshots[domain]
        return self._accumulated(snapshot, self.scanner.clock.now)

    # -- telemetry -------------------------------------------------------

    def _record_domain(
        self,
        domain: str,
        refreshed: int,
        removed: int,
        queries: int,
        stats: dict | None = None,
    ) -> None:
        registry = self.telemetry.registry
        if not registry.enabled:
            return
        snapshot = self.snapshots[domain]
        full_cost = len(snapshot.rows) + snapshot.sparse_positions
        registry.counter("delta.probes_sent", domain=domain).inc(queries)
        registry.counter("delta.queries_saved", domain=domain).inc(
            max(full_cost - queries, 0)
        )
        registry.counter(
            "delta.blocks", domain=domain, kind="refreshed"
        ).inc(refreshed)
        registry.counter("delta.blocks", domain=domain, kind="removed").inc(
            removed
        )
        if stats is not None:
            registry.counter("delta.blocks", domain=domain, kind="new").inc(
                stats["new"]
            )
            registry.counter(
                "delta.blocks", domain=domain, kind="changed"
            ).inc(stats["changed"])


# ----------------------------------------------------------------------
# Equivalence digests
# ----------------------------------------------------------------------


def result_digest(result: EcsScanResult) -> dict:
    """A comparable fingerprint of one scan result's measured state.

    Covers the row structure (subnet, scope, answer AS — rotation-
    independent) and the aggregate address views (saturated unions, so
    rotation-independent too); per-row answer windows are deliberately
    excluded — they depend on rotation phase, which differs between any
    two scans by design.
    """
    rows = sorted(
        (r.subnet.value, r.subnet.length, r.scope, r.answer_asn or -1)
        for r in result.responses
    )
    sparse = sorted(
        (r.subnet.value, r.subnet.length, r.scope, r.answer_asn or -1)
        for r in result.sparse_responses
    )
    addresses = sorted((a.version, a.value) for a in result.addresses())
    by_asn = {
        asn: sorted((a.version, a.value) for a in bucket)
        for asn, bucket in result.addresses_by_asn().items()
    }
    return {
        "rows": rows,
        "sparse": sparse,
        "addresses": addresses,
        "by_asn": by_asn,
        "slash24s": result.slash24s_by_asn(),
    }

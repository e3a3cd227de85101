"""The version-1 snapshot encoder, kept as the tests' reference.

The store now writes version 2 (packed columns), but the pinned
fixtures under ``data/`` — the ``snapshots-2022`` files and the
``state_crc`` values of ``round_accounting.json`` — are version-1
documents.  Encoding any snapshot through this function gives the
canonical, merge-history-independent document those fixtures pin, so
the tests compare every engine state against it.
"""

from itertools import chain


def encode_snapshot(snapshot) -> dict:
    """One domain snapshot as a JSON-safe dict.

    Written straight from the columns.  Answer windows are deduplicated
    into a table of address lists in first-use order over the rows, then
    the sparse rows (the answer AS is stored per row); rosters are
    compacted to their union-find roots in first-use order, so the
    encoding is independent of merge history.
    """
    rows, sparse, windows = snapshot.rows, snapshot.sparse_rows, snapshot.windows
    table_index: dict[tuple, int] = {}
    table: list = []
    table_ref = [0] * len(windows)
    window_pairs = windows.pairs
    for ref in dict.fromkeys(chain(rows.refs, sparse.refs)):
        pairs = window_pairs[ref]
        position = table_index.get(pairs)
        if position is None:
            position = table_index[pairs] = len(table)
            table.append([list(pair) for pair in pairs])
        table_ref[ref] = position
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
    asn_of = [entry[1] for entry in windows.entries].__getitem__
    table_of = table_ref.__getitem__
    encoded_rows = list(
        map(
            list,
            zip(
                rows.values,
                rows.scopes,
                map(table_of, rows.refs),
                map(asn_of, rows.refs),
                map(roster_of.__getitem__, rows.rids),
                rows.refreshed,
                rows.changed,
                rows.weights,
            ),
        )
    )
    encoded_sparse = list(
        map(
            list,
            zip(
                sparse.values,
                sparse.scopes,
                map(table_of, sparse.refs),
                map(asn_of, sparse.refs),
            ),
        )
    )
    return {
        "domain": snapshot.domain,
        "source_len": snapshot.source_len,
        "round": snapshot.round,
        "seeded_at": snapshot.seeded_at,
        "spans": [list(span) for span in snapshot.spans],
        "gaps": [list(gap) for gap in snapshot.gaps],
        "table": table,
        "rows": encoded_rows,
        "sparse": encoded_sparse,
        "rosters": rosters,
        "sparse_positions": snapshot.sparse_positions,
        "window_max": snapshot.window_max,
    }

"""Delta-scan engine: snapshots, steady state, detection, equivalence.

The engine's contract, tested end to end on tiny worlds:

* a steady-state delta round costs a small fraction of a full rescan
  and surfaces zero change events;
* the refresh wheel re-covers every primary block within
  ``refresh_rounds`` rounds (secondary within the stretched period);
* one injected deployment change of every churn kind surfaces within
  ``refresh_rounds`` rounds;
* the delta-accumulated state stays digest-identical to a fresh full
  rescan of the (churned) world, at every worker count;
* snapshots round-trip through the store, refuse fingerprint
  mismatches, and read as None when torn or malformed; version-1 files
  still load, and every state re-encodes to the same version-1
  reference document (``snapshot_v1.py``).

Per-response address *windows* are never asserted across worker
counts: sharded rounds reseed rotation streams per shard, so windows
may differ while every analysis-visible aggregate matches (the same
carve-out as the sharded-equivalence suite).
"""

import base64
import json
import shutil
import zlib
from array import array
from pathlib import Path

import pytest

from repro.errors import CheckpointError
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan.campaign import ScanCampaign
from repro.scan.checkpoint import payload_crc
from repro.scan.ecs_scanner import EcsScanner, EcsScanSettings
from repro.scan.incremental import (
    SNAPSHOT_VERSION,
    DeltaScanEngine,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
    result_digest,
)
from repro.scan.sharding import ShardedCampaignExecutor
from repro.worldgen import WorldConfig, build_world
from repro.worldgen.deployment import DeploymentChurn, scan_time
from tests.scan.snapshot_v1 import encode_snapshot as encode_v1

SEED = 2022
DOMAINS = (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK)


def _make_engine(seed=SEED, workers=1, **engine_kwargs):
    """A fresh tiny world with its scanner/executor and delta engine.

    Every test builds its own: churn drills mutate the assignment map,
    which would poison a shared session world.
    """
    world = build_world(WorldConfig.tiny(seed=seed))
    world.clock.advance_to(scan_time(2022, 1))
    settings = EcsScanSettings(workers=workers, campaign_seed=seed)
    scanner = EcsScanner(world.route53, world.routing, world.clock, settings)
    executor = scanner
    if workers > 1 and ShardedCampaignExecutor.supported():
        executor = ShardedCampaignExecutor(scanner, workers)
    engine = DeltaScanEngine(executor, **engine_kwargs)
    return world, executor, engine


def _close(executor):
    if isinstance(executor, ShardedCampaignExecutor):
        executor.close()


def _block_rows(snapshot):
    """Per-row ``(value, scope, addresses, asn, refreshed, changed,
    weight, key)`` tuples, read from the snapshot's columns."""
    entries = snapshot.windows.entries
    rows = snapshot.rows
    return [
        (value, scope, *entries[ref], refreshed, changed, weight, key)
        for value, scope, ref, refreshed, changed, weight, key in zip(
            rows.values, rows.scopes, rows.refs, rows.refreshed,
            rows.changed, rows.weights, rows.keys,
        )
    ]


def _sparse_rows(snapshot):
    """Per-row ``(value, scope, addresses, asn)`` sparse tuples."""
    entries = snapshot.windows.entries
    sparse = snapshot.sparse_rows
    return [
        (value, scope, *entries[ref])
        for value, scope, ref in zip(sparse.values, sparse.scopes, sparse.refs)
    ]


class TestSteadyState:
    @pytest.fixture(scope="class")
    def steady(self):
        world, executor, engine = _make_engine(refresh_rounds=3)
        engine.ensure_seeded()
        rounds = [engine.run_round() for _ in range(6)]
        yield world, engine, rounds
        _close(executor)

    def test_rounds_are_quiet(self, steady):
        _, _, rounds = steady
        assert all(not rnd.events for rnd in rounds)

    def test_rounds_are_cheap(self, steady):
        _, _, rounds = steady
        for rnd in rounds:
            assert 0 < rnd.queries_sent
            assert rnd.queries_frac <= 0.30

    def test_primary_wheel_covers_within_k(self, steady):
        """Every primary row is refreshed in any k consecutive rounds."""
        _, engine, _ = steady
        snapshot = engine.snapshots[RELAY_DOMAIN_QUIC]
        # After 6 rounds, no primary row is older than k rounds.
        assert len(snapshot.rows) > 0
        assert all(6 - refreshed <= 3 for refreshed in snapshot.rows.refreshed)

    def test_secondary_wheel_covers_within_stretched_period(self, steady):
        _, engine, _ = steady
        assert engine.period(RELAY_DOMAIN_FALLBACK) == 6
        snapshot = engine.snapshots[RELAY_DOMAIN_FALLBACK]
        assert len(snapshot.rows) > 0
        assert all(refreshed >= 0 for refreshed in snapshot.rows.refreshed)

    def test_accumulated_matches_fresh_full_rescan(self, steady):
        world, engine, _ = steady
        scanner = EcsScanner(
            world.route53, world.routing, world.clock,
            EcsScanSettings(campaign_seed=SEED),
        )
        for domain in DOMAINS:
            accumulated = result_digest(engine.accumulated(domain))
            fresh = result_digest(scanner.scan(domain))
            assert accumulated == fresh, domain


class TestChurnDetection:
    @pytest.fixture(scope="class")
    def drilled(self):
        world, executor, engine = _make_engine(refresh_rounds=3)
        engine.ensure_seeded()
        for _ in range(3):
            engine.run_round()
        churn = DeploymentChurn(
            world.assignment, world.ingress_v4, world.clock.now
        )
        records = churn.inject_standard(seed=SEED)
        rounds = [engine.run_round() for _ in range(3)]
        yield world, engine, records, rounds
        _close(executor)

    def test_all_four_kinds_injected(self, drilled):
        _, _, records, _ = drilled
        assert sorted(r.kind for r in records) == sorted(DeploymentChurn.KINDS)

    def test_every_change_detected_within_k(self, drilled):
        _, _, records, rounds = drilled
        detected = {}
        for attempt, rnd in enumerate(rounds):
            for event in rnd.events:
                detected.setdefault(event.value, attempt + 1)
        for record in records:
            assert record.block_value in detected, record
            assert detected[record.block_value] <= 3, record

    def test_accumulated_matches_full_rescan_of_churned_world(self, drilled):
        world, engine, _, _ = drilled
        scanner = EcsScanner(
            world.route53, world.routing, world.clock,
            EcsScanSettings(campaign_seed=SEED),
        )
        for domain in DOMAINS:
            accumulated = result_digest(engine.accumulated(domain))
            fresh = result_digest(scanner.scan(domain))
            assert accumulated == fresh, domain


class TestBudget:
    def test_budget_defers_and_age_rule_recovers(self):
        _, executor, engine = _make_engine(budget=150, refresh_rounds=3)
        try:
            engine.ensure_seeded()
            unbudgeted_due = sum(
                len(snapshot.rows) + snapshot.sparse_positions
                for snapshot in engine.snapshots.values()
            ) // 3
            rounds = [engine.run_round() for _ in range(12)]
            assert all(rnd.budget_deferred > 0 for rnd in rounds)
            assert all(
                rnd.queries_sent < unbudgeted_due for rnd in rounds
            )
            # Deferred rows re-arm via the age rule: every row still
            # gets refreshed eventually, just on a longer horizon.
            snapshot = engine.snapshots[RELAY_DOMAIN_QUIC]
            refreshed = sum(1 for last in snapshot.rows.refreshed if last >= 0)
            assert refreshed > 0
            latest = max(snapshot.rows.refreshed)
            assert latest >= 10
        finally:
            _close(executor)


@pytest.mark.skipif(
    not ShardedCampaignExecutor.supported(),
    reason="sharded execution requires the fork start method",
)
class TestWorkerEquivalence:
    @pytest.fixture(scope="class")
    def matrix(self):
        """workers -> (round summaries, accumulated digests, detections)."""
        out = {}
        for workers in (1, 2, 4):
            world, executor, engine = _make_engine(
                workers=workers, refresh_rounds=3
            )
            engine.ensure_seeded()
            for _ in range(3):
                engine.run_round()
            churn = DeploymentChurn(
                world.assignment, world.ingress_v4, world.clock.now
            )
            records = churn.inject_standard(seed=SEED)
            rounds = [engine.run_round() for _ in range(3)]
            digests = {
                domain: result_digest(engine.accumulated(domain))
                for domain in DOMAINS
            }
            detected = {}
            for attempt, rnd in enumerate(rounds):
                for event in rnd.events:
                    detected.setdefault(event.value, attempt + 1)
            summaries = [
                (rnd.index, rnd.queries_sent, rnd.sparse_queries)
                for rnd in engine.rounds
            ]
            out[workers] = (summaries, digests, records, detected)
            _close(executor)
        return out

    def test_accumulated_state_identical_across_worker_counts(self, matrix):
        _, reference, _, _ = matrix[1]
        for workers in (2, 4):
            _, digests, _, _ = matrix[workers]
            assert digests == reference, f"workers={workers}"

    def test_query_accounting_identical_across_worker_counts(self, matrix):
        reference, _, _, _ = matrix[1]
        for workers in (2, 4):
            summaries, _, _, _ = matrix[workers]
            assert summaries == reference, f"workers={workers}"

    def test_detection_identical_across_worker_counts(self, matrix):
        _, _, records, reference = matrix[1]
        for record in records:
            assert record.block_value in reference
        for workers in (2, 4):
            _, _, _, detected = matrix[workers]
            assert detected == reference, f"workers={workers}"


class TestSnapshotStore:
    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("snapshots")
        store = SnapshotStore(directory, {"mode": "delta", "seed": SEED})
        world, executor, engine = _make_engine(store=store)
        engine.ensure_seeded()
        engine.run_round()
        yield directory, store, engine
        _close(executor)

    def test_codec_round_trip(self, seeded):
        _, _, engine = seeded
        for domain in DOMAINS:
            snapshot = engine.snapshots[domain]
            restored = decode_snapshot(encode_snapshot(snapshot))
            assert restored.domain == snapshot.domain
            assert restored.round == snapshot.round
            assert restored.window_max == snapshot.window_max
            assert restored.spans == snapshot.spans
            assert restored.gaps == snapshot.gaps
            assert restored.sparse_positions == snapshot.sparse_positions
            assert _block_rows(restored) == _block_rows(snapshot)
            assert _sparse_rows(restored) == _sparse_rows(snapshot)
            # Roster compaction is merge-history independent: each row's
            # reachable roster survives the trip.
            assert len(restored.rows.rids) == len(snapshot.rows.rids) > 0
            for old, new in zip(snapshot.rows.rids, restored.rows.rids):
                assert (
                    restored.rosters[restored.find(new)]
                    == snapshot.rosters[snapshot.find(old)]
                )

    def test_store_restores_saved_state(self, seeded):
        directory, store, engine = seeded
        for domain in DOMAINS:
            loaded = store.load(domain)
            assert loaded is not None
            assert loaded.round == engine.snapshots[domain].round

    def test_missing_snapshot_reads_as_none(self, seeded):
        _, store, _ = seeded
        assert store.load("nonexistent.example.") is None

    def test_torn_snapshot_reads_as_none(self, seeded):
        directory, store, _ = seeded
        path = store.path_for(RELAY_DOMAIN_QUIC)
        torn = path.read_text()[: len(path.read_text()) // 2]
        try:
            path.write_text(torn)
            assert store.load(RELAY_DOMAIN_QUIC) is None
        finally:
            path.unlink()

    def test_version_mismatch_reads_as_none(self, seeded):
        directory, store, engine = seeded
        store.save(engine.snapshots[RELAY_DOMAIN_QUIC])
        path = store.path_for(RELAY_DOMAIN_QUIC)
        data = json.loads(path.read_text())
        data["version"] = 999
        path.write_text(json.dumps(data))
        assert store.load(RELAY_DOMAIN_QUIC) is None
        store.save(engine.snapshots[RELAY_DOMAIN_QUIC])

    def test_fingerprint_mismatch_refuses_resume(self, seeded):
        directory, store, engine = seeded
        store.save(engine.snapshots[RELAY_DOMAIN_QUIC])
        other = SnapshotStore(directory, {"mode": "full", "seed": SEED})
        with pytest.raises(CheckpointError):
            other.load(RELAY_DOMAIN_QUIC)


class TestCampaignMode:
    def test_unknown_mode_rejected(self, tiny_world):
        world = tiny_world
        with pytest.raises(ValueError):
            ScanCampaign(
                server=world.route53,
                routing=world.routing,
                clock=world.clock,
                mode="continuous",
            )

    def test_mode_is_part_of_the_fingerprint(self, tiny_world):
        world = tiny_world

        def fingerprint(mode):
            return ScanCampaign(
                server=world.route53,
                routing=world.routing,
                clock=world.clock,
                mode=mode,
            )._fingerprint()

        full, delta = fingerprint("full"), fingerprint("delta")
        assert full != delta
        assert {k: v for k, v in full.items() if k != "mode"} == {
            k: v for k, v in delta.items() if k != "mode"
        }

    def test_delta_engine_requires_delta_mode(self, tiny_world):
        world = tiny_world
        campaign = ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
        )
        with pytest.raises(ValueError):
            campaign.delta_engine()
        with pytest.raises(ValueError):
            campaign.run_continuous(2022, 1, 1)

    def test_run_continuous_records_archives(self, tmp_path):
        world = build_world(WorldConfig.tiny(seed=SEED))
        with ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
            settings=EcsScanSettings(campaign_seed=SEED),
            mode="delta",
            snapshot_dir=tmp_path,
        ) as campaign:
            rounds = campaign.run_continuous(2022, 1, 2)
            assert len(rounds) == 2
            assert all(not rnd.events for rnd in rounds)
            assert len(campaign.default_archive) > 0
            assert len(campaign.fallback_archive) > 0
            # Seed scan + one record per round.
            assert campaign.default_archive.scan_count() == 3


DATA = Path(__file__).resolve().parent / "data"


def _pinned_engine(seed, budget=None):
    """The pinned-accounting setup: a scale-0.02 world, sequential."""
    world = build_world(WorldConfig.small(seed=seed))
    world.clock.advance_to(scan_time(2022, 1))
    scanner = EcsScanner(
        world.route53, world.routing, world.clock,
        EcsScanSettings(campaign_seed=seed),
    )
    return world, DeltaScanEngine(scanner, budget=budget, refresh_rounds=3)


def _round_record(rnd):
    return {
        "index": rnd.index,
        "queries_sent": rnd.queries_sent,
        "sparse_queries": rnd.sparse_queries,
        "budget_deferred": rnd.budget_deferred,
        "full_cost": rnd.full_cost,
        "refreshed_blocks": rnd.refreshed_blocks,
        "changed_blocks": rnd.changed_blocks,
        "new_blocks": rnd.new_blocks,
        "removed_blocks": rnd.removed_blocks,
        "events": [
            [e.domain, e.value, e.scope, e.kind, e.round, e.latency]
            for e in rnd.events
        ],
    }


def _state_crc(snapshot):
    return zlib.crc32(
        json.dumps(
            encode_v1(snapshot), sort_keys=True, separators=(",", ":")
        ).encode()
    )


PINNED = json.loads((DATA / "round_accounting.json").read_text())


class TestPinnedRoundAccounting:
    """Per-round accounting and final state, pinned from the row-object
    engine that preceded the columnar one (``data/README.md``).

    Steady rounds, then ``inject_standard``, on two worlds; plus a
    budgeted run, whose deferral counts pin the priority order and the
    age rule.  The final snapshot crc pins every row's window, roster,
    refresh round, change round and weight.
    """

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_rounds_match_pinned_accounting(self, case):
        pinned = PINNED[case]
        world, engine = _pinned_engine(pinned["seed"], pinned["budget"])
        engine.ensure_seeded()
        steady = [
            _round_record(engine.run_round()) for _ in pinned["steady"]
        ]
        assert steady == pinned["steady"]
        churned = []
        if pinned["churned"]:
            churn = DeploymentChurn(
                world.assignment, world.ingress_v4, world.clock.now
            )
            records = churn.inject_standard(seed=pinned["seed"])
            assert sorted(r.block_value for r in records) == pinned["churn_blocks"]
            churned = [
                _round_record(engine.run_round()) for _ in pinned["churned"]
            ]
        assert churned == pinned["churned"]
        assert {
            domain: _state_crc(snapshot)
            for domain, snapshot in engine.snapshots.items()
        } == pinned["state_crc"]


class TestListResultIntake:
    """Results that arrive as ``responses`` lists (the message-level
    reference path) are packed at the door and fold to exactly the
    state the columnar kernel's results fold to."""

    def test_reference_path_folds_identically(self):
        states = {}
        for kernel in (True, False):
            world = build_world(WorldConfig.tiny(seed=SEED))
            world.clock.advance_to(scan_time(2022, 1))
            world.route53.answer_cache.enabled = kernel
            scanner = EcsScanner(
                world.route53, world.routing, world.clock,
                EcsScanSettings(campaign_seed=SEED),
            )
            engine = DeltaScanEngine(scanner, refresh_rounds=3)
            seeds = engine.ensure_seeded()
            assert all(
                (result.columnar_view() is None) is (not kernel)
                for result in seeds.values()
            )
            rounds = [_round_record(engine.run_round()) for _ in range(2)]
            states[kernel] = (
                rounds,
                {
                    domain: encode_snapshot(snapshot)
                    for domain, snapshot in engine.snapshots.items()
                },
            )
        assert states[True][0][0]["queries_sent"] > 0
        assert states[False] == states[True]


class TestSnapshotFormatFixture:
    """Snapshots written by the row-object engine (format version 1)
    still load, re-encode through the version-1 reference to the
    identical document and checksum, and migrate to version 2 on the
    next save."""

    FILES = sorted((DATA / "snapshots-2022").glob("snapshot-*.json"))

    def test_fixture_files_present(self):
        assert len(self.FILES) == 2

    @pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
    def test_reencodes_byte_identically(self, path):
        document = json.loads(path.read_text())
        assert document["version"] == 1
        snapshot = decode_snapshot(document, version=1)
        assert len(snapshot.rows) == len(document["rows"]) > 0
        reencoded = {
            "version": 1,
            "fingerprint": document["fingerprint"],
            **encode_v1(snapshot),
        }
        reencoded["crc"] = payload_crc(reencoded)
        assert reencoded == document
        # The store writes compact JSON: the same bytes as the file.
        assert json.dumps(reencoded, separators=(",", ":")) == path.read_text()

    def test_store_resumes_from_fixture(self):
        store = SnapshotStore(
            DATA / "snapshots-2022",
            json.loads(self.FILES[0].read_text())["fingerprint"],
        )
        for domain in DOMAINS:
            snapshot = store.load(domain)
            assert snapshot is not None
            assert snapshot.round == 3

    def test_v1_file_migrates_to_v2_on_save(self, tmp_path):
        fingerprint = json.loads(self.FILES[0].read_text())["fingerprint"]
        for path in self.FILES:
            shutil.copy(path, tmp_path / path.name)
        store = SnapshotStore(tmp_path, fingerprint)
        for domain in DOMAINS:
            original = json.loads(store.path_for(domain).read_text())
            expected = {
                key: value
                for key, value in original.items()
                if key not in ("version", "fingerprint", "crc")
            }
            snapshot = store.load(domain)
            assert encode_v1(snapshot) == expected
            store.save(snapshot)
            written = json.loads(store.path_for(domain).read_text())
            assert written["version"] == SNAPSHOT_VERSION == 2
            assert written["crc"] == payload_crc(written)
            assert encode_v1(store.load(domain)) == expected


class TestSnapshotRoundTrip:
    """Version-2 round trips lose nothing the version-1 reference
    encodes, on every pinned world, steady and after churn, with and
    without a budget (whose deferrals leave refresh rounds uneven)."""

    @pytest.mark.parametrize("budget", [None, 150])
    @pytest.mark.parametrize("seed", [2022, 2023, 2024, 2025])
    def test_decode_encode_preserves_reference_document(
        self, tmp_path, seed, budget
    ):
        store = SnapshotStore(tmp_path, {"seed": seed, "budget": budget})
        world, executor, engine = _make_engine(
            seed=seed, store=store, budget=budget, refresh_rounds=3
        )
        engine.ensure_seeded()
        engine.run_round()
        self._assert_round_trips(engine, store)
        DeploymentChurn(
            world.assignment, world.ingress_v4, world.clock.now
        ).inject_standard(seed=seed)
        engine.run_round()
        engine.run_round()
        self._assert_round_trips(engine, store)
        # A snapshot edited since its last compaction (here: its first
        # and last rows dropped) still encodes to the reference state.
        for snapshot in engine.snapshots.values():
            rows = snapshot.rows
            snapshot.rows = rows.take([(1, len(rows) - 1)])
            reference = encode_v1(snapshot)
            assert encode_v1(decode_snapshot(encode_snapshot(snapshot))) == reference
        _close(executor)

    @staticmethod
    def _assert_round_trips(engine, store):
        for domain in DOMAINS:
            snapshot = engine.snapshots[domain]
            reference = encode_v1(snapshot)
            assert reference["rows"] and reference["table"]
            document = encode_snapshot(snapshot)
            assert encode_v1(decode_snapshot(document)) == reference
            resumed = store.load(domain)
            assert encode_snapshot(resumed) == document
            assert encode_v1(resumed) == reference


def _column(document, group, name, typecode):
    column = array(typecode)
    column.frombytes(base64.b64decode(document[group][name]))
    return column


def _set_column(document, group, name, column):
    document[group][name] = base64.b64encode(column.tobytes()).decode("ascii")


def _odd_byte_count(document):
    values = _column(document, "rows", "values", "B")
    _set_column(document, "rows", "values", values + array("B", [0]))


def _short_row_column(document):
    scopes = _column(document, "rows", "scopes", "B")
    _set_column(document, "rows", "scopes", scopes[:-1])


def _short_sparse_column(document):
    refs = _column(document, "sparse", "refs", "I")
    _set_column(document, "sparse", "refs", refs[:-1])


def _ref_past_windows(document):
    refs = _column(document, "rows", "refs", "I")
    refs[len(refs) // 2] = len(document["windows"])
    _set_column(document, "rows", "refs", refs)


def _sparse_ref_past_windows(document):
    refs = _column(document, "sparse", "refs", "I")
    refs[0] = len(document["windows"]) + 7
    _set_column(document, "sparse", "refs", refs)


def _rid_past_rosters(document):
    rids = _column(document, "rows", "rids", "I")
    rids[-1] = len(document["rosters"])
    _set_column(document, "rows", "rids", rids)


def _values_repeat(document):
    values = _column(document, "rows", "values", "I")
    values[1] = values[0]
    _set_column(document, "rows", "values", values)


def _values_descend(document):
    values = _column(document, "sparse", "values", "I")
    values[0], values[1] = values[1], values[0]
    _set_column(document, "sparse", "values", values)


class TestMalformedV2Quarantine:
    """A version-2 file whose crc holds but whose columns disagree is
    quarantined (one warning line, re-seed), never decoded into a bad
    snapshot.  Each case recomputes the crc, so the column validation —
    not the checksum — is what rejects it."""

    FIXTURE = DATA / "snapshots-2022" / "snapshot-mask.icloud.com.json"

    @pytest.mark.parametrize(
        "corrupt",
        [
            _odd_byte_count,
            _short_row_column,
            _short_sparse_column,
            _ref_past_windows,
            _sparse_ref_past_windows,
            _rid_past_rosters,
            _values_repeat,
            _values_descend,
        ],
        ids=lambda corrupt: corrupt.__name__.strip("_"),
    )
    def test_inconsistent_columns_are_quarantined(self, tmp_path, capsys, corrupt):
        fixture = json.loads(self.FIXTURE.read_text())
        store = SnapshotStore(tmp_path, fixture["fingerprint"])
        snapshot = decode_snapshot(fixture, version=1)
        store.save(snapshot)
        path = store.path_for(snapshot.domain)
        document = json.loads(path.read_text())
        assert store.load(snapshot.domain) is not None
        corrupt(document)
        document["crc"] = payload_crc(document)
        path.write_text(json.dumps(document))
        assert store.load(snapshot.domain) is None
        err = capsys.readouterr().err
        assert "quarantined" in err and "malformed snapshot" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

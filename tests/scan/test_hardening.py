"""Daemon hardening: quarantine, degraded modes, drain, watchdog, re-seed.

The always-on failure drills from DESIGN.md §12: corrupt persisted state
is quarantined (never a traceback), persistence failures degrade while
scanning continues bit-identically, a drain request stops the campaign
cleanly at a round boundary, a hung shard is detected and the scan still
produces the sequential result, and an abandoned round re-seeds from the
last persisted snapshots.
"""

import json
import signal

import pytest

from repro.errors import WorkerCrashed
from repro.faults import FaultPlan
from repro.faults.profiles import FaultProfile
from repro.monitor import StatusBoard
from repro.scan.campaign import ScanCampaign
from repro.scan.checkpoint import CampaignCheckpointer, payload_crc
from repro.scan.drain import DrainController
from repro.scan.ecs_scanner import EcsScanSettings
from repro.scan.incremental import SnapshotStore, encode_snapshot
from repro.telemetry import Telemetry
from repro.worldgen import WorldConfig, build_world

SEED = 2022


class _EventSink:
    """Minimal EventLog stand-in recording every emit."""

    def __init__(self):
        self.records = []

    def emit(self, event, **fields):
        self.records.append((event, fields))

    def kinds(self):
        return [event for event, _ in self.records]


def _storage_plan(**rates):
    return FaultPlan(FaultProfile(name="storage-drill", **rates), seed=SEED)


def _settings(fault_plan=None, workers=1):
    return EcsScanSettings(
        workers=workers, campaign_seed=SEED, fault_plan=fault_plan
    )


def _campaign(**overrides):
    world = build_world(WorldConfig.tiny(seed=SEED))
    fields = dict(
        server=world.route53,
        routing=world.routing,
        clock=world.clock,
        settings=_settings(),
    )
    fields.update(overrides)
    return world, ScanCampaign(**fields)


def _counter_total(registry, name):
    return sum(
        entry["value"]
        for entry in registry.snapshot()["counters"]
        if entry["name"] == name
    )


def _assert_same_months(a, b):
    assert len(a) == len(b)
    for month_a, month_b in zip(a, b):
        assert (month_a.year, month_a.month) == (month_b.year, month_b.month)
        for scan_a, scan_b in (
            (month_a.default, month_b.default),
            (month_a.fallback, month_b.fallback),
        ):
            if scan_a is None:
                assert scan_b is None
                continue
            assert scan_a.queries_sent == scan_b.queries_sent
            assert scan_a.responses == scan_b.responses
            assert scan_a.sparse_responses == scan_b.sparse_responses


class TestQuarantine:
    """Corrupt persisted files: one warning line, never a traceback."""

    FINGERPRINT = {"mode": "test"}

    def _saved_checkpoint(self, tmp_path):
        checkpointer = CampaignCheckpointer(tmp_path, self.FINGERPRINT)
        checkpointer.save(2022, 1, {"payload": [1, 2]})
        return checkpointer, checkpointer.path_for(2022, 1)

    def test_bit_flip_is_quarantined(self, tmp_path, capsys):
        checkpointer, path = self._saved_checkpoint(tmp_path)
        document = json.loads(path.read_text())
        document["payload"] = [1, 3]  # flipped bit, stale crc
        path.write_text(json.dumps(document))
        assert checkpointer.load(2022, 1) is None
        err = capsys.readouterr().err
        assert "quarantined" in err and "checksum mismatch" in err
        assert "Traceback" not in err

    def test_garbage_json_is_quarantined(self, tmp_path, capsys):
        checkpointer, path = self._saved_checkpoint(tmp_path)
        path.write_text("{definitely not json")
        assert checkpointer.load(2022, 1) is None
        err = capsys.readouterr().err
        assert "quarantined" in err and "unparseable" in err

    def test_non_object_is_quarantined(self, tmp_path, capsys):
        checkpointer, path = self._saved_checkpoint(tmp_path)
        path.write_text('["a", "list"]')
        assert checkpointer.load(2022, 1) is None
        assert "not a JSON object" in capsys.readouterr().err

    def test_crc_survives_reformatting(self, tmp_path):
        # The checksum is over canonical JSON, not on-disk bytes: a
        # pretty-printer pass must not quarantine an intact file.
        checkpointer, path = self._saved_checkpoint(tmp_path)
        document = json.loads(path.read_text())
        path.write_text(json.dumps(document, indent=2, sort_keys=True))
        assert checkpointer.load(2022, 1)["payload"] == [1, 2]

    @pytest.mark.parametrize(
        "body,reason",
        [
            ('{"version": 1, "crc": 1, "rows": []}', "checksum mismatch"),
            ("{torn snapsh", "unparseable"),
            ("[1, 2]", "not a JSON object"),
        ],
    )
    def test_snapshot_store_quarantines_too(self, tmp_path, capsys, body, reason):
        store = SnapshotStore(tmp_path, self.FINGERPRINT)
        store.path_for("x.example.").write_text(body)
        assert store.load("x.example.") is None
        err = capsys.readouterr().err
        assert "quarantined" in err and reason in err

    def test_snapshot_crc_is_actually_written(self, tmp_path):
        # Guard the guard: a saved checkpoint carries a crc that the
        # canonical recomputation agrees with.
        _, path = self._saved_checkpoint(tmp_path)
        document = json.loads(path.read_text())
        assert document["crc"] == payload_crc(document)


class TestCheckpointDegraded:
    def test_campaign_survives_unwritable_checkpoints(self, tmp_path):
        telemetry = Telemetry()
        status = StatusBoard()
        events = _EventSink()
        world, campaign = _campaign(
            settings=_settings(fault_plan=_storage_plan(storage_error=1.0)),
            checkpoint_dir=tmp_path,
            telemetry=telemetry,
            status=status,
            events=events,
        )
        with campaign:
            months = campaign.run(world.scan_months())
        # Every month completed in memory; none persisted; no tracebacks.
        assert len(months) == len(world.scan_months())
        assert not list(tmp_path.glob("month-*.json"))
        assert not list(tmp_path.glob("*.tmp"))
        assert events.kinds().count("persistence_degraded") == len(months)
        assert "checkpoint_written" not in events.kinds()
        board = status.snapshot()
        assert board["checkpoint_degraded"] is True
        assert board["counters"]["months_unpersisted"] == len(months)
        registry = telemetry.registry
        injected = _counter_total(registry, "faults.storage.injected")
        surfaced = _counter_total(registry, "faults.storage.surfaced")
        absorbed = _counter_total(registry, "faults.storage.absorbed")
        assert injected == len(months)  # one single-attempt save per month
        assert injected == surfaced + absorbed

    def test_degraded_months_rescan_bit_identically(self, tmp_path):
        plan = _storage_plan(storage_error=1.0)
        world_a, campaign_a = _campaign(
            settings=_settings(fault_plan=plan), checkpoint_dir=tmp_path
        )
        with campaign_a:
            campaign_a.run(world_a.scan_months())
        # Nothing persisted, so the "resume" re-runs every month — and
        # must land on the same results as the degraded run kept in
        # memory: persistence failure never contaminates scan output.
        world_b, campaign_b = _campaign(
            settings=_settings(fault_plan=_storage_plan(storage_error=1.0)),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        with campaign_b:
            campaign_b.run(world_b.scan_months())
        _assert_same_months(campaign_a.months, campaign_b.months)


class TestSnapshotDegraded:
    def test_delta_campaign_absorbs_transient_save_faults(self, tmp_path):
        telemetry = Telemetry()
        events = _EventSink()
        world, campaign = _campaign(
            settings=_settings(fault_plan=_storage_plan(storage_error=0.4)),
            mode="delta",
            snapshot_dir=tmp_path,
            telemetry=telemetry,
            events=events,
        )
        with campaign:
            rounds = campaign.run_continuous(2022, 1, rounds=4)
        assert len(rounds) == 4  # degraded saves never abort a round
        assert not list(tmp_path.glob("*.tmp"))
        registry = telemetry.registry
        injected = _counter_total(registry, "faults.storage.injected")
        surfaced = _counter_total(registry, "faults.storage.surfaced")
        absorbed = _counter_total(registry, "faults.storage.absorbed")
        assert injected > 0  # the drill actually fired
        assert injected == surfaced + absorbed
        assert absorbed > 0  # retries (fresh attempt keys) healed some

    def test_exhausted_retries_carry_previous_snapshot_forward(self, tmp_path):
        telemetry = Telemetry()
        status = StatusBoard()
        events = _EventSink()
        world, campaign = _campaign(
            settings=_settings(fault_plan=_storage_plan(storage_error=1.0)),
            mode="delta",
            snapshot_dir=tmp_path,
            telemetry=telemetry,
            status=status,
            events=events,
        )
        with campaign:
            rounds = campaign.run_continuous(2022, 1, rounds=1)
        assert len(rounds) == 1
        # rate 1.0: every attempt of every save fails — nothing on disk,
        # but the round completed and the degradation is fully visible.
        assert not list(tmp_path.glob("snapshot-*.json"))
        assert "persistence_degraded" in events.kinds()
        assert status.snapshot()["snapshot_degraded"] is True
        registry = telemetry.registry
        injected = _counter_total(registry, "faults.storage.injected")
        surfaced = _counter_total(registry, "faults.storage.surfaced")
        assert injected == surfaced > 0  # nothing could be absorbed
        assert _counter_total(registry, "persistence.rounds_unpersisted") > 0


class TestGracefulDrain:
    def test_drain_stops_at_month_boundary_and_resume_completes(self, tmp_path):
        class _Drain:
            requested = False

        class _TripWire(_EventSink):
            def __init__(self, drain):
                super().__init__()
                self.drain = drain

            def emit(self, event, **fields):
                super().emit(event, **fields)
                if event == "month_completed":
                    self.drain.requested = True

        drain = _Drain()
        events = _TripWire(drain)
        world, campaign = _campaign(
            checkpoint_dir=tmp_path, drain=drain, events=events
        )
        calendar = world.scan_months()
        with campaign:
            months = campaign.run(calendar)
        # The in-flight month finished and checkpointed; nothing after.
        assert len(months) == 1
        assert len(list(tmp_path.glob("month-*.json"))) == 1
        interrupted = [f for e, f in events.records if e == "campaign_interrupted"]
        assert interrupted == [
            {"mode": "full", "months": 1, "planned": len(calendar)}
        ]
        assert "campaign_finished" not in events.kinds()

        # A straight-through reference run...
        world_ref, reference = _campaign()
        with reference:
            reference.run(world_ref.scan_months())
        # ...equals drained-then-resumed, bit for bit.
        world_b, resumed = _campaign(checkpoint_dir=tmp_path, resume=True)
        with resumed:
            resumed.run(world_b.scan_months())
        _assert_same_months(reference.months, resumed.months)

    def test_drain_stops_delta_rounds(self, tmp_path):
        class _Drain:
            requested = False

        drain = _Drain()
        events = _EventSink()
        world, campaign = _campaign(
            mode="delta", snapshot_dir=tmp_path, drain=drain, events=events
        )
        with campaign:
            engine = campaign.delta_engine()
            real = engine.run_round

            def tripping():
                drain.requested = True
                return real()

            engine.run_round = tripping
            rounds = campaign.run_continuous(2022, 1, rounds=5)
        # Round 0 ran to completion (drain is checked at boundaries
        # only), then the request was honoured.
        assert len(rounds) == 1
        interrupted = [f for e, f in events.records if e == "campaign_interrupted"]
        assert interrupted == [{"mode": "delta", "rounds": 1, "planned": 5}]


class TestDrainController:
    def test_first_signal_sets_flag_only(self):
        controller = DrainController()
        with controller:
            signal.raise_signal(signal.SIGTERM)
            assert controller.requested is True
            # Still alive, still draining: the flag is the whole effect.

    def test_install_is_idempotent_and_uninstall_restores(self):
        before = signal.getsignal(signal.SIGTERM)
        controller = DrainController().install()
        controller.install()  # second install must not capture itself
        assert signal.getsignal(signal.SIGTERM) == controller._handle
        controller.uninstall()
        assert signal.getsignal(signal.SIGTERM) == before

    def test_install_off_main_thread_reports_unavailable(self):
        import threading

        outcome = {}

        def attempt():
            try:
                DrainController().install()
                outcome["error"] = None
            except ValueError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=attempt)
        thread.start()
        thread.join()
        assert isinstance(outcome["error"], ValueError)


class TestHungShardWatchdog:
    def test_hang_is_detected_and_result_matches_sequential(self):
        plan = FaultPlan(
            FaultProfile(name="hang-drill", hang_shards=(0,), hang_attempts=1),
            seed=SEED,
        )
        telemetry = Telemetry()
        events = _EventSink()
        world, campaign = _campaign(
            settings=_settings(fault_plan=plan, workers=2),
            shard_deadline=0.75,
            telemetry=telemetry,
            events=events,
        )
        with campaign:
            months = campaign.run(world.scan_months()[:1])
        assert "shard_hung" in events.kinds()
        assert _counter_total(telemetry.registry, "shards.hung") >= 1

        # The hang drill fires only when a heartbeat watchdog is
        # configured, so the same plan at the same worker count without
        # a deadline is the clean reference — the kill/respawn recovery
        # must be bit-identical to the undisturbed sharded run.
        ref_plan = FaultPlan(
            FaultProfile(name="hang-drill", hang_shards=(0,), hang_attempts=1),
            seed=SEED,
        )
        world_ref, reference = _campaign(
            settings=_settings(fault_plan=ref_plan, workers=2)
        )
        with reference:
            reference.run(world_ref.scan_months()[:1])
        _assert_same_months(months, reference.months)


class TestRoundSkipped:
    def test_worker_crash_skips_round_and_reseeds(self, tmp_path):
        telemetry = Telemetry()
        status = StatusBoard()
        events = _EventSink()
        world, campaign = _campaign(
            mode="delta",
            snapshot_dir=tmp_path,
            telemetry=telemetry,
            status=status,
            events=events,
        )
        with campaign:
            engine = campaign.delta_engine()
            real = engine.run_round
            state = {"crashes": 1}

            def flaky():
                if state["crashes"]:
                    state["crashes"] -= 1
                    raise WorkerCrashed("respawn budget exhausted (drill)")
                return real()

            engine.run_round = flaky
            rounds = campaign.run_continuous(2022, 1, rounds=3)
        # One round abandoned, the other two ran; the campaign finished.
        assert len(rounds) == 2
        assert events.kinds().count("round_skipped") == 1
        assert "campaign_finished" in events.kinds()
        assert status.snapshot()["counters"]["rounds_skipped"] == 1
        assert _counter_total(telemetry.registry, "campaign.rounds_skipped") == 1

    def test_reseed_from_store_restores_persisted_state(self, tmp_path):
        world, campaign = _campaign(mode="delta", snapshot_dir=tmp_path)
        with campaign:
            engine = campaign.delta_engine()
            campaign.run_continuous(2022, 1, rounds=1)
            persisted = {
                domain: encode_snapshot(engine.store.load(domain))
                for domain in engine.domains
            }
            # Model a crashed round's half-applied in-memory state.
            victim = engine.domains[0]
            rows = engine.snapshots[victim].rows
            engine.snapshots[victim].rows = rows.take([(0, len(rows) - 1)])
            engine.snapshots[victim].round += 7
            engine.reseed_from_store()
            restored = {
                domain: encode_snapshot(engine.snapshots[domain])
                for domain in engine.domains
            }
        assert restored == persisted

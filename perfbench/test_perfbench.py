"""The benchmark's own tests: ``python3 -m pytest perfbench``.

Each workload runs one unit on the small pinned world and must pass its
output checks; a corrupted output (a dropped scan row, report row or
accumulated row) must fail them; the printed metric names must match
``BENCHMARK.json``; wall times are divided by the host's slowdown; a
sharded run leaves no process behind; and outside a full checkout the
command must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402
from perfbench.run import child_pids, end_to_end, stop_children, tail  # noqa: E402
from perfbench.tracing import PER_LAYER  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    TEST_SCALE,
    TEST_WORLD,
    WORLD_SEEDS,
    Context,
    Unit,
    load_pins,
    run_unit,
    world_rotation,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _unit(workload: str, tmp_path: Path, **kwargs):
    ctx = Context(
        workload, TEST_WORLD, tmp_path, pins=load_pins(), scale=TEST_SCALE
    )
    return run_unit(ctx, **kwargs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_checks_pass(workload, tmp_path):
    unit = _unit(workload, tmp_path)
    assert unit.problems == []
    assert unit.attempted > 0
    assert unit.report_s > 0 and unit.setup_s > 0


def test_campaign_digests_equal_across_worker_counts(tmp_path):
    sequential = _unit("campaign", tmp_path)
    sharded = _unit("campaign_sharded", tmp_path)
    assert sequential.facts["scan_digests"] == sharded.facts["scan_digests"]


def test_dropped_scan_row_fails_the_campaign_check(tmp_path, monkeypatch):
    original = workloads.ScanCampaign.run_month

    def run_month(self, year, month):
        result = original(self, year, month)
        if (year, month) == (2022, 3):
            result.default.responses.pop()
        return result

    monkeypatch.setattr(workloads.ScanCampaign, "run_month", run_month)
    unit = _unit("campaign", tmp_path)
    assert any("digests differ" in problem for problem in unit.problems)


def test_later_unit_must_reproduce_the_first(tmp_path, monkeypatch):
    ctx = Context("campaign", TEST_WORLD, tmp_path, pins=load_pins(), scale=TEST_SCALE)
    assert run_unit(ctx).problems == []
    original = workloads.ScanCampaign.run_month

    def run_month(self, year, month):
        result = original(self, year, month)
        result.default.queries_sent += 1
        return result

    monkeypatch.setattr(workloads.ScanCampaign, "run_month", run_month)
    assert run_unit(ctx).problems == [
        f"campaign scans differ from the run's first unit on world {TEST_WORLD}"
    ]


def test_dropped_report_row_fails_the_paper_check(tmp_path, monkeypatch):
    load = workloads.load_example

    def load_example():
        example = load()
        row = example.row

        def dropping_row(lines, artefact, quantity, paper, measured):
            if quantity != "total egress subnets":
                row(lines, artefact, quantity, paper, measured)

        example.row = dropping_row
        return example

    monkeypatch.setattr(workloads, "load_example", load_example)
    unit = _unit("paper", tmp_path)
    assert any("report rows differ" in problem for problem in unit.problems)


def test_dropped_accumulated_row_fails_the_monitor_check(tmp_path, monkeypatch):
    engine = workloads.ScanCampaign.delta_engine

    def delta_engine(self):
        out = engine(self)
        accumulated = type(out).accumulated

        def dropping(domain):
            result = accumulated(out, domain)
            result.responses.pop()
            return result

        out.accumulated = dropping
        return out

    monkeypatch.setattr(workloads.ScanCampaign, "delta_engine", delta_engine)
    unit = _unit("monitor", tmp_path)
    assert any("differs from a fresh rescan" in p for p in unit.problems)


def test_tail_percentile():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(v) for v in range(1, 41)]
    value, percentile = tail(values)
    assert percentile == 75.0
    assert sum(v > value for v in values) == 10


def test_world_rotation_covers_every_world():
    for seed in range(8):
        worlds = world_rotation(seed)
        assert worlds[0] == WORLD_SEEDS[seed % len(WORLD_SEEDS)]
        assert sorted(worlds) == sorted(WORLD_SEEDS)


def test_units_take_turns_over_the_worlds(tmp_path):
    ctx = Context(
        "campaign", 2022, tmp_path, pins=load_pins(), scale=TEST_SCALE,
        worlds=(2022, 2023),
    )
    assert [run_unit(ctx).world_seed for _ in range(3)] == [2022, 2023, 2022]


def test_wall_times_are_divided_by_the_host_slowdown():
    unit = Unit(
        setup_s=2.0, seed_s=1.0, report_s=4.0, scan_wall_s=4.0, queries=100,
        rounds_s=[1.0, 3.0], round_factors=[2.0, 1.0],
        sim_scan_h=1.0, round_fracs=[1.0], detection_rounds=1, attempted=100,
        factors={"setup_s": 2.0, "seed_s": 2.0, "report_s": 2.0, "scan_wall_s": 2.0},
    )
    values, context = end_to_end([unit])
    assert values["setup_s"][0] == 1.0
    assert values["report_s"][0] == 2.0
    assert values["queries_per_s"][0] == 50.0
    assert values["round_tail_s"][0] == 3.0
    assert values["round_p50_s"][0] == 1.75
    assert context["raw"]["setup_s"] == 2.0
    assert context["raw"]["queries_per_s"] == 25.0


def test_sharded_run_leaves_no_process(tmp_path):
    unit = _unit("campaign_sharded", tmp_path)
    assert unit.problems == []
    stop_children()
    assert child_pids() == []


def test_end_to_end_names_match_benchmark_json(tmp_path):
    values, _ = end_to_end([_unit("monitor", tmp_path)])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in values.items()} == declared
    assert all(value != 0 for value, _ in values.values())


def test_per_layer_names_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(PER_LAYER)


def test_command_prints_the_declared_metrics():
    command = BENCHMARK["command"] + [
        "--workload", "campaign", "--seed", "0", "--seconds", "0", "--trace", "1",
    ]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = BENCHMARK["command"] + [
        "--workload", "campaign", "--seed", "0", "--seconds", "1", "--trace", "0",
    ]
    out = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

"""Monitoring smoke drill: live endpoints under a real scanning campaign.

Launches a delta campaign as a subprocess with ``--serve-status`` and
``--event-log``, then exercises the monitoring plane from the outside
while the campaign is actually scanning:

* **liveness** — ``/health`` answers 200 within the startup window and
  keeps answering mid-campaign;
* **exposition** — every sample line ``/metrics`` returns parses as
  Prometheus text format (``name{labels} value``, value a float);
* **progress** — the ``rounds_completed`` counter in ``/status``
  advances between polls, proving the status board is wired to the
  live delta loop rather than a startup snapshot;
* **event log** — after a clean exit (rc 0) the log opens with a
  ``log_opened`` header at schema 1, carries one ``round_summary`` per
  round, and closes with ``campaign_finished``.

Usage::

    PYTHONPATH=src python benchmarks/perf/monitor_smoke.py \
        --event-log events.jsonl

Environment: ``REPRO_BENCH_SCALE`` (default 0.1) and
``REPRO_BENCH_SEED`` (default 2022), as for ``run_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from bench_env import scale_or_exit

ANNOUNCE = re.compile(r"serving status on (http://[\d.]+:\d+)")
SAMPLE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?\d+(\.\d+)?([eE][+-]?\d+)?$"
)
STARTUP_TIMEOUT_S = 60.0
POLL_INTERVAL_S = 0.5


class SmokeFailure(Exception):
    """A monitoring-plane invariant did not hold."""


def _get(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        if response.status != 200:
            raise SmokeFailure(f"{url} answered {response.status}")
        return response.read().decode()


def _wait_for_announcement(process: subprocess.Popen) -> str:
    """Read campaign stdout until the server announces its bound port."""
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SmokeFailure(
                "campaign exited before announcing the status server"
            )
        sys.stdout.write(line)
        match = ANNOUNCE.search(line)
        if match:
            return match.group(1)
    raise SmokeFailure("no status-server announcement within startup window")


def _check_metrics(base_url: str) -> int:
    """Fetch /metrics and parse every sample line; return the count."""
    body = _get(base_url + "/metrics")
    samples = 0
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        if not SAMPLE.match(line):
            raise SmokeFailure(f"unparseable metrics sample: {line!r}")
        samples += 1
    if samples == 0:
        raise SmokeFailure("/metrics returned no samples mid-campaign")
    return samples


def _watch_rounds(base_url: str, process: subprocess.Popen) -> list[int]:
    """Poll /status while the campaign runs; collect the round counter."""
    observed: list[int] = []
    while process.poll() is None:
        try:
            payload = json.loads(_get(base_url + "/status"))
        except OSError:
            break  # campaign wound the server down between poll() and GET
        rounds = payload.get("counters", {}).get("rounds_completed", 0)
        if not observed or rounds != observed[-1]:
            observed.append(rounds)
        time.sleep(POLL_INTERVAL_S)
    return observed


def _check_event_log(path: Path, expected_rounds: int) -> int:
    records = [
        json.loads(line) for line in path.read_text().splitlines() if line
    ]
    if not records:
        raise SmokeFailure("event log is empty")
    header = records[0]
    if header["event"] != "log_opened" or header["schema"] != 1:
        raise SmokeFailure(f"bad event-log header: {header}")
    kinds = [record["event"] for record in records]
    summaries = kinds.count("round_summary")
    if summaries != expected_rounds:
        raise SmokeFailure(
            f"expected {expected_rounds} round_summary events, "
            f"found {summaries}"
        )
    if kinds[-1] != "campaign_finished":
        raise SmokeFailure(f"log does not close with campaign_finished: "
                           f"{kinds[-1]}")
    return len(records)


def run_smoke(event_log: Path, scale: float, seed: int, rounds: int) -> None:
    with tempfile.TemporaryDirectory(prefix="monitor-smoke-") as tmp:
        command = [
            sys.executable, "-m", "repro.cli", "campaign",
            "--mode", "delta",
            "--scale", str(scale),
            "--seed", str(seed),
            "--rounds", str(rounds),
            "--snapshot-dir", str(Path(tmp) / "snapshots"),
            "--serve-status", "127.0.0.1:0",
            "--event-log", str(event_log),
        ]
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            base_url = _wait_for_announcement(process)
            health = json.loads(_get(base_url + "/health"))
            if health.get("status") != "ok":
                raise SmokeFailure(f"/health payload: {health}")
            print(f"health ok at {base_url}")

            samples = _check_metrics(base_url)
            print(f"metrics parse ok ({samples} samples)")

            observed = _watch_rounds(base_url, process)
            print(f"status round counter observed: {observed}")
            if len(observed) < 2 or observed[-1] <= observed[0]:
                raise SmokeFailure(
                    f"round counter did not advance across polls: {observed}"
                )
            remaining_output, _ = process.communicate()
            sys.stdout.write(remaining_output)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0:
            raise SmokeFailure(f"campaign exited {process.returncode}")

    emitted = _check_event_log(event_log, expected_rounds=rounds)
    print(f"event log ok ({emitted} records, {rounds} round summaries)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--event-log",
        type=Path,
        default=Path("events.jsonl"),
        help="where the campaign writes its event log (default events.jsonl)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=40,
        help="delta rounds to run (default 40; keeps a wide polling window)",
    )
    args = parser.parse_args(argv)
    scale = scale_or_exit(0.1)
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2022"))
    print(
        f"monitoring smoke drill at scale={scale} seed={seed} "
        f"rounds={args.rounds} ..."
    )
    try:
        run_smoke(args.event_log, scale, seed, args.rounds)
    except SmokeFailure as error:
        print(f"MONITOR SMOKE FAILED: {error}", file=sys.stderr)
        return 1
    print("monitoring smoke drill passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

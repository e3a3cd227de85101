"""Campaign checkpoint/resume: atomic per-month result persistence.

After each completed month, :class:`~repro.scan.campaign.ScanCampaign`
can write one JSON checkpoint file capturing everything a fresh process
needs to continue the campaign as if it had never died:

* both scan results of the month (responses in the same columnar spirit
  as the shard IPC encoding: rows of integers plus a distinct-answer
  table, so checkpoints stay proportional to distinct answers);
* the simulated clock position after the month;
* the authoritative server's cumulative query statistics;
* the zone's rotation-counter state — the one scan-visible piece of
  world state that is not derivable from the results.

Writes are atomic (temp file + ``os.replace``), so a kill mid-write
leaves either the previous checkpoint or none — never a torn file.  A
checkpoint embeds a **settings fingerprint**; resuming against different
scan settings raises :class:`~repro.errors.CheckpointError` instead of
silently splicing incompatible months together.  Settings that cannot
change results (the worker count) are deliberately excluded from
the fingerprint: a campaign killed under ``--workers 4`` may be resumed
under ``--workers 1`` and still produce bit-identical output.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

from repro.errors import CheckpointError
from repro.faults.storage import atomic_write_json
from repro.netmodel.addr import IPAddress, Prefix
from repro.scan.ecs_scanner import EcsResponse, EcsScanResult

#: Bump when the checkpoint layout changes; mismatched files are treated
#: as absent (the month is simply re-scanned), not as errors.
CHECKPOINT_VERSION = 1


def payload_crc(document: dict) -> int:
    """The integrity checksum of one persisted document.

    crc32 over the canonical JSON of everything but the ``crc`` field
    itself — canonicalised independently of the on-disk byte layout, so
    the checksum survives any future formatting change.
    """
    body = {key: value for key, value in document.items() if key != "crc"}
    return zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def quarantine_warning(path: Path, reason: str) -> None:
    """One stderr line for a corrupt persisted file being set aside.

    Deliberately a warning, never a traceback: a torn or bit-flipped
    file on disk is an expected host failure, and the recovery path
    (re-scan / re-seed) is already running by the time this prints.
    """
    print(f"warning: quarantined corrupt state file {path}: {reason}",
          file=sys.stderr)


def _encode_responses(responses: list[EcsResponse]) -> dict:
    """Rows of integers plus a distinct-answer table (identity-deduped).

    The scan kernels hand recurring answers the same tuple object, so
    deduplicating by ``id`` keeps the table proportional to distinct
    answers (unshared tuples still encode correctly, once each).
    """
    table_index: dict[int, int] = {}
    table: list = []
    rows: list = []
    for response in responses:
        addresses = response.addresses
        key = id(addresses)
        ref = table_index.get(key)
        if ref is None:
            ref = len(table)
            table_index[key] = ref
            table.append(
                [
                    [[a.version, a.value] for a in addresses],
                    response.answer_asn,
                ]
            )
        rows.append([response.subnet.value, response.subnet.length, response.scope, ref])
    return {"rows": rows, "table": table}


def _encode_columnar(view) -> dict:
    """Encode a columnar result view without materialising responses.

    Walks the packed chunks directly (the batch-replay kernel's output,
    or the sharded merge's adopted shard columns) and produces output
    byte-identical to :func:`_encode_responses` on the materialised
    list: table refs are assigned in first-use row order, deduplicated
    across chunks by address-tuple identity — the same identity the
    interned chunk tables share.
    """
    length = view.subnet_len
    table_index: dict[int, int] = {}
    table: list = []
    rows: list = []
    append = rows.append
    for values, scopes, refs, chunk_table in view.chunks:
        remap = [-1] * len(chunk_table)
        for value, scope, ref in zip(values, scopes, refs):
            out_ref = remap[ref]
            if out_ref < 0:
                addresses, asn = chunk_table[ref]
                key = id(addresses)
                out_ref = table_index.get(key, -1)
                if out_ref < 0:
                    out_ref = len(table)
                    table_index[key] = out_ref
                    table.append(
                        [[[a.version, a.value] for a in addresses], asn]
                    )
                remap[ref] = out_ref
            append([value, length, scope, out_ref])
    return {"rows": rows, "table": table}


def _decode_responses(data: dict) -> list[EcsResponse]:
    """Re-materialise responses, sharing tuples per table entry so the
    identity-based deduplication in ``EcsScanResult.addresses()`` keeps
    working on restored results."""
    answers = [
        (
            tuple(IPAddress(version, value) for version, value in pairs),
            asn,
        )
        for pairs, asn in data["table"]
    ]
    prefixes: dict[tuple[int, int], Prefix] = {}
    out: list[EcsResponse] = []
    append = out.append
    for value, length, scope, ref in data["rows"]:
        key = (value, length)
        subnet = prefixes.get(key)
        if subnet is None:
            subnet = prefixes[key] = Prefix(4, value, length)
        append(EcsResponse(subnet, scope, *answers[ref]))
    return out


def encode_result(result: EcsScanResult) -> dict:
    """One scan result as a JSON-safe dict.

    Columnar results are encoded straight off their chunks; the classic
    response list never needs to be materialised just to checkpoint.
    """
    view = result.columnar_view()
    responses = (
        _encode_columnar(view)
        if view is not None
        else _encode_responses(result.responses)
    )
    return {
        "domain": result.domain,
        "started_at": result.started_at,
        "finished_at": result.finished_at,
        "queries_sent": result.queries_sent,
        "sparse_queries": result.sparse_queries,
        "sparse_answered": result.sparse_answered,
        "retries": result.retries,
        "fault_wait_seconds": result.fault_wait_seconds,
        "fault_injected": dict(result.fault_injected),
        "gave_up": [[p.value, p.length] for p in result.gave_up],
        "responses": responses,
        "sparse_responses": _encode_responses(result.sparse_responses),
    }


def decode_result(data: dict) -> EcsScanResult:
    """Rebuild a scan result from :func:`encode_result` output."""
    result = EcsScanResult(
        domain=data["domain"],
        started_at=data["started_at"],
        finished_at=data["finished_at"],
        queries_sent=data["queries_sent"],
        sparse_queries=data["sparse_queries"],
        sparse_answered=data["sparse_answered"],
        retries=data["retries"],
        fault_wait_seconds=data["fault_wait_seconds"],
        fault_injected=dict(data["fault_injected"]),
    )
    result.gave_up = [Prefix(4, value, length) for value, length in data["gave_up"]]
    result.responses = _decode_responses(data["responses"])
    result.sparse_responses = _decode_responses(data["sparse_responses"])
    return result


class CampaignCheckpointer:
    """Reads and writes one campaign's per-month checkpoint files.

    ``gate``/``registry`` attach the storage fault plane: with an
    active gate every save draws one deterministic failure decision
    keyed by the month (see :mod:`repro.faults.storage`), surfacing as
    an :class:`OSError` the campaign's degraded mode handles.
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

    def path_for(self, year: int, month: int) -> Path:
        """Where one month's checkpoint lives."""
        return self.directory / f"month-{year:04d}-{month:02d}.json"

    def save(self, year: int, month: int, payload: dict, attempt: int = 0) -> Path:
        """Durably and atomically persist one month's checkpoint."""
        path = self.path_for(year, month)
        document = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "year": year,
            "month": month,
            **payload,
        }
        document["crc"] = payload_crc(document)
        atomic_write_json(
            path,
            document,
            gate=self.gate,
            surface="checkpoint",
            item=f"{year:04d}-{month:02d}",
            attempt=attempt,
            registry=self.registry,
        )
        return path

    def load(self, year: int, month: int) -> dict | None:
        """One month's checkpoint, or None when it must be re-scanned.

        Missing, torn, or layout-versioned-away files all read as None
        — the campaign just runs the month.  A *fingerprint* mismatch is
        different: the checkpoint is intact but belongs to a campaign
        with different result-affecting settings, and splicing it in
        would corrupt the output — :class:`CheckpointError`.
        """
        path = self.path_for(year, month)
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
        if document.get("version") != CHECKPOINT_VERSION:
            return None
        crc = document.get("crc")
        if crc is not None and crc != payload_crc(document):
            quarantine_warning(path, "checksum mismatch (bit flip?)")
            return None
        if document.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a campaign with different "
                "result-affecting settings; refusing to resume from it"
            )
        return document

"""Durable sweep journal: crash-resilient, resumable record persistence.

The sweep engine appends one fsynced line per *completed* task, carrying the
record and the SHA-256 of its canonical JSON; the header pins the campaign.
On restart :meth:`SweepJournal.open` tells which tasks finished intact, and
``run_sweep(..., journal=...)`` re-executes only the missing or corrupt
ones.  Records are pure functions of the campaign spec, so a resumed
sweep's output is byte-identical to a cold sweep's.

The file is a :mod:`repro.durable_log` line log; this module is its schema
and damage policy (docs/FAULT_TOLERANCE.md)::

    {"campaign_sha256": "...", "format": "repro-sweep-journal", "version": 1}
    {"record": {...}, "sha256": "...", "task_index": 0}
    {"record": {...}, "sha256": "...", "task_index": 3}

Lines appear in completion order.  A damaged line anywhere invalidates only
its own task, never the file; an unterminated final fragment (crash
mid-write) is also cut on open, so the next record starts on a fresh line.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.durable_log import (
    LineLog,
    LogFormat,
    LogScan,
    canonical_digest,
    encode_line,
    parse_json_line,
)
from repro.experiments.results import ExperimentRecord

JOURNAL_MAGIC = "repro-sweep-journal"

_FORMAT = LogFormat(
    magic=JOURNAL_MAGIC,
    pin="campaign_sha256",
    name="sweep journal",
    mismatch="journal belongs to a different campaign (spec changed since it was written?)",
)


def campaign_digest(campaign: Mapping[str, object]) -> str:
    """Stable identity of a sweep campaign (its sorted-keys JSON, hashed)."""
    return canonical_digest(campaign)


class SweepJournal:
    """Append-side handle of an open journal; use :meth:`open` to get one."""

    def __init__(self, log: LineLog) -> None:
        self._log = log

    @classmethod
    def open(
        cls,
        path: str,
        campaign: Mapping[str, object],
        *,
        fsync: bool = True,
    ) -> tuple[SweepJournal, dict[int, ExperimentRecord], int]:
        """Open (creating if missing) a journal for the given campaign.

        Returns ``(journal, completed, n_invalid)``: the records of intact
        lines keyed by task index, and how many lines were damaged (their
        tasks count as not done).  A journal of a *different* campaign
        raises :class:`~repro.errors.ConfigurationError` rather than mix
        incompatible records.  ``fsync=True`` makes every appended record
        durable before :meth:`append` returns.
        """
        scan = _FORMAT.open(path, campaign_digest(campaign))
        completed, n_valid, n_invalid = _replay(scan)
        if scan.torn:
            scan.cut(scan.end, kept_entries=n_valid, lines=1)
        return cls(LineLog(path, open(path, "ab"), fsync=fsync)), completed, n_invalid

    def append(self, record: ExperimentRecord) -> None:
        """Durably journal one completed task.

        The ``journal.record`` fault site can corrupt the line before it
        hits the disk: the damage the replay path must survive.
        """
        payload = record.to_dict()
        line = {
            "task_index": record.task_index,
            "sha256": canonical_digest(payload),
            "record": payload,
        }
        self._log.append(encode_line(line), site="journal.record", task_index=record.task_index)

    def close(self) -> None:
        self._log.close()


def _replay(scan: LogScan) -> tuple[dict[int, ExperimentRecord], int, int]:
    """``(completed, n_valid, n_invalid)``: damage anywhere is only counted."""
    completed: dict[int, ExperimentRecord] = {}
    n_valid = 0
    n_invalid = 1 if scan.torn else 0
    for _, line in scan.lines:
        if not line:
            continue  # blank line
        entry = _parse_record_line(line)
        if entry is None:
            n_invalid += 1
        else:
            n_valid += 1
            completed[entry[0]] = entry[1]
    return completed, n_valid, n_invalid


def _parse_record_line(line: bytes) -> tuple[int, ExperimentRecord] | None:
    """Validate one journal line; ``None`` for anything short of intact."""
    payload = parse_json_line(line)
    if payload is None:
        return None
    record_payload = payload.get("record")
    task_index = payload.get("task_index")
    if (
        not isinstance(record_payload, dict)
        or not isinstance(task_index, int)
        or payload.get("sha256") != canonical_digest(record_payload)
    ):
        return None
    try:
        record = ExperimentRecord.from_dict(record_payload)
    except (KeyError, TypeError, ValueError):
        return None
    if record.task_index != task_index:
        return None
    return task_index, record


def verify_journal(path: str) -> tuple[int, int]:
    """Validate a journal file; returns ``(n_valid, n_invalid)`` lines.

    Raises :class:`~repro.errors.IntegrityError` for an unreadable or
    headerless file — per-line damage is counted, not fatal, matching the
    resume semantics.  Never modifies the file.
    """
    _, n_valid, n_invalid = _replay(_FORMAT.read(path))
    return n_valid, n_invalid

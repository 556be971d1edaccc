"""Write-ahead evidence log: crash durability for the serving layer.

Every ingest batch is appended here — fsynced, one line per *acked* batch —
before the service folds it and acknowledges the client.  Recovery is
``latest snapshot + WAL replay``
(:meth:`repro.serving.service.ReputationService.recover`), byte-identical to
a session that never crashed.  Compaction (:meth:`WriteAheadLog.compact`)
drops the batches a snapshot covers, so replay cost follows the events
since the last snapshot, not since boot.

The file is a :mod:`repro.durable_log` line log; this module is its schema
and damage policy (docs/FAULT_TOLERANCE.md)::

    {"config_sha256": "...", "format": "repro-serve-wal", "version": 1}
    {"events": [...], "key": "c1-0", "n": 2, "seq": 0, "sha256": "..."}
    {"events": [...], "key": null, "n": 1, "seq": 2, "sha256": "..."}

``seq`` is the service's total-ingested counter *before* the batch, so each
line's ``seq`` equals the previous line's ``seq + n``.  ``key`` is the
client's idempotency key (replayed into the dedup window on recovery).
``sha256`` covers the line's canonical JSON sans itself.  A torn/corrupt
*tail* was never acked, so opening cuts it; a damaged *interior* line or a
``seq`` gap is lost acked evidence and raises
:class:`~repro.errors.IntegrityError`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import IO

from repro.durable_log import (
    LineLog,
    LogFormat,
    LogScan,
    canonical_digest,
    encode_line,
    parse_json_line,
)
from repro.durable_log import TornTailWarning as TornTailWarning
from repro.errors import IntegrityError
from repro.simulation.transaction import Feedback

WAL_MAGIC = "repro-serve-wal"

#: Wire fields of one feedback event inside a WAL line (sorted).
_FEEDBACK_FIELDS = ("rater", "rating", "subject", "time", "transaction_id", "truthful")

_FORMAT = LogFormat(
    magic=WAL_MAGIC,
    pin="config_sha256",
    name="serve WAL",
    mismatch=(
        "WAL belongs to a differently-configured service "
        "(mechanism/refresh/default-score changed since it was written?)"
    ),
)


def config_digest(identity: Mapping[str, object]) -> str:
    """Stable identity of the score-relevant service config a WAL pins."""
    return canonical_digest(identity)


def feedback_to_wire(feedback: Feedback) -> dict[str, object]:
    """One feedback event as a plain JSON object (all fields, explicit)."""
    return {
        "rater": feedback.rater,
        "rating": feedback.rating,
        "subject": feedback.subject,
        "time": feedback.time,
        "transaction_id": feedback.transaction_id,
        "truthful": feedback.truthful,
    }


def feedback_from_wire(payload: Mapping[str, object]) -> Feedback:
    """Rebuild a :class:`Feedback` from its WAL wire form."""
    try:
        fields = {name: payload[name] for name in _FEEDBACK_FIELDS}
        return Feedback(**fields)  # type: ignore[arg-type]
    except (KeyError, TypeError) as error:
        raise IntegrityError(f"malformed WAL feedback payload: {error}") from error


@dataclass(frozen=True)
class WalEntry:
    """One replayed WAL line: an acked ingest batch."""

    #: Total events the service had ingested *before* this batch.
    seq: int
    #: The client idempotency key the batch was acked under (if any).
    key: str | None
    events: tuple[Feedback, ...]

    @property
    def end(self) -> int:
        """Total events ingested *after* this batch (``seq + len(events)``)."""
        return self.seq + len(self.events)


def _parse_entry_line(line: bytes) -> WalEntry | None:
    """Validate one WAL batch line; ``None`` for anything short of intact."""
    payload = parse_json_line(line)
    if payload is None:
        return None
    seq = payload.get("seq")
    n = payload.get("n")
    key = payload.get("key")
    events = payload.get("events")
    if (
        not isinstance(seq, int)
        or isinstance(seq, bool)
        or seq < 0
        or not isinstance(events, list)
        or not isinstance(n, int)
        or n != len(events)
        or (key is not None and not isinstance(key, str))
    ):
        return None
    body = {"events": events, "key": key, "n": n, "seq": seq}
    if payload.get("sha256") != canonical_digest(body):
        return None
    try:
        decoded = tuple(feedback_from_wire(event) for event in events)
    except IntegrityError:
        return None
    return WalEntry(seq=seq, key=key, events=decoded)


def _replay(scan: LogScan) -> tuple[list[WalEntry], int, int]:
    """``(entries, keep, tail_lines)``: the valid prefix, the byte offset
    it ends at, and how many damaged lines follow it.

    A damaged *interior* line (a valid line after an invalid one) or a
    sequence gap raises :class:`IntegrityError`: acked evidence is gone.
    """
    entries: list[WalEntry] = []
    keep = scan.start
    tail_lines = 0
    for offset, line in scan.lines:
        entry = _parse_entry_line(line)
        if entry is None:
            tail_lines += 1
        elif tail_lines:
            raise IntegrityError(
                f"{scan.path}: damaged interior line (valid batch seq={entry.seq} "
                f"follows {tail_lines} corrupt line(s)) — acked evidence lost"
            )
        else:
            if entries and entry.seq != entries[-1].end:
                raise IntegrityError(
                    f"{scan.path}: sequence gap (batch seq={entry.seq} after "
                    f"seq={entries[-1].end} expected) — acked evidence lost"
                )
            entries.append(entry)
            keep = offset + len(line) + 1
    if scan.torn:
        tail_lines += 1
    return entries, keep, tail_lines


class WriteAheadLog:
    """Append-side handle of an open serve WAL.  Thread-safe.

    Use :meth:`open` (which also replays and repairs the existing file)
    rather than constructing directly.  ``fsync=True`` makes every
    appended batch durable before :meth:`append` returns.
    """

    def __init__(
        self,
        path: str,
        handle: IO[bytes],
        *,
        config_sha256: str,
        fsync: bool = True,
        entries: int = 0,
        events: int = 0,
    ) -> None:
        self._log = LineLog(path, handle, fsync=fsync)
        self._config_sha256 = config_sha256
        self._entries = entries
        self._events = events

    @classmethod
    def open(
        cls,
        path: str,
        *,
        config_sha256: str,
        fsync: bool = True,
    ) -> tuple[WriteAheadLog, list[WalEntry], int]:
        """Open (creating if missing) a WAL pinned to a service config.

        Returns ``(wal, entries, n_truncated)``: the intact batches in
        append order and how many tail lines were cut (with a
        :class:`~repro.durable_log.TornTailWarning`).  A WAL of a
        differently-configured service raises
        :class:`~repro.errors.ConfigurationError`.
        """
        scan = _FORMAT.open(path, config_sha256)
        entries, keep, tail_lines = _replay(scan)
        if tail_lines:
            scan.cut(keep, kept_entries=len(entries), lines=tail_lines)
        wal = cls(
            path,
            open(path, "ab"),
            config_sha256=config_sha256,
            fsync=fsync,
            entries=len(entries),
            events=sum(len(entry.events) for entry in entries),
        )
        return wal, entries, tail_lines

    def append(
        self, events: Sequence[Feedback], *, seq: int, key: str | None = None
    ) -> None:
        """Durably log one ingest batch *before* the service acks it.

        The ``wal.append`` fault site can corrupt the line or kill the
        process mid-write: the torn tails recovery must survive.
        """
        wire = [feedback_to_wire(event) for event in events]
        body: dict[str, object] = {"events": wire, "key": key, "n": len(wire), "seq": seq}
        encoded = encode_line({**body, "sha256": canonical_digest(body)})

        def tally() -> None:
            self._entries += 1
            self._events += len(wire)

        self._log.append(encoded, site="wal.append", after_write=tally, seq=seq, n=len(wire))

    def compact(self, upto_seq: int) -> int:
        """Atomically drop every batch a snapshot already covers.

        A batch is dead once ``entry.end <= upto_seq`` (batches never
        straddle snapshots: snapshots take the service lock between
        batches).  The rewrite is atomic, so a crash mid-compaction leaves
        the old file or the new one.  Lines that fail validation are kept
        verbatim — compaction must never destroy evidence it cannot vouch
        for.  Returns the number of batches dropped.
        """
        with self._log.lock:
            with open(self.path, "rb") as current:
                raw = current.read()
            kept = [encode_line(_FORMAT.header(self._config_sha256))]
            kept_entries = 0
            kept_events = 0
            dropped = 0
            for line in raw.split(b"\n")[1:]:
                if not line:
                    continue
                entry = _parse_entry_line(line)
                if entry is not None and entry.end <= upto_seq:
                    dropped += 1
                    continue
                kept.append(line + b"\n")
                if entry is not None:
                    kept_entries += 1
                    kept_events += len(entry.events)
            self._log.rewrite(kept)
            self._entries = kept_entries
            self._events = kept_events
            return dropped

    @property
    def path(self) -> str:
        return self._log.path

    @property
    def entry_count(self) -> int:
        """Batch lines currently in the log (post-replay, post-compaction)."""
        with self._log.lock:
            return self._entries

    @property
    def event_count(self) -> int:
        """Feedback events currently in the log."""
        with self._log.lock:
            return self._events

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> WriteAheadLog:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def verify_wal(path: str) -> tuple[int, int]:
    """Validate a serve WAL; returns ``(n_valid, n_tail_invalid)`` lines.

    Same policy as :meth:`WriteAheadLog.open`, but never modifies the file
    and never checks the config digest (``verify-records`` has no config).
    """
    entries, _, tail_lines = _replay(_FORMAT.read(path))
    return len(entries), tail_lines

"""One durable line log: the storage primitive under journals and WALs.

A line log is an fsynced JSONL file: a header line naming the format, its
version and a pinned identity digest, then one JSON object per line, each
carrying the SHA-256 of its canonical payload.  This module owns every
durability decision for such files, so :mod:`repro.experiments.journal` and
:mod:`repro.serving.wal` are only schemas: their line fields and their
damage policies.

A line is complete only once its newline is on disk.  An append writes the
line and its newline in one call and syncs before returning, so an
unterminated final fragment is always a torn write nobody was told had
succeeded, and a file without one complete line never got past its header.

Stdlib only besides :mod:`repro.faults` and :mod:`repro.errors`, because
``repro serve`` imports it at startup.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import IO

from repro import faults
from repro.errors import ConfigurationError, IntegrityError

#: The one on-disk version of every line log; readers reject any other.
VERSION = 1


class TornTailWarning(UserWarning):
    """A log's torn/corrupt tail was cut off while opening it.

    The message is a sorted-keys JSON object (``path`` / ``kept_entries`` /
    ``truncated_lines`` / ``truncated_bytes``) so log scrapers get structure.
    """


def canonical_digest(payload: Mapping[str, object]) -> str:
    """SHA-256 of a mapping's sorted-keys JSON: an order-insensitive identity."""
    encoded = json.dumps(dict(payload), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def encode_line(payload: Mapping[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def parse_json_line(line: bytes) -> dict[str, object] | None:
    """Decode one line into a JSON object; ``None`` for anything else."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def read_header(path: str) -> dict[str, object] | None:
    """The parsed first line of ``path``; raises :class:`OSError` if unreadable."""
    with open(path, "rb") as handle:
        return parse_json_line(handle.readline())


def fsync_directory(path: str) -> None:
    """Make a create or rename in ``path``'s directory durable (POSIX)."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Replace ``path`` so a crash leaves the old file or the new, never a hybrid."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_directory(path)


@dataclass(frozen=True)
class LogScan:
    """A log whose header checked out, split into complete body lines."""

    path: str
    #: ``(byte offset, line without its newline)`` per complete body line.
    lines: list[tuple[int, bytes]]
    #: Byte offsets of the first body line and just past the last complete one.
    start: int
    end: int
    size: int

    @property
    def torn(self) -> bool:
        """Whether the file ends in an unterminated fragment."""
        return self.size > self.end

    def cut(self, offset: int, *, kept_entries: int, lines: int) -> None:
        """Durably truncate the file to ``offset``, with a :class:`TornTailWarning`."""
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            os.fsync(handle.fileno())
        detail = {
            "kept_entries": kept_entries,
            "path": self.path,
            "truncated_bytes": self.size - offset,
            "truncated_lines": lines,
        }
        warnings.warn(TornTailWarning(json.dumps(detail, sort_keys=True)), stacklevel=3)


@dataclass(frozen=True)
class LogFormat:
    """The header of one kind of line log: ``{pin: digest, format, version}``."""

    magic: str
    pin: str
    #: Used in error messages: ``not a {name}``, ``{path}: {mismatch}``.
    name: str
    mismatch: str

    def header(self, digest: str) -> dict[str, object]:
        return {self.pin: digest, "format": self.magic, "version": VERSION}

    def open(self, path: str, digest: str) -> LogScan:
        """Scan a log pinned to ``digest``, first creating it if it has no header."""
        try:
            with open(path, "rb") as handle:
                headerless = not handle.readline().endswith(b"\n")
        except FileNotFoundError:
            headerless = True
        if headerless:
            atomic_write(path, [encode_line(self.header(digest))])
        return self.read(path, expected=digest)

    def read(self, path: str, *, expected: str | None = None) -> LogScan:
        """Check the header and split the body into complete lines.

        Never modifies the file.  A malformed header or unknown version
        raises :class:`~repro.errors.IntegrityError`; a pin other than
        ``expected`` raises :class:`~repro.errors.ConfigurationError`.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise IntegrityError(f"cannot read {self.name} {path}: {error}") from error
        header_line, *body = raw.split(b"\n")
        header = parse_json_line(header_line)
        if (
            header is None
            or header.get("format") != self.magic
            or not isinstance(header.get(self.pin), str)
        ):
            raise IntegrityError(f"{path}: not a {self.name} (malformed header)")
        if header.get("version") != VERSION:
            raise IntegrityError(
                f"{path}: unsupported {self.name} version {header.get('version')!r}"
            )
        if expected is not None and header[self.pin] != expected:
            raise ConfigurationError(f"{path}: {self.mismatch}")
        lines: list[tuple[int, bytes]] = []
        offset = start = len(header_line) + 1
        for line in body[:-1]:  # the last piece is the unterminated fragment
            lines.append((offset, line))
            offset += len(line) + 1
        return LogScan(path, lines, start, offset, len(raw))


class LineLog:
    """Thread-safe append handle of one line log.

    ``fsync=False`` skips the per-append fsync (for tests that hammer
    thousands of tiny lines); everything else stays durable.
    """

    def __init__(self, path: str, handle: IO[bytes], *, fsync: bool = True) -> None:
        self.path = path
        self._handle = handle
        self._fsync = fsync
        #: Held for every write; schemas hold it around their own tallies.
        self.lock = threading.Lock()

    def append(
        self,
        line: bytes,
        *,
        site: str,
        after_write: Callable[[], None] | None = None,
        **detail: object,
    ) -> None:
        """Write, flush and fsync one encoded line.

        The fault ``site`` fires first with ``detail`` and can corrupt the
        line or kill the process.  ``after_write`` runs under :attr:`lock`.
        """
        if faults.fire(site, **detail) == "corrupt":
            line = faults.corrupt_bytes(line)
        with self.lock:
            self._handle.write(line)
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
            if after_write is not None:
                after_write()

    def rewrite(self, lines: Iterable[bytes]) -> None:
        """Atomically replace the whole file, header included; hold :attr:`lock`."""
        atomic_write(self.path, lines)
        self._handle.close()
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        with self.lock:
            if not self._handle.closed:
                self._handle.close()

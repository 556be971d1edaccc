"""The write-ahead evidence log: format, damage policy, compaction."""

import json
import warnings

import pytest

import repro.faults as faults
from repro.errors import ConfigurationError, IntegrityError
from repro.serving.wal import (
    TornTailWarning,
    WriteAheadLog,
    config_digest,
    feedback_from_wire,
    feedback_to_wire,
    verify_wal,
)
from repro.simulation.transaction import Feedback

CONFIG = config_digest({"mechanism": "beta", "refresh_every": 4})
OTHER_CONFIG = config_digest({"mechanism": "average", "refresh_every": 4})


def event(index, subject="alice", rating=1.0):
    return Feedback(
        transaction_id=index,
        time=index,
        subject=subject,
        rating=rating,
        rater="client",
    )


def batches(*sizes):
    """Contiguous batches of the given sizes, starting at seq 0."""
    seq = 0
    out = []
    for size in sizes:
        out.append((seq, [event(seq + i) for i in range(size)]))
        seq += size
    return out


def fresh_wal(path, *sizes, keys=None):
    wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
    assert entries == [] and truncated == 0
    for index, (seq, events) in enumerate(batches(*sizes)):
        key = None if keys is None else keys[index]
        wal.append(events, seq=seq, key=key)
    return wal


class TestWireFormat:
    def test_feedback_roundtrip(self):
        original = Feedback(
            transaction_id=7, time=3, subject="bob", rating=0.25, rater="c", truthful=False
        )
        assert feedback_from_wire(feedback_to_wire(original)) == original

    def test_missing_field_is_integrity_error(self):
        wire = feedback_to_wire(event(0))
        del wire["subject"]
        with pytest.raises(IntegrityError, match="malformed WAL feedback"):
            feedback_from_wire(wire)

    def test_config_digest_is_order_insensitive(self):
        a = config_digest({"mechanism": "beta", "refresh_every": 4})
        b = config_digest({"refresh_every": 4, "mechanism": "beta"})
        assert a == b
        assert a != OTHER_CONFIG


class TestRoundTrip:
    def test_append_then_reopen_replays_in_order(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 3, 1, keys=["a", None, "c"])
        assert wal.entry_count == 3
        assert wal.event_count == 6
        wal.close()

        reopened, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 0
        assert [(entry.seq, entry.key, len(entry.events)) for entry in entries] == [
            (0, "a", 2),
            (2, None, 3),
            (5, "c", 1),
        ]
        assert entries[0].events[0] == event(0)
        assert entries[-1].end == 6
        assert reopened.entry_count == 3
        reopened.close()

    def test_config_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2).close()
        with pytest.raises(ConfigurationError, match="differently-configured"):
            WriteAheadLog.open(str(path), config_sha256=OTHER_CONFIG)


class TestDamagePolicy:
    def test_torn_tail_truncated_with_structured_warning(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 2).close()
        intact = path.read_bytes()
        torn = intact[:-1].rsplit(b"\n", 1)[0] + b"\n" + b'{"events": [], "ke'
        path.write_bytes(torn)

        with pytest.warns(TornTailWarning) as caught:
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 1
        assert [entry.seq for entry in entries] == [0]
        detail = json.loads(str(caught[0].message))
        assert detail["kept_entries"] == 1
        assert detail["truncated_lines"] == 1
        assert detail["path"] == str(path)
        assert detail["truncated_bytes"] > 0
        # The file itself was repaired: a second open is clean.
        wal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 0
        assert len(entries) == 1
        wal.close()

    def test_bit_flipped_tail_line_is_truncated(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 2).close()
        raw = path.read_bytes()
        # Flip one digest byte inside the last line: checksum must catch it.
        lines = raw[:-1].split(b"\n")
        lines[-1] = lines[-1].replace(b'"sha256": "', b'"sha256": "X', 1)
        path.write_bytes(b"\n".join(lines) + b"\n")

        with pytest.warns(TornTailWarning):
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 1
        assert len(entries) == 1
        wal.close()

    def test_interior_damage_hard_fails(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 2, 2).close()
        raw = path.read_bytes()
        lines = raw[:-1].split(b"\n")
        lines[2] = b"garbage"  # second batch, under an acked third
        path.write_bytes(b"\n".join(lines) + b"\n")

        with pytest.raises(IntegrityError, match="damaged interior line"):
            WriteAheadLog.open(str(path), config_sha256=CONFIG)
        with pytest.raises(IntegrityError, match="damaged interior line"):
            verify_wal(str(path))

    def test_sequence_gap_hard_fails(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        wal.append([event(0)], seq=0)
        wal.append([event(5)], seq=5)  # a batch went missing
        wal.close()
        with pytest.raises(IntegrityError, match="sequence gap"):
            verify_wal(str(path))

    def test_verify_wal_never_modifies(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2).close()
        damaged = path.read_bytes() + b'{"torn'
        path.write_bytes(damaged)
        assert verify_wal(str(path)) == (1, 1)
        assert path.read_bytes() == damaged

    def test_corrupt_fault_produces_recoverable_torn_tail(self, tmp_path):
        path = tmp_path / "serve.wal"
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(site="wal.append", action="corrupt", match=(("seq", 2),)),)
        )
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        with faults.active(plan):
            wal.append([event(0), event(1)], seq=0)
            wal.append([event(2)], seq=2)  # this line lands corrupted
        wal.close()

        assert verify_wal(str(path)) == (1, 1)
        with pytest.warns(TornTailWarning):
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 1
        assert [entry.seq for entry in entries] == [0]
        wal.close()


class TestCompaction:
    def test_covered_batches_dropped_atomically(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 2, 2)
        assert wal.compact(4) == 2
        assert wal.entry_count == 1
        assert wal.event_count == 2
        # Appends keep working on the rewritten handle.
        wal.append([event(6)], seq=6)
        wal.close()
        _, entries, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert [entry.seq for entry in entries] == [4, 6]

    def test_straddling_batch_is_kept(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 2)
        # upto_seq=3 covers only half the second batch: it must survive.
        assert wal.compact(3) == 1
        assert wal.entry_count == 1
        wal.close()

    def test_compact_keeps_unvouched_lines_verbatim(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2)
        wal.close()
        torn = b'{"not": "a batch"'
        with open(path, "ab") as handle:
            handle.write(torn + b"\n")
        # Reattach without open()'s repair: compact straight off a raw handle.
        reopened = WriteAheadLog(
            str(path), open(path, "ab"), config_sha256=CONFIG, entries=1, events=2
        )
        assert reopened.compact(2) == 1
        reopened.close()
        assert torn in path.read_bytes()

    def test_compact_zero_is_noop(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 2)
        before = path.read_bytes()
        assert wal.compact(0) == 0
        wal.close()
        assert path.read_bytes() == before

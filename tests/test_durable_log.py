"""The durable line log shared by sweep journals and serve WALs."""

import json
import os

import pytest

import repro.durable_log as durable_log
from repro.errors import IntegrityError
from repro.experiments.journal import SweepJournal, campaign_digest, verify_journal
from repro.serving.wal import WriteAheadLog, config_digest, verify_wal
from repro.simulation.checkpoint import read_checkpoint, write_checkpoint
from repro.simulation.transaction import Feedback

CAMPAIGN = {"experiment": "figure1", "seed": 1}
CONFIG = config_digest({"mechanism": "beta", "refresh_every": 4})
#: Digest of the one batch line ``test_wal_bytes_are_pinned`` writes.
WAL_LINE_SHA256 = "d25f8ae97f99a012ffc26e24cf6491e80f77bcc18dad5661e9570a38c47d1647"


def open_journal(path):
    return SweepJournal.open(str(path), CAMPAIGN)


def open_wal(path):
    return WriteAheadLog.open(str(path), config_sha256=CONFIG)


#: Per schema: how to open it, how to verify it, and its fresh header.
SCHEMAS = {
    "journal": (
        open_journal,
        verify_journal,
        {
            "campaign_sha256": campaign_digest(CAMPAIGN),
            "format": "repro-sweep-journal",
            "version": 1,
        },
    ),
    "wal": (
        open_wal,
        verify_wal,
        {"config_sha256": CONFIG, "format": "repro-serve-wal", "version": 1},
    ),
}


@pytest.fixture(params=sorted(SCHEMAS))
def schema(request):
    return SCHEMAS[request.param]


@pytest.fixture()
def synced_dirs(monkeypatch):
    """Directories passed to the directory-fsync helper, in call order."""
    calls = []
    real = durable_log.fsync_directory

    def spy(path):
        calls.append(os.path.dirname(os.path.abspath(path)))
        real(path)

    monkeypatch.setattr(durable_log, "fsync_directory", spy)
    return calls


def test_missing_file_starts_fresh(schema, tmp_path):
    open_log, _, header = schema
    path = tmp_path / "new.log"
    log, replayed, damaged = open_log(path)
    assert (len(replayed), damaged) == (0, 0)
    assert json.loads(path.read_bytes().split(b"\n")[0]) == header
    log.close()


@pytest.mark.parametrize("content", [b"", b'{"format": "repro-'], ids=["empty", "torn"])
def test_torn_header_is_recreated(schema, content, tmp_path):
    # A crash before the header's newline reached the disk: nothing was
    # ever appended behind it, so the log starts fresh instead of failing.
    open_log, verify, header = schema
    path = tmp_path / "torn-header.log"
    path.write_bytes(content)
    log, replayed, damaged = open_log(path)
    assert (len(replayed), damaged) == (0, 0)
    assert verify(str(path)) == (0, 0)
    assert json.loads(path.read_bytes().split(b"\n")[0]) == header
    log.close()


def test_log_creation_fsyncs_its_directory(schema, synced_dirs, tmp_path):
    open_log, _, _ = schema
    log, _, _ = open_log(tmp_path / "new.log")
    log.close()
    assert synced_dirs == [str(tmp_path)]


def test_write_checkpoint_fsyncs_its_directory(synced_dirs, tmp_path):
    path = tmp_path / "state.ckpt"
    write_checkpoint(str(path), "probe", {"answer": 42}, round_index=3)
    assert synced_dirs == [str(tmp_path)]
    header, payload = read_checkpoint(str(path), expected_kind="probe")
    assert header["round_index"] == 3
    assert payload == {"answer": 42}
    assert not (tmp_path / "state.ckpt.tmp").exists()


def test_wal_bytes_are_pinned(tmp_path):
    # The on-disk format is version 1 forever: these bytes were written by
    # the pre-merge WAL and must stay byte-identical.
    path = tmp_path / "serve.wal"
    wal, _, _ = open_wal(path)
    event = Feedback(transaction_id=0, time=0, subject="alice", rating=1.0, rater="client")
    wal.append([event], seq=0, key="c1-0")
    wal.close()
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == (
        b'{"config_sha256": "' + CONFIG.encode() + b'", "format": "repro-serve-wal", '
        b'"version": 1}'
    )
    assert lines[1] == (
        b'{"events": [{"rater": "client", "rating": 1.0, "subject": "alice", "time": 0, '
        b'"transaction_id": 0, "truthful": true}], "key": "c1-0", "n": 1, "seq": 0, '
        b'"sha256": "' + WAL_LINE_SHA256.encode() + b'"}'
    )
    assert lines[2:] == [b""]


class TestPrimitives:
    def test_read_reports_offsets_and_fragment(self, tmp_path):
        log_format = durable_log.LogFormat(
            magic="probe-log", pin="probe_sha256", name="probe log", mismatch="foreign"
        )
        header = durable_log.encode_line(log_format.header("d" * 64))
        path = tmp_path / "probe.log"
        path.write_bytes(header + b"ab\n\ncde\nfrag")
        scan = log_format.read(str(path))
        start = len(header)
        assert scan.start == start
        assert scan.lines == [(start, b"ab"), (start + 3, b""), (start + 4, b"cde")]
        assert scan.torn
        assert path.read_bytes()[scan.end :] == b"frag"

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "file.bin"
        path.write_bytes(b"old contents that are longer")
        durable_log.atomic_write(str(path), [b"new", b"\n"])
        assert path.read_bytes() == b"new\n"
        assert not (tmp_path / "file.bin.tmp").exists()

    def test_unknown_version_is_rejected(self, schema, tmp_path):
        open_log, verify, header = schema
        path = tmp_path / "future.log"
        path.write_bytes(durable_log.encode_line({**header, "version": 2}))
        with pytest.raises(IntegrityError, match="unsupported .* version 2"):
            verify(str(path))
        with pytest.raises(IntegrityError, match="unsupported .* version 2"):
            open_log(path)

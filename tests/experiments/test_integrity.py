"""Record integrity: checksum sidecars, failure detail, the verify-records CLI."""

import json

import pytest

from repro.errors import IntegrityError
from repro.cli import main
from repro.experiments.results import (
    ExperimentRecord,
    checksum_sidecar_path,
    file_sha256,
    verify_file_checksum,
    write_checksum_sidecar,
    write_records_json,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.serving.wal import WriteAheadLog


def make_record(status="ok", failure=None):
    return ExperimentRecord(
        experiment="figure1",
        task_index=0,
        params={"n_users": 12},
        seed=3,
        status=status,
        metrics={"score": 0.5} if status == "ok" else {},
        error=None if status == "ok" else "boom",
        failure=failure,
    )


class TestChecksumSidecars:
    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / "records.json")
        write_records_json(path, [make_record()], checksum=True)
        digest = verify_file_checksum(path)
        assert digest == file_sha256(path)
        # sha256sum-compatible shape: "<digest>  <basename>".
        sidecar_text = open(checksum_sidecar_path(path)).read()
        assert sidecar_text == f"{digest}  records.json\n"

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()], checksum=True)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(IntegrityError, match="SHA-256 mismatch"):
            verify_file_checksum(str(path))

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()], checksum=True)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            verify_file_checksum(str(path))

    def test_missing_sidecar_is_an_error(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()], checksum=False)
        with pytest.raises(IntegrityError, match="sidecar"):
            verify_file_checksum(str(path))

    def test_malformed_sidecar_is_an_error(self, tmp_path):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()])
        (tmp_path / "records.json.sha256").write_text("not a digest\n")
        with pytest.raises(IntegrityError, match="malformed"):
            verify_file_checksum(str(path))

    def test_standalone_sidecar_writer(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01\x02")
        sidecar = write_checksum_sidecar(str(path))
        assert sidecar == str(path) + ".sha256"
        verify_file_checksum(str(path))


class TestFailureDetail:
    def test_failure_only_valid_on_error_records(self):
        with pytest.raises(ValueError, match="only valid on error"):
            make_record(status="ok", failure={"exception": "ValueError"})

    def test_failure_round_trips_through_dict(self):
        failure = {
            "exception": "ValueError",
            "message": "boom",
            "traceback": "Traceback ...",
            "retries": 2,
        }
        record = make_record(status="error", failure=failure)
        clone = ExperimentRecord.from_dict(record.to_dict())
        assert clone.failure == failure

    def test_ok_record_bytes_unchanged_by_failure_field(self):
        """Pre-existing record files must stay byte-stable: ``failure`` only
        appears in the payload when set."""
        assert "failure" not in make_record().to_dict()


class TestVerifyRecordsCli:
    def test_intact_artifacts_pass(self, tmp_path, capsys):
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12]}, seed=3)
        journal = str(tmp_path / "sweep.jnl")
        result = run_sweep(spec, journal=journal)
        out = str(tmp_path / "records.json")
        result.write_json(out)  # SweepResult writers checksum by default
        assert main(["verify-records", out, journal]) == 0
        output = capsys.readouterr().out
        assert f"{out}: ok" in output
        assert f"{journal}: ok" in output

    def test_damaged_file_fails_with_exit_one(self, tmp_path, capsys):
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12]}, seed=3)
        out = tmp_path / "records.json"
        run_sweep(spec).write_json(str(out))
        out.write_bytes(out.read_bytes() + b"tail garbage")
        assert main(["verify-records", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_damaged_journal_reports_line_counts(self, tmp_path, capsys):
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12, 16]}, seed=3)
        journal = tmp_path / "sweep.jnl"
        run_sweep(spec, journal=str(journal))
        lines = journal.read_bytes().split(b"\n")
        damaged = bytearray(lines[1])
        damaged[len(damaged) // 2] ^= 0x01
        lines[1] = bytes(damaged)
        journal.write_bytes(b"\n".join(lines))
        assert main(["verify-records", str(journal)]) == 1
        assert "corrupt/truncated journal lines" in capsys.readouterr().out

    def test_unreadable_path_fails(self, tmp_path, capsys):
        assert main(["verify-records", str(tmp_path / "absent.json")]) == 1

    def test_empty_journal_opens_as_empty_log(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jnl"
        journal.write_bytes(b"")
        assert main(["verify-records", str(journal)]) == 0
        assert f"{journal}: ok (warning: " in capsys.readouterr().out
        spec = SweepSpec(experiment="figure1", grids={"n_users": [12]}, seed=3)
        run_sweep(spec, journal=str(journal))
        assert main(["verify-records", str(journal)]) == 0
        assert capsys.readouterr().out.strip() == f"{journal}: ok"

    def test_unterminated_wal_header_opens_as_empty_log(self, tmp_path, capsys):
        wal_path = tmp_path / "serve.wal"
        wal_path.write_bytes(b'{"config_sha256": "ab')
        assert main(["verify-records", str(wal_path)]) == 0
        assert f"{wal_path}: ok (warning: " in capsys.readouterr().out
        wal, entries, n_truncated = WriteAheadLog.open(str(wal_path), config_sha256="0" * 64)
        wal.close()
        assert (entries, n_truncated) == ([], 0)

    def test_headerless_file_with_sidecar_is_checked(self, tmp_path, capsys):
        path = tmp_path / "digest.txt"
        path.write_bytes(b"no trailing newline")
        write_checksum_sidecar(str(path))
        assert main(["verify-records", str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"{path}: ok"
        path.write_bytes(b"no trailing newlinE")
        assert main(["verify-records", str(path)]) == 1
        assert "SHA-256 mismatch" in capsys.readouterr().out

    def test_records_file_without_sidecar_fails(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        write_records_json(str(path), [make_record()])
        assert main(["verify-records", str(path)]) == 1
        assert "missing checksum sidecar" in capsys.readouterr().out


class TestSweepCliFaultFlags:
    def test_journal_flag_resumes(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jnl")
        args = [
            "sweep",
            "figure1",
            "--grid",
            "n_users=12,16",
            "--journal",
            journal,
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "2 tasks resumed from journal" in capsys.readouterr().out

    def test_failed_tasks_print_structured_summaries(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "figure2-left",
                "--grid",
                "threshold=0.5,1.5",
                "--out",
                str(tmp_path / "records.json"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED task 1" in captured.err
        assert "retries=0" in captured.err
        assert "1 of 2 tasks failed" in captured.err
        payload = json.loads((tmp_path / "records.json").read_text())
        failed = payload["records"][1]
        assert failed["status"] == "error"
        assert failed["failure"]["exception"]
        assert "Traceback" in failed["failure"]["traceback"]

"""The benchmark's own tests (run: python3 -m pytest perfbench/tests -q).

Workloads run here at tiny sizes; the point is that every named metric is
emitted with its unit and that the correctness checks bite, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import offline
import online
import run
from spans import Span, read_jsonl, self_times

from repro import api

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

TINY = {
    "sim_refresh": offline.OfflineSpec(
        "tiny", "whitewash-wave", "eigentrust", n_users=40, rounds=8
    ),
    "serve_reads_large": online.ReadsSpec("tiny", peers=300, prep_events=600, refresh_every=64),
}


def test_tiny_specs_cover_every_workload() -> None:
    assert set(TINY) == set(run.workloads()) == set(run.MEANING)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric(name: str, trace: bool, tmp_path: Path) -> None:
    result = run.run_workload(TINY[name], 3, 0.5, trace, tmp_path)
    assert result["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_harness() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.workloads())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


def test_fast_windows_keep_the_fullest_whole_windows() -> None:
    # Ten one-second windows; window i holds 10 - i reads of latency i + 1.
    reads = [(i + 0.05 * j, float(i + 1)) for i in range(10) for j in range(10 - i)]
    reads += [(10.5, 0.001)] * 20  # past the last whole window
    latencies, seconds = measure.fast_windows(reads, 0.0, 10.9, window_s=1.0, share=0.2)
    assert seconds == 2.0
    assert sorted(latencies) == [1.0] * 10 + [2.0] * 9
    assert measure.fastest([3.0, 1.0, 2.0, 5.0, 4.0], share=0.4) == [1.0, 2.0]


def test_a_corrupted_digest_is_caught() -> None:
    good, other = "a" * 64, "d" * 64
    assert offline.check_digests([[good, good], [other]], [good, other], [good, other]) == []
    assert offline.check_digests([[good, "b" * 64], [other]], [good, other], None)
    assert offline.check_digests([[good], [other]], [good, other], [good, "c" * 64])


def _logged_session(tmp_path: Path) -> tuple[bytes, dict[str, list[dict[str, object]]], Path]:
    """A durable session fed a small trace; returns its scores body and WAL."""
    config = api.ServiceConfig(mechanism="beta", refresh_every=8)
    wal = tmp_path / "session.wal"
    service = api.ReputationService.recover(wal_path=str(wal), config=config)
    events = online.synthetic_events(50, 0, 100, seed=7)
    batches = {f"k{index}": events[index : index + 10] for index in range(0, 100, 10)}
    for key in reversed(list(batches)):
        service.ingest_many(batches[key], idempotency_key=key)
    body = online.control_body(service)
    service.close()
    return body, batches, wal


def test_a_corrupted_scores_body_is_caught(tmp_path: Path) -> None:
    body, batches, wal = _logged_session(tmp_path)

    def check(served: bytes) -> list[str]:
        control = api.ReputationService(api.ServiceConfig(mechanism="beta", refresh_every=8))
        return online.check_served(served, control, batches, wal, acked=100, ingested=100)

    assert check(body) == []
    corrupted = body.replace(b'"watermark": 96', b'"watermark": 95')
    assert corrupted != body
    assert any("differs" in error for error in check(corrupted))


def test_lost_or_unlogged_events_are_caught(tmp_path: Path) -> None:
    body, batches, wal = _logged_session(tmp_path)
    control = api.ReputationService(api.ServiceConfig(mechanism="beta", refresh_every=8))
    errors = online.check_served(body, control, batches, wal, acked=90, ingested=100)
    assert any("acked 90" in error for error in errors)
    extra = dict(batches, unlogged=batches["k0"])
    control = api.ReputationService(api.ServiceConfig(mechanism="beta", refresh_every=8))
    errors = online.check_served(body, control, extra, wal, acked=110, ingested=110)
    assert any("WAL holds" in error for error in errors)


def test_self_times_are_bounded_by_their_span() -> None:
    spans = [
        Span("r", None, "client.peer", 0.0, 10.0),
        Span("h1", "r", "http.peer", 1.0, 4.0),
        Span("h2", "r", "http.peer", 3.0, 12.0),  # overlaps h1, overruns r
        Span("s", "h1", "service.peer", 1.5, 2.0),
        Span("w", "s", "wal.append", 1.6, 1.6),
    ]
    own = self_times(spans)
    assert own["r"] == pytest.approx(1.0)
    assert own["h1"] == pytest.approx(2.5)
    assert own["s"] == pytest.approx(0.5)
    for span in spans:
        assert 0.0 <= own[span.span_id] <= span.duration


def test_self_times_of_a_traced_server_run(tmp_path: Path) -> None:
    spec = TINY["serve_reads_large"]
    snapshot = tmp_path / "prepared.ckpt"
    online.prepare_snapshot(spec, 1, snapshot)
    result = online.reads_pass(spec, 1, 0.5, tmp_path, True, 1, snapshot)
    assert result.errors == []
    spans = result.client_spans.spans + read_jsonl(str(result.server_spans))
    names = {span.name for span in spans}
    assert {"client.feedback", "http.feedback", "service.ingest_many", "wal.append"} <= names
    assert {"client.peer", "http.peer", "checkpoint.restore"} <= names
    own = self_times(spans)
    for span in spans:
        assert 0.0 <= own[span.span_id] <= span.duration + 1e-12


def _bare_checkout(tmp_path: Path, with_source: bool) -> Path:
    checkout = tmp_path / "checkout"
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH, checkout / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    if with_source:
        shutil.copytree(ROOT / "src", checkout / "src", ignore=skip)
    return checkout


def _run_cli(checkout: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_exits_nonzero_when_the_pinned_digest_disagrees(tmp_path: Path) -> None:
    checkout = _bare_checkout(tmp_path, with_source=True)
    pins = checkout / "perfbench" / "pinned.json"
    pins.write_text(json.dumps({"sim_refresh/1": ["0" * 64] * offline.INPUTS}))
    done = _run_cli(checkout, "--workload", "sim_refresh", "--seed", "1", "--seconds", "0.1")
    assert done.returncode == 1
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert "CHECK FAILED" in done.stdout


def test_cli_fails_without_the_program_source(tmp_path: Path) -> None:
    checkout = _bare_checkout(tmp_path, with_source=False)
    done = _run_cli(checkout, "--workload", "serve_reads_large", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""

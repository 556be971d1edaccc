"""One benchmark for both pipelines of the reputation system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
makes a separate traced run and prints every per-layer metric.  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every correctness check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from spans import ROUTES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is timed this many times in an untraced run; setup_s is the median.
SETUPS = 5

#: End-to-end metrics: every workload reports every one (README.md says
#: what each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: Per-layer metrics of the traced run.  A layer a workload never reaches
#: reports 0.
PER_LAYER = {
    "scenarios.setup_s": "s",
    "scenarios.metrics_s": "s",
    "simulation.self_s": "s",
    "simulation.transactions": "count",
    "simulation.rounds": "count",
    "simulation.us_per_tx": "us",
    "reputation.refresh_s": "s",
    "reputation.refresh_calls": "count",
    "reputation.refresh_ms_mean": "ms",
    "service.refresh_ms.p50": "ms",
    "service.refresh_ms.p99": "ms",
    "service.refreshes": "count",
    "client.requests": "count",
    "client.retries": "count",
    "client.backpressure": "count",
    "client.failed": "count",
    **{f"client.{route}_ms.p50": "ms" for route in ROUTES},
    **{f"transport.{route}_ms.{q}": "ms" for route in ROUTES for q in ("p50", "p99")},
    **{f"http.{route}.self_ms.{q}": "ms" for route in ROUTES for q in ("p50", "p99")},
    "http.connections": "count",
    "http.requests_per_connection": "ratio",
    **{
        f"service.{op}_ms.{q}": "ms"
        for op in ("ingest", "query", "snapshot")
        for q in ("p50", "p99")
    },
    "service.ingest.lock_wait_ms.mean": "ms",
    "service.query.lock_wait_ms.mean": "ms",
    "admission.high_water": "count",
    "admission.shed": "count",
    "ratelimit.limited": "count",
    "wal.appends": "count",
    "wal.append_ms.p50": "ms",
    "wal.append_ms.p99": "ms",
    "wal.events_per_append": "ratio",
    "wal.bytes": "bytes",
    "checkpoint.snapshot_bytes": "bytes",
    "checkpoint.restore_s": "s",
    "server.cpu_ms_per_request": "ms",
    "loadgen.late_ms.max": "ms",
    "failed_share": "ratio",
    "trace.unexplained_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: What ``throughput_per_s`` and ``latency_*`` count on each workload.
MEANING = {
    "sim_refresh": ("simulated transactions/s", "one cold run_scenario call"),
    "serve_reads_large": (
        "reads/s of one closed-loop reader",
        "one read (peer lookup or top-10)",
    ),
}


def workloads() -> dict[str, object]:
    from offline import OfflineSpec
    from online import ReadsSpec

    return {
        "sim_refresh": OfflineSpec(
            "sim_refresh", "whitewash-wave", "eigentrust", n_users=200, rounds=40
        ),
        "serve_reads_large": ReadsSpec(
            "serve_reads_large", peers=20000, prep_events=60000, refresh_every=1280
        ),
    }


def run_workload(
    spec: object, seed: int, seconds: float, trace: bool, workdir: Path
) -> dict[str, object]:
    """Run one workload; returns the result object the benchmark prints."""
    import report
    from offline import OfflineSpec, check_digests, offline_run, pinned_digest
    from online import ReadsSpec, prepare_snapshot, reads_pass

    if isinstance(spec, OfflineSpec):
        raw = offline_run(spec, seed, seconds, traced=trace, setups=1 if trace else SETUPS)
        errors = check_digests(raw["digests"], raw["references"], pinned_digest(spec, seed))
        metrics = report.offline_layers(raw) if trace else report.offline_e2e(raw)
        attempted = sum(map(len, raw["walls"])) + len(raw["traced_walls"]) + len(raw["references"])
        return _result(errors, attempted, 0, metrics, trace)

    assert isinstance(spec, ReadsSpec)
    snapshot = workdir / "prepared.ckpt"
    prepare_snapshot(spec, seed, snapshot)

    if not trace:
        plain = reads_pass(spec, seed, seconds, workdir, False, SETUPS, snapshot)
        passes = [plain]
        metrics = report.online_e2e(plain)
    else:
        # Half the run untraced, half traced, so a traced run lasts as long.
        plain = reads_pass(spec, seed, seconds / 2, workdir, False, 1, snapshot)
        traced = reads_pass(spec, seed, seconds / 2, workdir, True, 1, snapshot)
        passes = [plain, traced]
        metrics = report.online_layers(plain, traced)
    errors = [error for one in passes for error in one.errors]
    attempted = sum(one.attempted for one in passes)
    failed = sum(one.failed for one in passes)
    return _result(errors, attempted, failed, metrics, trace)


def _result(
    errors: list[str], attempted: int, failed: int, metrics: dict[str, float], trace: bool
) -> dict[str, object]:
    units = PER_LAYER if trace else END_TO_END
    values = {name: float(metrics.get(name, 0.0)) for name in units}
    if trace:
        values["failed_share"] = failed / attempted
    return {
        "correct": not errors and failed == 0,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark both pipelines of repro.")
    parser.add_argument("--workload", required=True, choices=sorted(MEANING))
    parser.add_argument(
        "--seed", type=int, default=1, help="input seed (default 1, the pinned one)"
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = run_workload(
        workloads()[args.workload], args.seed, args.seconds, bool(args.trace), workdir
    )

    throughput, latency = MEANING[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  throughput_per_s counts {throughput}; latency_* times {latency}")
    for name, metric in result["metrics"].items():  # type: ignore[union-attr]
        print(f"  {name:40s} {metric['value']:16.6f} {metric['unit']}")
    for error in result.pop("errors"):  # type: ignore[union-attr]
        print(f"  CHECK FAILED: {error}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

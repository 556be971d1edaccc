"""Benchmark the end-to-end pipeline: cold versus accelerated execution.

Run as a script to produce ``BENCH_e2e.json`` (the CI artifact the e2e
regression gate checks)::

    PYTHONPATH=src python benchmarks/bench_end_to_end.py --out BENCH_e2e.json

Where ``bench_core_kernels.py`` measures point kernels, this benchmark
measures whole workloads — the figure-1 experiment, the robustness
scenario×mechanism matrix (single pass and across the standard
detection-threshold grid), a reference sweep campaign, and the refresh
layer of one long simulation — each twice with the same binary:

* **cold**: every acceleration layer off (``repro.core.accel``
  ``disable_all``) — per-refresh store rescans, per-cell scenario setup, no run
  memoization, fresh worker pools;
* **accelerated**: the defaults — incremental refresh, shared scenario
  setup, per-worker scenario-run memoization, persistent chunked sweep
  workers.

Every workload's outputs are byte-compared across the two modes, so the
file doubles as the acceleration layer's *purity certificate*: a speedup
obtained by computing something different fails ``agreement_ok`` before it
ever flatters a number.

``--reference KEY=SECONDS`` embeds externally measured wall times (e.g.
the same workload executed at the pre-PR commit) under
``pre_pr_references`` for the committed report; references are
informational and never gated.

``--check-baseline PATH`` compares freshly measured speedups against the
committed baseline (``benchmarks/baselines/BENCH_e2e_baseline.json``) and
exits non-zero when any gated workload's speedup fell below
``(1 - tolerance)`` times its baseline speedup, when a workload's speedup
fell below its absolute floor, or when any mode disagreement was detected.
Speedup *ratios* rather than absolute seconds keep the gate stable across
machines of different speeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from collections.abc import Callable

from repro.api import (
    ScenarioRunConfig,
    SweepExecutor,
    SweepSpec,
    accel,
    clear_network_cache,
    clear_run_cache,
    clear_setup_cache,
    profiled,
    records_to_json,
    robustness,
    run_experiment_structured,
    run_scenario,
    run_sweep,
)

SCHEMA_VERSION = 1

#: Absolute speedup floors per gated workload, (full, quick) mode.  The
#: committed baseline carries the measured values; these floors catch a
#: wholesale loss of the acceleration layer even with a stale baseline.
FLOORS = {
    "robustness_threshold_matrix": (2.5, 1.5),
    "reference_sweep": (1.5, 1.1),
    "refresh_layer_beta": (2.5, 1.3),
}

#: Informational workloads are reported and agreement-checked but their
#: speedups are not gated: single-pass wall clock is engine-bound, and the
#: vectorized eigentrust refresh layer runs the same code in both modes —
#: one numpy gather over the report columns builds the matrix, then the
#: power iteration — so its speedup reads ~1.0x, the noise floor of the
#: cold/accelerated ratio.
UNGATED_WORKLOADS = frozenset({"figure1", "robustness_matrix", "refresh_layer_eigentrust"})


def _clear_caches() -> None:
    clear_network_cache()
    clear_setup_cache()
    clear_run_cache()


@contextmanager
def cold_pipeline():
    """All acceleration off, also for worker processes forked inside."""
    previous = os.environ.get("REPRO_ACCEL")
    os.environ["REPRO_ACCEL"] = "off"
    try:
        with accel.override(disable_all=True):
            yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_ACCEL", None)
        else:
            os.environ["REPRO_ACCEL"] = previous


def _timed(operation: Callable[[], object]) -> tuple[float, object]:
    _clear_caches()
    start = time.perf_counter()
    result = operation()
    return time.perf_counter() - start, result


def _measure_workload(
    name: str, operation: Callable[[], object], *, accelerated_extra: dict | None = None
) -> dict[str, object]:
    """Run one workload cold and accelerated; byte-compare the outputs."""
    with cold_pipeline():
        cold_seconds, cold_payload = _timed(operation)
    accel_seconds, accel_payload = _timed(operation)
    entry: dict[str, object] = {
        "workload": name,
        "cold_seconds": cold_seconds,
        "accelerated_seconds": accel_seconds,
        "speedup": cold_seconds / accel_seconds if accel_seconds > 0 else float("inf"),
        "agreement_ok": cold_payload == accel_payload,
    }
    if accelerated_extra:
        entry.update(accelerated_extra)
    return entry


# -- workloads -------------------------------------------------------------------


def figure1_workload(quick: bool) -> Callable[[], str]:
    kwargs = (
        dict(n_users=25, rounds=10, sharing_levels=[0.3, 0.7])
        if quick
        else dict(n_users=40, rounds=20)
    )

    def run() -> str:
        return json.dumps(run_experiment_structured("figure1", **kwargs), sort_keys=True)

    return run


def matrix_kwargs(quick: bool) -> dict[str, object]:
    if quick:
        return dict(n_users=24, rounds=30, seed=0)
    return dict(n_users=40, rounds=120, seed=0)


def robustness_matrix_workload(quick: bool) -> Callable[[], str]:
    kwargs = matrix_kwargs(quick)

    def run() -> str:
        return json.dumps(robustness.summarize(robustness.run(**kwargs)), sort_keys=True)

    return run


#: The standard detection-threshold sensitivity grid: robustness
#: conclusions should not hinge on the (arbitrary) detection threshold, so
#: the matrix is evaluated at each value.  Only the metric layer differs
#: between passes — exactly the redundancy the run cache eliminates.
DETECT_THRESHOLDS = (0.05, 0.1, 0.2)


def threshold_matrix_workload(quick: bool) -> Callable[[], str]:
    kwargs = matrix_kwargs(quick)

    def run() -> str:
        payloads = []
        # Requesting the run cache is harmless in cold mode: the master
        # kill switch still wins, so cold re-simulates every pass.
        with accel.override(run_cache=True):
            for threshold in DETECT_THRESHOLDS:
                result = robustness.run(detect_threshold=threshold, **kwargs)
                payloads.append(robustness.summarize(result))
        return json.dumps(payloads, sort_keys=True)

    return run


def sweep_spec(quick: bool) -> SweepSpec:
    grids = {
        "scenario": ["collusion-ring", "whitewash-wave", "slander"],
        "detect_threshold": list(DETECT_THRESHOLDS),
        "seed": [0],
        "n_users": [20 if quick else 40],
        "rounds": [10 if quick else 60],
    }
    return SweepSpec(experiment="robustness", grids=grids, seed=7)


def reference_sweep_workload(quick: bool, jobs: int) -> Callable[[], str]:
    spec = sweep_spec(quick)

    def run() -> str:
        if accel.flags().disable_all:
            result = run_sweep(spec, jobs=jobs)
        else:
            # Accelerated execution: persistent cache-warm workers, chunks
            # aligned with the scenario-major task order.
            with SweepExecutor(jobs, chunksize=len(DETECT_THRESHOLDS)) as executor:
                result = run_sweep(spec, executor=executor)
        return records_to_json(result.records, campaign=spec.campaign_metadata())

    return run


def refresh_layer_entry(quick: bool, mechanism: str) -> dict[str, object]:
    """Cold vs incremental refresh on one long simulation's refresh layer.

    Measured per mechanism because the layer's composition differs: the
    evidence-folding mechanisms (beta, average) replace an O(total reports)
    rescan per refresh with an O(new reports) fold — the textbook
    incremental win — while vectorized EigenTrust builds its matrix from
    the report columns and iterates identically in both modes.
    """
    config = dict(
        scenario="collusion-ring",
        mechanism=mechanism,
        n_users=30 if quick else 50,
        rounds=120 if quick else 400,
        seed=0,
    )

    def run() -> tuple[str, float]:
        with profiled() as timer:
            result = run_scenario(ScenarioRunConfig(**config))
        payload = json.dumps(
            {
                "robustness": result.robustness.__dict__,
                "final_scores": result.final_scores,
            },
            sort_keys=True,
            default=str,
        )
        return payload, timer.seconds.get("refresh", 0.0)

    with cold_pipeline():
        cold_wall, (cold_payload, cold_refresh) = _timed(run)
    accel_wall, (accel_payload, accel_refresh) = _timed(run)
    return {
        "workload": f"refresh_layer_{mechanism}",
        "config": config,
        "cold_seconds": cold_refresh,
        "accelerated_seconds": accel_refresh,
        "speedup": cold_refresh / accel_refresh if accel_refresh > 0 else float("inf"),
        "cold_wall_seconds": cold_wall,
        "accelerated_wall_seconds": accel_wall,
        "wall_speedup": cold_wall / accel_wall if accel_wall > 0 else float("inf"),
        "agreement_ok": cold_payload == accel_payload,
    }


# -- report / gate ---------------------------------------------------------------


def run_benchmarks(*, quick: bool, jobs: int) -> dict[str, object]:
    workloads: list[dict[str, object]] = []

    workloads.append(_measure_workload("figure1", figure1_workload(quick)))
    workloads.append(_measure_workload("robustness_matrix", robustness_matrix_workload(quick)))
    workloads.append(
        _measure_workload(
            "robustness_threshold_matrix",
            threshold_matrix_workload(quick),
            accelerated_extra={"thresholds": list(DETECT_THRESHOLDS)},
        )
    )
    workloads.append(
        _measure_workload("reference_sweep", reference_sweep_workload(quick, jobs))
    )
    workloads.append(refresh_layer_entry(quick, "beta"))
    workloads.append(refresh_layer_entry(quick, "eigentrust"))

    floors = {name: (floor[1] if quick else floor[0]) for name, floor in FLOORS.items()}
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_end_to_end.py",
        "quick": quick,
        "jobs": jobs,
        "floors": floors,
        "workloads": workloads,
        "agreement_ok": all(entry["agreement_ok"] for entry in workloads),
    }


def check_against_baseline(
    report: dict[str, object], baseline: dict[str, object], *, tolerance: float
) -> list[str]:
    """Regression findings (empty when the gate passes)."""
    problems: list[str] = []
    if not report["agreement_ok"]:
        for entry in report["workloads"]:
            if not entry["agreement_ok"]:
                problems.append(
                    f"{entry['workload']}: cold and accelerated outputs differ "
                    "(acceleration changed results)"
                )
    floors = report.get("floors", {})
    current = {entry["workload"]: entry for entry in report["workloads"]}
    for name, floor in floors.items():
        entry = current.get(name)
        if entry is None:
            problems.append(f"{name}: gated workload missing from the report")
            continue
        if float(entry["speedup"]) < float(floor):
            problems.append(
                f"{name}: speedup {entry['speedup']:.2f}x is below the {floor:.1f}x floor"
            )
    if bool(report.get("quick")) == bool(baseline.get("quick")):
        # Ratio regression only compares like with like: quick and full
        # workloads have different speedup profiles, so a cross-mode ratio
        # would be meaningless (the absolute floors above still apply).
        for base_entry in baseline.get("workloads", []):
            name = base_entry["workload"]
            if name in UNGATED_WORKLOADS:
                continue
            entry = current.get(name)
            if entry is None:
                continue
            allowed = (1.0 - tolerance) * float(base_entry["speedup"])
            if float(entry["speedup"]) < allowed:
                problems.append(
                    f"{name}: speedup {entry['speedup']:.2f}x regressed >"
                    f"{tolerance:.0%} against baseline {base_entry['speedup']:.2f}x"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--quick", action="store_true", help="smaller sizes for smoke testing")
    parser.add_argument("--jobs", type=int, default=2, help="sweep worker processes")
    parser.add_argument(
        "--reference",
        action="append",
        default=[],
        metavar="KEY=SECONDS",
        help=(
            "externally measured pre-PR wall time for a workload "
            "(informational; repeatable)"
        ),
    )
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="fail when speedups regressed against this committed baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed fractional speedup regression against the baseline",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick, jobs=args.jobs)

    references: dict[str, float] = {}
    for option in args.reference:
        key, _, seconds = option.partition("=")
        references[key] = float(seconds)
    if references:
        report["pre_pr_references"] = {
            "note": (
                "wall-clock seconds of the same workload measured at the "
                "pre-PR commit on the machine that generated this report"
            ),
            "seconds": references,
        }
        for entry in report["workloads"]:
            reference = references.get(entry["workload"])
            if reference is not None:
                entry["pre_pr_seconds"] = reference
                entry["speedup_vs_pre_pr"] = reference / entry["accelerated_seconds"]

    for entry in report["workloads"]:
        line = (
            f"{entry['workload']:28s} cold {entry['cold_seconds']:7.2f}s   "
            f"accelerated {entry['accelerated_seconds']:7.2f}s   "
            f"speedup {entry['speedup']:5.2f}x   "
            f"agreement {'ok' if entry['agreement_ok'] else 'FAILED'}"
        )
        if "speedup_vs_pre_pr" in entry:
            line += f"   vs pre-PR {entry['speedup_vs_pre_pr']:5.2f}x"
        print(line)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if args.check_baseline:
        with open(args.check_baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("benchmark gate passed (no regression against baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark the array-backed compute core against the pure-Python fallback.

Run as a script to produce ``BENCH_core.json`` (the CI artifact the
benchmark regression gate checks)::

    PYTHONPATH=src python benchmarks/bench_core_kernels.py --out BENCH_core.json

Every kernel is measured on both backends over identical evidence, and the
two score sets are compared so the file doubles as an agreement certificate:
a speedup obtained by computing something different would fail the
``max_abs_diff`` check before it ever flattered the numbers.

``--check-baseline PATH`` compares the freshly measured speedups against the
committed baseline (``benchmarks/baselines/BENCH_core_baseline.json``) and
exits non-zero when

* any kernel's vectorized speedup fell below ``(1 - tolerance)`` times its
  baseline speedup (default tolerance 25%) — speedup *ratios* rather than
  absolute seconds, so the gate is stable across machines of different
  speeds;
* the backends disagree beyond 1e-9 on any kernel; or
* the EigenTrust refresh at 500 peers is below the 10x floor.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections.abc import Callable

from repro.api import (
    BetaReputation,
    CouplingDynamics,
    CouplingState,
    EigenTrust,
    Feedback,
    HAS_NUMPY,
    InteractionSimulator,
    PowerTrust,
    SimpleAverageReputation,
    SimulationConfig,
    SocialNetworkSpec,
    accel,
    available_backends,
    generate_social_network,
)

SCHEMA_VERSION = 1

#: Peer-population sizes for the reputation-kernel measurements.
EIGENTRUST_SIZES = (100, 500, 2000)

#: Identified reports per peer in the synthetic evidence.
REPORTS_PER_PEER = 20

#: The acceptance floor for the headline number.
EIGENTRUST_500_FLOOR = 10.0

#: Cross-backend agreement bound on every kernel's scores.
AGREEMENT_TOLERANCE = 1e-9

#: Baseline entries whose pure-Python time is below this are informational
#: only — too little signal for a stable regression ratio.
MIN_GATED_PYTHON_SECONDS = 5e-3

#: Kernels excluded from the baseline gate regardless of their timing:
#: simulation_rounds is an end-to-end run measured once (graph generation,
#: GC and allocator noise included), far too variable for a 25% ratio gate.
UNGATED_KERNELS = frozenset({"simulation_rounds"})


def synthetic_feedback(n_peers: int, *, seed: int = 0) -> list[Feedback]:
    """Identified feedback over ``n_peers`` peers, power-law-ish targets."""
    rng = random.Random(seed)
    peers = [f"peer-{i:05d}" for i in range(n_peers)]
    reports: list[Feedback] = []
    transaction_id = 0
    for rater in peers:
        for _ in range(REPORTS_PER_PEER):
            # Preferential attachment keeps the trust matrix realistic: a
            # few popular providers soak up most of the assessments.
            subject = peers[min(int(rng.random() ** 2 * n_peers), n_peers - 1)]
            if subject == rater:
                subject = peers[(peers.index(rater) + 1) % n_peers]
            transaction_id += 1
            reports.append(
                Feedback(
                    transaction_id=transaction_id,
                    time=rng.randrange(50),
                    subject=subject,
                    rating=1.0 if rng.random() < 0.7 else 0.0,
                    rater=rater,
                )
            )
    return reports


def _time_best(operation: Callable[[], object], *, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = operation()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_mechanism(
    factory: Callable[[str], object],
    feedback: list[Feedback],
    *,
    repeats: int,
) -> dict[str, object]:
    """Time ``compute_scores`` (the refresh kernel) on both backends."""
    measurements: dict[str, float] = {}
    scores: dict[str, dict[str, float]] = {}
    for backend in ("python", "vectorized"):
        if backend == "vectorized" and not HAS_NUMPY:
            continue
        system = factory(backend)
        for report in feedback:
            system.record_feedback(report)
        seconds, result = _time_best(system.compute_scores, repeats=repeats)
        measurements[backend] = seconds
        scores[backend] = result
    entry: dict[str, object] = {
        "python_seconds": measurements["python"],
    }
    if "vectorized" in measurements:
        both = set(scores["python"]) | set(scores["vectorized"])
        entry["vectorized_seconds"] = measurements["vectorized"]
        entry["speedup"] = measurements["python"] / measurements["vectorized"]
        entry["max_abs_diff"] = max(
            (
                abs(scores["python"].get(peer, 0.0) - scores["vectorized"].get(peer, 0.0))
                for peer in both
            ),
            default=0.0,
        )
    return entry


def bench_coupling(*, batch: int, repeats: int) -> dict[str, object]:
    """Time a batch of coupling equilibria on both backends."""
    rng = random.Random(17)
    initials = [
        CouplingState(
            trust=rng.random(),
            satisfaction=rng.random(),
            reputation_efficiency=rng.random(),
            disclosure=rng.random(),
            honest_contribution=rng.random(),
            privacy_satisfaction=rng.random(),
        )
        for _ in range(batch)
    ]
    results: dict[str, list[CouplingState]] = {}
    measurements: dict[str, float] = {}
    for backend in ("python", "vectorized"):
        if backend == "vectorized" and not HAS_NUMPY:
            continue
        dynamics = CouplingDynamics(backend=backend)
        seconds, final = _time_best(lambda d=dynamics: d.equilibria(initials), repeats=repeats)
        measurements[backend] = seconds
        results[backend] = final
    entry: dict[str, object] = {"python_seconds": measurements["python"]}
    if "vectorized" in measurements:
        entry["vectorized_seconds"] = measurements["vectorized"]
        entry["speedup"] = measurements["python"] / measurements["vectorized"]
        entry["max_abs_diff"] = max(
            max(
                abs(a - b)
                for a, b in zip(p.as_dict().values(), v.as_dict().values(), strict=True)
            )
            for p, v in zip(results["python"], results["vectorized"], strict=True)
        )
    return entry


def bench_simulation(*, n_users: int, rounds: int, repeats: int) -> dict[str, object]:
    """Time full simulation rounds (batched loop + vectorized refresh)."""

    def run(backend: str) -> dict[str, float]:
        graph = generate_social_network(
            SocialNetworkSpec(n_users=n_users, malicious_fraction=0.25, seed=23)
        )
        reputation = EigenTrust(backend=backend)
        simulator = InteractionSimulator(
            graph,
            SimulationConfig(rounds=rounds, seed=23, backend=backend),
            reputation=reputation,
        )
        simulator.run()
        return reputation.refresh()

    measurements: dict[str, float] = {}
    scores: dict[str, dict[str, float]] = {}
    for backend in ("python", "vectorized"):
        if backend == "vectorized" and not HAS_NUMPY:
            continue
        seconds, result = _time_best(lambda b=backend: run(b), repeats=repeats)
        measurements[backend] = seconds
        scores[backend] = result
    entry: dict[str, object] = {"python_seconds": measurements["python"]}
    if "vectorized" in measurements:
        entry["vectorized_seconds"] = measurements["vectorized"]
        entry["speedup"] = measurements["python"] / measurements["vectorized"]
        entry["max_abs_diff"] = max(
            (
                abs(scores["python"][peer] - scores["vectorized"][peer])
                for peer in scores["python"]
            ),
            default=0.0,
        )
    return entry


def run_benchmarks(*, repeats: int, quick: bool = False) -> dict[str, object]:
    """Measure every kernel pair in the cold pipeline.

    This benchmark certifies the *cold* python-vs-vectorized kernel gap;
    the acceleration layers (the incremental refresh is backend-independent
    and would make both columns measure the same code) have their own
    benchmark in ``bench_end_to_end.py``.
    """
    with accel.override(disable_all=True):
        return _run_benchmarks_cold(repeats=repeats, quick=quick)


def _run_benchmarks_cold(*, repeats: int, quick: bool) -> dict[str, object]:
    sizes = EIGENTRUST_SIZES if not quick else (100, 500)
    kernels: list[dict[str, object]] = []

    for n_peers in sizes:
        feedback = synthetic_feedback(n_peers, seed=n_peers)
        entry = bench_mechanism(
            lambda backend: EigenTrust(
                pretrusted=[f"peer-{i:05d}" for i in range(3)], backend=backend
            ),
            feedback,
            repeats=repeats,
        )
        entry.update(kernel="eigentrust_refresh", n=n_peers)
        kernels.append(entry)

    mid = 500
    feedback_mid = synthetic_feedback(mid, seed=mid)
    entry = bench_mechanism(
        lambda backend: PowerTrust(backend=backend), feedback_mid, repeats=repeats
    )
    entry.update(kernel="powertrust_refresh", n=mid)
    kernels.append(entry)

    large = 2000 if not quick else 500
    feedback_large = synthetic_feedback(large, seed=large)
    entry = bench_mechanism(
        lambda backend: BetaReputation(forgetting=0.98, backend=backend),
        feedback_large,
        repeats=repeats,
    )
    entry.update(kernel="beta_refresh", n=large)
    kernels.append(entry)

    entry = bench_mechanism(
        lambda backend: SimpleAverageReputation(backend=backend),
        feedback_large,
        repeats=repeats,
    )
    entry.update(kernel="average_refresh", n=large)
    kernels.append(entry)

    entry = bench_coupling(batch=64 if quick else 256, repeats=repeats)
    entry.update(kernel="coupling_equilibria", n=64 if quick else 256)
    kernels.append(entry)

    # Best-of-3: a single end-to-end run is far too noisy (GC, allocator,
    # CPU contention) even for this ungated, informational entry.
    entry = bench_simulation(n_users=60 if quick else 150, rounds=3 if quick else 5, repeats=3)
    entry.update(kernel="simulation_rounds", n=60 if quick else 150)
    kernels.append(entry)

    headline = next(
        (
            k.get("speedup")
            for k in kernels
            if k["kernel"] == "eigentrust_refresh" and k["n"] == 500
        ),
        None,
    )
    agreement_ok = all(k.get("max_abs_diff", 0.0) <= AGREEMENT_TOLERANCE for k in kernels)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_core_kernels.py",
        "backends": list(available_backends()),
        "config": {
            "sizes": list(sizes),
            "reports_per_peer": REPORTS_PER_PEER,
            "repeats": repeats,
            "quick": quick,
        },
        "kernels": kernels,
        "eigentrust_500_speedup": headline,
        "eigentrust_500_floor": EIGENTRUST_500_FLOOR,
        "agreement_tolerance": AGREEMENT_TOLERANCE,
        "agreement_ok": agreement_ok,
    }


def check_against_baseline(
    report: dict[str, object], baseline: dict[str, object], *, tolerance: float
) -> list[str]:
    """Regression findings (empty when the gate passes)."""
    problems: list[str] = []
    if not report["agreement_ok"]:
        problems.append(f"backends disagree beyond {AGREEMENT_TOLERANCE} on at least one kernel")
    headline = report.get("eigentrust_500_speedup")
    if headline is not None and headline < EIGENTRUST_500_FLOOR:
        problems.append(
            f"eigentrust_refresh@500 speedup {headline:.1f}x is below the "
            f"{EIGENTRUST_500_FLOOR:.0f}x floor"
        )

    def by_key(payload: dict[str, object]) -> dict[tuple[str, int], dict[str, object]]:
        return {(k["kernel"], k["n"]): k for k in payload.get("kernels", []) if "speedup" in k}

    current = by_key(report)
    for key, base_entry in by_key(baseline).items():
        entry = current.get(key)
        if entry is None:
            continue
        if key[0] in UNGATED_KERNELS:
            continue
        if float(base_entry["python_seconds"]) < MIN_GATED_PYTHON_SECONDS:
            # Sub-5ms kernels flip tens of percent run to run; gating them
            # would make the CI job flaky without protecting anything real.
            continue
        floor = (1.0 - tolerance) * float(base_entry["speedup"])
        if float(entry["speedup"]) < floor:
            problems.append(
                f"{key[0]}@{key[1]}: speedup {entry['speedup']:.1f}x regressed "
                f">{tolerance:.0%} against baseline {base_entry['speedup']:.1f}x"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument("--quick", action="store_true", help="smaller sizes for smoke testing")
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="fail when speedups regressed against this committed baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional speedup regression against the baseline",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(repeats=args.repeats, quick=args.quick)

    for kernel in report["kernels"]:
        label = f"{kernel['kernel']}@{kernel['n']}"
        if "speedup" in kernel:
            print(
                f"{label:28s} python {kernel['python_seconds'] * 1e3:9.2f} ms   "
                f"vectorized {kernel['vectorized_seconds'] * 1e3:9.2f} ms   "
                f"speedup {kernel['speedup']:7.1f}x   "
                f"max|diff| {kernel['max_abs_diff']:.2e}"
            )
        else:
            print(
                f"{label:28s} python {kernel['python_seconds'] * 1e3:9.2f} ms   "
                "(numpy unavailable)"
            )

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

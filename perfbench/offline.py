"""The offline pipeline under test: ``run_scenario`` in a child process.

The harness (``offline_run``) spawns this file as the simulator process.
The child imports ``repro.api``, prints ``ready`` and waits for one command
on stdin: an empty line (or end of input) makes it exit, which is how the
harness times set-up several times; ``go`` makes it run the workload and
print one JSON result line.

Each call of ``run_scenario`` starts cold: the run, set-up and network
caches are cleared first, so every repetition does the same work a user's
first call does.  The calls cycle through ``INPUTS`` scenario seeds.  After
the timed repetitions the child reads its peak RSS, then reruns each input
once with every ``accel`` layer off; the digests of those untimed reference
runs are the correctness oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from measure import median, now, peak_rss_mb

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"


#: Scenario seeds per benchmark seed: seed ``s`` runs seeds ``INPUTS * s + k``.
#: Transactions per call vary by a few percent from seed to seed; cycling
#: through several inputs in every run keeps that out of the run-to-run spread.
INPUTS = 4


@dataclass(frozen=True)
class OfflineSpec:
    name: str
    scenario: str
    mechanism: str
    n_users: int
    rounds: int


def result_digest(result: object) -> str:
    """SHA-256 of the sorted-keys JSON of robustness metrics + final scores."""
    payload = {
        "final_scores": result.final_scores,  # type: ignore[attr-defined]
        "robustness": asdict(result.robustness),  # type: ignore[attr-defined]
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def check_digests(
    digests: list[list[str]], references: list[str], pinned: list[str] | None
) -> list[str]:
    """Every timed run of input ``k`` must match its accel-off reference (and the pin)."""
    errors = [
        f"input {k} run {index}: digest {digest[:12]} != accel-off reference {reference[:12]}"
        for k, (runs, reference) in enumerate(zip(digests, references, strict=True))
        for index, digest in enumerate(runs)
        if digest != reference
    ]
    if pinned is not None and references != pinned:
        short = [digest[:12] for digest in references]
        errors.append(f"accel-off digests {short} != pinned {[digest[:12] for digest in pinned]}")
    return errors


def pinned_digest(spec: OfflineSpec, seed: int) -> list[str] | None:
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle).get(f"{spec.name}/{seed}")


# -- child process ---------------------------------------------------------


def _child(spec: OfflineSpec, seed: int, seconds: float, traced: bool) -> dict[str, object]:
    from repro import api

    configs = [
        api.ScenarioRunConfig(
            scenario=spec.scenario,
            mechanism=spec.mechanism,
            n_users=spec.n_users,
            rounds=spec.rounds,
            seed=seed * INPUTS + k,
        )
        for k in range(INPUTS)
    ]

    def cold_run(k: int) -> tuple[object, float]:
        api.clear_run_cache()
        api.clear_setup_cache()
        api.clear_network_cache()
        start = now()
        result = api.run_scenario(configs[k])
        return result, now() - start

    walls: list[list[float]] = [[] for _ in configs]
    traced_walls: list[float] = []
    phases: list[dict[str, object]] = []
    digests: list[list[str]] = [[] for _ in configs]
    transactions = [0 for _ in configs]
    done = 0
    deadline = now() + seconds
    # Untraced and traced repetitions alternate, so both see the same
    # machine state; the untraced ones alone give the end-to-end numbers.
    # Each kind cycles through the inputs.
    while now() < deadline or done < 2 * INPUTS or (traced and len(traced_walls) < 2 * INPUTS):
        profile = traced and len(traced_walls) < done
        k = (len(traced_walls) if profile else done) % INPUTS
        if profile:
            with api.profiled() as timer:
                result, wall = cold_run(k)
            traced_walls.append(wall)
            phases.append(
                {"wall": wall, "seconds": dict(timer.seconds), "counts": dict(timer.counts)}
            )
        else:
            result, wall = cold_run(k)
            walls[k].append(wall)
            done += 1
        transactions[k] = len(result.simulation.transactions)  # type: ignore[attr-defined]
        digests[k].append(result_digest(result))
    rss = peak_rss_mb()
    with api.accel.override(disable_all=True):
        references = [result_digest(cold_run(k)[0]) for k in range(INPUTS)]
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "phases": phases,
        "transactions": transactions,
        "rounds": spec.rounds,
        "digests": digests,
        "references": references,
        "peak_rss_mb": rss,
    }


def _child_main() -> int:
    request = json.loads(sys.argv[1])
    spec = OfflineSpec(**request["spec"])
    import repro.api  # noqa: F401  (set-up ends once the facade is importable)

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = _child(spec, request["seed"], request["seconds"], request["traced"])
    print(json.dumps(result), flush=True)
    return 0


# -- harness side ----------------------------------------------------------


def _spawn(request: dict[str, object]) -> tuple[subprocess.Popen[str], float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = now()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__)), json.dumps(request)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert child.stdout is not None
    line = child.stdout.readline()
    setup = now() - start
    if line.strip() != "ready":
        child.kill()
        child.wait()
        raise RuntimeError(f"simulator process failed to start (said {line!r})")
    return child, setup


def offline_run(
    spec: OfflineSpec, seed: int, seconds: float, traced: bool, setups: int
) -> dict[str, object]:
    """Time set-up ``setups`` times, then run the workload in the last child."""
    request = {"spec": asdict(spec), "seed": seed, "seconds": seconds, "traced": traced}
    setup_times: list[float] = []
    for attempt in range(setups):
        child, setup = _spawn(request)
        setup_times.append(setup)
        try:
            out, _ = child.communicate("go\n" if attempt == setups - 1 else "\n", timeout=170)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"simulator process exited with {child.returncode}")
    result: dict[str, object] = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = median(setup_times)
    return result


if __name__ == "__main__":
    sys.exit(_child_main())

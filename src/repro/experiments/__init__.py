"""Experiment drivers regenerating every figure and claim of the paper.

Each module implements one experiment of the DESIGN.md index:

* :mod:`repro.experiments.scenario` — the end-to-end scenario harness wiring
  social network, simulation, reputation, privacy and satisfaction together;
* :mod:`repro.experiments.figure1` — E-F1, the concept-interaction couplings;
* :mod:`repro.experiments.figure2_left` — E-F2L, the Area-A tradeoff region;
* :mod:`repro.experiments.figure2_right` — E-F2R, the privacy/reputation/
  satisfaction response to the information-sharing level;
* :mod:`repro.experiments.claims` — E-C1..E-C5, the Section-3 bullets;
* :mod:`repro.experiments.reputation_eval` — E-R1, reputation mechanisms vs
  adversary mixes;
* :mod:`repro.experiments.privacy_eval` — E-P1, PriServ enforcement and OECD
  compliance;
* :mod:`repro.experiments.satisfaction_eval` — E-S1, allocation strategies vs
  long-run satisfaction;
* :mod:`repro.experiments.ablations` — E-A1/E-A2, aggregator and anonymity
  ablations;
* :mod:`repro.experiments.robustness` — E-X1, the attack-scenario catalog
  (collusion, whitewashing, traitors, slander, sybil bursts) against every
  reputation mechanism, with attack-resistance metrics;
* :mod:`repro.experiments.results` — structured :class:`ExperimentRecord`
  results with deterministic JSON/CSV serialization;
* :mod:`repro.experiments.sweep` — parallel sweep campaigns (grid, random
  and Latin-hypercube parameter coverage) over any registered experiment;
* :mod:`repro.experiments.runner` — the experiment registry (the CLI is
  :mod:`repro.cli`).
"""

from repro.experiments.results import (
    ExperimentRecord,
    read_records_json,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    run_experiment,
    run_experiment_structured,
)
from repro.experiments.scenario import Scenario, ScenarioConfig, ScenarioResult
from repro.experiments.sweep import (
    ParamRange,
    SweepResult,
    SweepSpec,
    SweepTask,
    expand_tasks,
    run_sweep,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentRecord",
    "ParamRange",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "SweepResult",
    "SweepSpec",
    "SweepTask",
    "expand_tasks",
    "read_records_json",
    "records_from_json",
    "records_to_csv",
    "records_to_json",
    "run_experiment",
    "run_experiment_structured",
    "run_sweep",
]

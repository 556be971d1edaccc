"""Running one catalog scenario end to end.

:func:`run_scenario` assembles the pieces — social graph (optionally
preset-based), reputation mechanism, attack campaign, trace hook — runs the
interaction simulation and condenses the trace into
:class:`~repro.scenarios.metrics.RobustnessMetrics`.  It is the unit of work
the robustness experiment (and any sweep over it) repeats per
(scenario, mechanism) cell.

Two acceleration layers sit in front of the simulation, both pure with
respect to results (see :mod:`repro.core.accel`):

* the **setup cache** (:mod:`repro.scenarios.setup`) shares the generated
  graph and the directory plan across every mechanism column of a scenario
  row — only setup is shared; the simulation still runs per mechanism,
  since provider selection is score-dependent;
* the **run cache** (off by default; sweep workers enable it) memoizes
  whole simulations per process, so sweep points that differ only in
  post-simulation metric knobs (detection threshold, recovery fraction)
  re-evaluate the recorded trace instead of re-simulating.

:func:`reputation_for_graph` is the shared mechanism builder (EigenTrust's
pre-trusted founders, anonymous-feedback wrapping) also used by the
end-to-end :class:`~repro.experiments.scenario.Scenario`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro import _profiling
from repro.core import accel
from repro.core.backend import resolve_backend
from repro.errors import CheckpointError, ConfigurationError
from repro.reputation import REPUTATION_FACTORIES, make_reputation_system
from repro.reputation.anonymous import AnonymousFeedbackReputation
from repro.reputation.base import ReputationSystem
from repro.scenarios.campaign import AttackCampaign, CampaignDriver
from repro.scenarios.catalog import CATALOG, build_campaign, get_scenario
from repro.scenarios.metrics import RobustnessMetrics, ScenarioTrace, evaluate_trace
from repro.scenarios.setup import scenario_setup
from repro.simulation.checkpoint import (
    SimulatorState,
    capture_state,
    read_checkpoint,
    restore_simulator,
    write_checkpoint,
)
from repro.simulation.engine import (
    InteractionSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.socialnet.graph import SocialGraph


def reputation_for_graph(
    graph: SocialGraph,
    mechanism: str,
    *,
    seed: int = 0,
    backend: str = "auto",
    anonymous: bool = False,
) -> ReputationSystem | None:
    """Build the named mechanism wired for a concrete graph.

    EigenTrust assumes a small set of pre-trusted peers (the network
    founders); model them as the three best-connected honest users.  Without
    them the uniform restart hands the dishonest clique enough mass to blunt
    the mechanism.  ``mechanism="none"`` returns ``None`` (the no-reputation
    baseline).
    """
    if mechanism == "none":
        return None
    if mechanism == "eigentrust":
        founders = sorted(
            (user.user_id for user in graph.users() if user.is_honest),
            key=lambda uid: -graph.degree(uid),
        )[:3]
        system = make_reputation_system(mechanism, pretrusted=founders, backend=backend)
    else:
        system = make_reputation_system(mechanism, backend=backend)
    if anonymous:
        return AnonymousFeedbackReputation(system, seed=seed)
    return system


@dataclass
class ScenarioRunConfig:
    """Everything one robustness scenario run needs."""

    scenario: str = "collusion-ring"
    mechanism: str = "eigentrust"
    n_users: int = 40
    rounds: int = 30
    seed: int = 0
    backend: str = "auto"
    topology: str = "barabasi_albert"
    malicious_fraction: float = 0.25
    interactions_per_peer: float = 1.0
    sharing_level: float = 1.0
    #: Optional named social-network preset; overrides ``n_users``,
    #: ``topology`` and ``malicious_fraction`` when given.
    preset: str | None = None
    #: Scenario knob overrides (catalog defaults apply otherwise).
    knobs: dict[str, object] = field(default_factory=dict)
    detect_threshold: float = 0.1
    recovery_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")
        if self.n_users < 2:
            raise ConfigurationError("n_users must be at least 2")
        resolve_backend(self.backend)
        get_scenario(self.scenario)  # fail fast on unknown scenario names

    def simulation_key(self) -> tuple | None:
        """Identity of everything that shapes the *simulation* (not the
        post-hoc metric evaluation): the run-cache key.  ``None`` when the
        knobs are unhashable."""
        try:
            knob_key = tuple(sorted(self.knobs.items()))
        except TypeError:
            return None
        return (
            self.scenario,
            self.mechanism,
            self.n_users,
            self.rounds,
            self.seed,
            self.backend,
            self.topology,
            self.malicious_fraction,
            self.interactions_per_peer,
            self.sharing_level,
            self.preset,
            knob_key,
        )


@dataclass
class ScenarioRunResult:
    """One executed (scenario, mechanism) cell."""

    config: ScenarioRunConfig
    campaign: AttackCampaign
    graph: SocialGraph
    simulation: SimulationResult
    trace: ScenarioTrace
    robustness: RobustnessMetrics
    final_scores: dict[str, float]


#: Per-process memo of executed simulations (run cache), bounded by
#: :func:`_run_cache_capacity`.  Entries keep the full simulation products
#: (roughly a few MB each at laptop-scale populations), which is why the
#: cache is opt-in.
_RUN_CACHE: OrderedDict[tuple, ScenarioRunResult] = OrderedDict()


def _run_cache_capacity() -> int:
    """One cell per (catalog scenario × mechanism, ``"none"`` included).

    Read at insert time, so a full robustness matrix pass always fits — also
    after templates register more scenarios — and threshold-grid
    re-evaluations hit across whole passes instead of thrashing the LRU.
    """
    return len(CATALOG) * (len(REPUTATION_FACTORIES) + 1)


def clear_run_cache() -> None:
    """Drop every memoized scenario run (tests and benchmarks use this)."""
    _RUN_CACHE.clear()


def _evaluate(config: ScenarioRunConfig, base: ScenarioRunResult) -> ScenarioRunResult:
    """Re-derive the metric layer of a finished run for (possibly new)
    detection/recovery knobs.  Everything upstream of ``evaluate_trace`` is
    shared with the cached run; the trace observations are frozen rows."""
    robustness = evaluate_trace(
        base.trace.observations,
        base.campaign.window,
        detect_threshold=config.detect_threshold,
        recovery_fraction=config.recovery_fraction,
        final_rank_correlation=base.trace.final_rank_correlation(),
    )
    return ScenarioRunResult(
        config=config,
        campaign=base.campaign,
        graph=base.graph,
        simulation=base.simulation,
        trace=base.trace,
        robustness=robustness,
        final_scores=base.final_scores,
    )


@dataclass
class ScenarioCheckpoint:
    """What a scenario-run checkpoint file carries.

    The run config travels with the simulator state so resume can rebuild
    the unpicklable configuration layer (campaign closures, trace hooks)
    from the catalog before rehydrating hook cursors out of ``state``.
    """

    config: ScenarioRunConfig
    state: SimulatorState


def _save_scenario_checkpoint(
    path: str, config: ScenarioRunConfig, simulator: InteractionSimulator
) -> None:
    state = capture_state(simulator)
    write_checkpoint(
        path,
        "scenario",
        ScenarioCheckpoint(config=config, state=state),
        round_index=state.next_round,
    )


def _run_segments(
    simulator: InteractionSimulator,
    config: ScenarioRunConfig,
    checkpoint_every: int | None,
    checkpoint_path: str | None,
) -> None:
    """Run the remaining rounds, checkpointing at segment boundaries.

    Segmentation changes nothing about the trajectory (see
    :meth:`InteractionSimulator.run_until`); each completed segment
    atomically replaces the checkpoint file, so a crash at any instant
    loses at most ``checkpoint_every`` rounds of work.
    """
    if checkpoint_every is None:
        simulator.run_until(config.rounds)
        return
    assert checkpoint_path is not None  # enforced by _check_checkpoint_args
    while simulator.completed_rounds < config.rounds:
        target = min(config.rounds, simulator.completed_rounds + checkpoint_every)
        simulator.run_until(target)
        _save_scenario_checkpoint(checkpoint_path, config, simulator)


def _check_checkpoint_args(checkpoint_every: int | None, checkpoint_path: str | None) -> None:
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be at least 1")
    if checkpoint_every is not None and checkpoint_path is None:
        raise ConfigurationError("checkpoint_every needs a checkpoint_path to write to")


def _collect_result(
    config: ScenarioRunConfig,
    campaign: AttackCampaign,
    simulator: InteractionSimulator,
    trace: ScenarioTrace,
) -> ScenarioRunResult:
    """Condense a finished simulator into the run result (metrics layer)."""
    simulation = simulator.result()
    robustness = evaluate_trace(
        trace.observations,
        campaign.window,
        detect_threshold=config.detect_threshold,
        recovery_fraction=config.recovery_fraction,
        final_rank_correlation=trace.final_rank_correlation(),
    )
    reputation = simulator.reputation
    final_scores = (
        reputation.scores() if isinstance(reputation, ReputationSystem) else {}
    )
    return ScenarioRunResult(
        config=config,
        campaign=campaign,
        graph=simulator.graph,
        simulation=simulation,
        trace=trace,
        robustness=robustness,
        final_scores=final_scores,
    )


def run_scenario(
    config: ScenarioRunConfig | None = None,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
    **overrides: object,
) -> ScenarioRunResult:
    """Run one catalog scenario against one mechanism.

    Keyword overrides build a :class:`ScenarioRunConfig` when none is given.
    The whole pipeline draws only from seed-derived named streams, and the
    robustness numbers come from the mechanism's quantized published scores,
    so results are byte-stable across compute backends, worker processes
    and every acceleration flag.

    With ``checkpoint_every=N`` the run snapshots its full state to
    ``checkpoint_path`` every N rounds (atomic replace, newest wins);
    :func:`resume_scenario` picks such a file up after a crash and finishes
    the run byte-identically.  Checkpointed runs bypass the run cache: a
    cache hit would skip the simulation and therefore write no checkpoints.
    """
    if config is None:
        config = ScenarioRunConfig(**overrides)
    elif overrides:
        raise ConfigurationError("pass either a config object or keyword overrides")
    _check_checkpoint_args(checkpoint_every, checkpoint_path)

    run_key = (
        config.simulation_key()
        if accel.flags().run_cache and checkpoint_every is None
        else None
    )
    if run_key is not None:
        cached = _RUN_CACHE.get(run_key)
        if cached is not None:
            _RUN_CACHE.move_to_end(run_key)
            with _profiling.phase("metrics"):
                return _evaluate(config, cached)

    with _profiling.phase("setup"):
        setup = scenario_setup(config)
        graph = setup.graph
        campaign = build_campaign(config.scenario, rounds=config.rounds, **config.knobs)
        reputation = reputation_for_graph(
            graph, config.mechanism, seed=config.seed, backend=config.backend
        )
        driver = CampaignDriver(campaign)
        trace = ScenarioTrace()

        sim_config = SimulationConfig(
            rounds=config.rounds,
            sharing_level=config.sharing_level,
            interactions_per_peer=config.interactions_per_peer,
            seed=config.seed,
            backend=config.backend,
        )
        if campaign.churn is not None:
            sim_config.churn = campaign.churn
        simulator = InteractionSimulator(
            graph,
            sim_config,
            reputation=reputation,
            hooks=(driver, trace),
            directory_plan=setup.plan,
        )
    with _profiling.phase("simulate"):
        _run_segments(simulator, config, checkpoint_every, checkpoint_path)
    with _profiling.phase("metrics"):
        result = _collect_result(config, campaign, simulator, trace)
    if run_key is not None:
        _RUN_CACHE[run_key] = result
        while len(_RUN_CACHE) > _run_cache_capacity():
            _RUN_CACHE.popitem(last=False)
    return result


def resume_scenario(
    path: str,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
) -> ScenarioRunResult:
    """Finish a checkpointed scenario run and return its full result.

    Reads a checkpoint written by ``run_scenario(..., checkpoint_every=N)``,
    rebuilds the configuration layer (campaign, hooks) from the catalog,
    rehydrates every piece of runtime state and runs the remaining rounds.
    The returned result — and any record derived from it — is byte-identical
    to the uninterrupted run's.

    ``checkpoint_every`` keeps checkpointing during the resumed portion
    (to ``checkpoint_path``, defaulting to the source file), so a resumed
    run that crashes again stays resumable.
    """
    _, payload = read_checkpoint(path, expected_kind="scenario")
    if not isinstance(payload, ScenarioCheckpoint):
        raise CheckpointError(f"{path}: payload is not a scenario checkpoint")
    config = payload.config
    if checkpoint_every is not None and checkpoint_path is None:
        checkpoint_path = path
    _check_checkpoint_args(checkpoint_every, checkpoint_path)

    with _profiling.phase("setup"):
        campaign = build_campaign(config.scenario, rounds=config.rounds, **config.knobs)
        driver = CampaignDriver(campaign)
        trace = ScenarioTrace()
        simulator = restore_simulator(payload.state, hooks=(driver, trace))
    with _profiling.phase("simulate"):
        _run_segments(simulator, config, checkpoint_every, checkpoint_path)
    with _profiling.phase("metrics"):
        return _collect_result(config, campaign, simulator, trace)

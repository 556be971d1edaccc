"""Shared scenario setup: build once per scenario row, reuse per cell.

The robustness experiment (and any sweep over it) evaluates every mechanism
against every catalog scenario.  Within one scenario row the expensive
setup work — generating the social network, applying the scenario's
population changes (sybil injection), drawing the directory's behaviour
plan — is *identical* across mechanism columns: it depends on the
specification and the seed, never on the mechanism, because provider
selection only becomes score-dependent once the simulation starts.  This
module caches that setup as a :class:`ScenarioSetup` snapshot keyed by
(specification, scenario, seed) and hands it to every cell.

Safety model: the snapshot is *immutable by contract and guarded by
version*.  Simulations mutate peers (which the
:class:`~repro.simulation.engine.DirectoryPlan` re-materializes freshly per
run), never the graph; scenarios that do mutate the population do so on a
``copy()`` of the cached base network at build time.  The graph's mutation
counter is recorded at store time, and a snapshot whose graph moved is
rebuilt instead of reused — a misbehaving consumer costs a regeneration,
not corrupted results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import accel
from repro.scenarios.catalog import get_scenario
from repro.simulation.engine import DirectoryPlan, build_directory_plan
from repro.simulation.rng import RandomStreams
from repro.socialnet.generators import (
    SocialNetworkSpec,
    cached_social_network,
    generate_social_network,
)
from repro.socialnet.graph import SocialGraph
from repro.socialnet.presets import preset_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.scenarios.runner import ScenarioRunConfig

#: LRU capacity; one entry per (spec, scenario, seed) — a robustness matrix
#: touches one at a time, a sweep a handful.
_SETUP_CACHE_SIZE = 8
_SETUP_CACHE: OrderedDict[tuple, ScenarioSetup] = OrderedDict()


@dataclass(frozen=True)
class ScenarioSetup:
    """One scenario row's shareable setup: graph plus directory plan."""

    graph: SocialGraph
    graph_version: int
    plan: DirectoryPlan

    def valid(self) -> bool:
        """Whether the snapshot's graph is still exactly as stored."""
        return self.graph.version == self.graph_version


def _config_spec(config: ScenarioRunConfig) -> SocialNetworkSpec:
    if config.preset is not None:
        return preset_spec(config.preset, seed=config.seed)
    return SocialNetworkSpec(
        n_users=config.n_users,
        topology=config.topology,
        malicious_fraction=config.malicious_fraction,
        seed=config.seed,
    )


def _setup_key(config: ScenarioRunConfig) -> tuple | None:
    spec = get_scenario(config.scenario)
    try:
        graph_knobs = tuple(
            sorted((k, v) for k, v in config.knobs.items() if k in spec.graph_knobs)
        )
    except TypeError:
        return None
    return (
        config.scenario,
        config.seed,
        config.preset,
        config.n_users,
        config.topology,
        config.malicious_fraction,
        graph_knobs,
    )


def build_scenario_setup(config: ScenarioRunConfig) -> ScenarioSetup:
    """Build the setup fresh (no caching): graph, population changes, plan."""
    from repro.scenarios.catalog import setup_scenario_graph

    spec = _config_spec(config)
    scenario = get_scenario(config.scenario)
    if scenario.setup_graph is None:
        graph = cached_social_network(spec)
    else:
        # Population-changing scenarios mutate the graph; never hand them
        # the shared base network.  (Cold mode regenerates outright.)
        if accel.flags().disable_all:
            graph = generate_social_network(spec)
        else:
            graph = cached_social_network(spec).copy()
        # Population changes (sybil injection) draw from their own derived
        # stream so the generator's draws stay untouched.
        setup_rng = RandomStreams(config.seed).stream("scenario-setup")
        setup_scenario_graph(config.scenario, graph, setup_rng, **config.knobs)
    # The runner's simulations use the default adversary mix (the campaign,
    # not the mix fractions, drives the attack), so the plan draws exactly
    # what the engine would draw for this graph and seed.
    plan = build_directory_plan(graph, RandomStreams(config.seed).stream("behavior"))
    return ScenarioSetup(graph=graph, graph_version=graph.version, plan=plan)


def scenario_setup(config: ScenarioRunConfig) -> ScenarioSetup:
    """The (possibly cached) setup for one scenario run configuration."""
    if accel.flags().disable_all:
        return build_scenario_setup(config)
    key = _setup_key(config)
    if key is None:
        return build_scenario_setup(config)
    cached = _SETUP_CACHE.get(key)
    if cached is not None:
        if cached.valid():
            _SETUP_CACHE.move_to_end(key)
            return cached
        del _SETUP_CACHE[key]
    setup = build_scenario_setup(config)
    _SETUP_CACHE[key] = setup
    while len(_SETUP_CACHE) > _SETUP_CACHE_SIZE:
        _SETUP_CACHE.popitem(last=False)
    return setup


def clear_setup_cache() -> None:
    """Drop every cached scenario setup (tests and benchmarks use this)."""
    _SETUP_CACHE.clear()


__all__ = [
    "ScenarioSetup",
    "build_scenario_setup",
    "clear_setup_cache",
    "scenario_setup",
]

"""Reproduction of *Trust your Social Network According to Satisfaction,
Reputation and Privacy* (Busnel, Serrano-Alvarado, Lamarre, 2010).

The library is organized around the paper's three facets and the substrates
they require:

``repro.socialnet``
    Synthetic social networks: users, profiles, sensitive attributes and the
    graph generators used to build laptop-scale social topologies.
``repro.simulation``
    A discrete-event peer-to-peer interaction simulator with adversary models
    (malicious peers, traitors, whitewashers, colluders) and churn.
``repro.reputation``
    Reputation mechanisms surveyed by the paper: EigenTrust, PowerTrust, a
    TrustMe-like anonymous certificate protocol, Beta reputation, a simple
    average baseline, and an anonymous-feedback mode.
``repro.privacy``
    P3P-inspired privacy policies, a PriServ-like privacy service, OECD
    guideline compliance checking, disclosure accounting and privacy metrics.
``repro.satisfaction``
    The participant intention / adequacy / satisfaction model the paper builds
    on, together with global satisfaction aggregation.
``repro.allocation``
    A query-allocation substrate (consumers, providers, mediator, strategies)
    providing the concrete "system process" participants are satisfied with.
``repro.core``
    The paper's contribution: facet scores, the generic composite trust
    metric, the Section-3 coupling dynamics and the settings-tradeoff
    explorer (Figure 2, "Area A").
``repro.experiments``
    End-to-end scenarios and the experiment drivers that regenerate every
    figure and qualitative claim of the paper.
``repro.serving``
    The live layer: a :class:`~repro.serving.service.ReputationService`
    session behind an HTTP adapter (``repro serve``), fed by streaming
    feedback and durable through checkpoint snapshots.
``repro.api``
    The blessed public facade.  Client code (examples, benchmarks,
    downstream users) should import from :mod:`repro.api` — or from
    :mod:`repro` directly, which lazily forwards the same headline names.

Quickstart
----------
>>> from repro import quick_scenario
>>> result = quick_scenario(n_users=40, seed=7)
>>> 0.0 <= result.trust.global_trust <= 1.0
True
"""

from typing import TYPE_CHECKING

from repro.core import (
    CompositeTrustMetric,
    FacetScores,
    SystemSettings,
    TrustModel,
    TrustReport,
)
from repro.version import __version__

if TYPE_CHECKING:
    from repro.experiments.scenario import ScenarioResult


def quick_scenario(n_users: int = 50, seed: int = 0, rounds: int = 30) -> "ScenarioResult":
    """Run a small end-to-end scenario and return its :class:`ScenarioResult`.

    This is a convenience wrapper around
    :class:`repro.experiments.scenario.Scenario` intended for interactive use
    and doctests.  It builds a synthetic social network, runs the interaction
    simulation with the default reputation system and privacy policies, and
    evaluates the three-facet trust model on the outcome.
    """
    from repro.experiments.scenario import Scenario, ScenarioConfig

    config = ScenarioConfig(n_users=n_users, rounds=rounds, seed=seed)
    return Scenario(config).run()


#: Headline facade names importable directly from ``repro`` — resolved
#: lazily through :mod:`repro.api` so ``import repro`` stays light (the
#: serving and experiment stacks load only on first use).
_FACADE_EXPORTS = (
    "ReputationService",
    "ServiceConfig",
    "create_http_server",
    "ReputationSystem",
    "ScoreView",
    "make_reputation_system",
    "run_scenario",
    "ScenarioRunConfig",
    "run_sweep",
    "SweepSpec",
    "load_template",
    "run_experiment",
    "run_experiment_structured",
    "RunResult",
    "accel",
    "faults",
)


def __getattr__(name: str) -> object:
    """Lazily forward the headline facade names to :mod:`repro.api`."""
    if name == "faults":
        # A real submodule: resolve it directly.  Internal modules import
        # it (``from repro import faults``) while the package tree is still
        # initializing, when pulling the whole facade in would be circular.
        import repro.faults

        return repro.faults
    if name == "accel":
        import repro.core.accel

        return repro.core.accel
    if name in _FACADE_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_FACADE_EXPORTS))


__all__ = [
    "CompositeTrustMetric",
    "FacetScores",
    "SystemSettings",
    "TrustModel",
    "TrustReport",
    "quick_scenario",
    "__version__",
    *_FACADE_EXPORTS,
]

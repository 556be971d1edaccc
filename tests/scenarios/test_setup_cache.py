"""Shared scenario setup: cache reuse, mutation guards, campaign memoization."""

import pytest

from repro._profiling import profiled
from repro.core import accel
from repro.experiments import robustness
from repro.scenarios.catalog import build_campaign, clear_campaign_cache
from repro.scenarios.runner import ScenarioRunConfig, clear_run_cache, run_scenario
from repro.scenarios.setup import (
    build_scenario_setup,
    clear_setup_cache,
    scenario_setup,
)
from repro.socialnet.generators import (
    SocialNetworkSpec,
    cached_social_network,
    clear_network_cache,
    generate_social_network,
)
from repro.socialnet.user import User, standard_profile


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_network_cache()
    clear_setup_cache()
    clear_campaign_cache()
    yield
    clear_network_cache()
    clear_setup_cache()
    clear_campaign_cache()


SPEC = SocialNetworkSpec(n_users=16, seed=3)


class TestNetworkCache:
    def test_same_spec_shares_one_instance(self):
        assert cached_social_network(SPEC) is cached_social_network(
            SocialNetworkSpec(n_users=16, seed=3)
        )

    def test_different_seed_is_a_different_network(self):
        assert cached_social_network(SPEC) is not cached_social_network(
            SocialNetworkSpec(n_users=16, seed=4)
        )

    def test_cached_equals_fresh_generation(self):
        shared = cached_social_network(SPEC)
        fresh = generate_social_network(SPEC)
        assert shared.user_ids() == fresh.user_ids()
        assert {
            uid: shared.neighbors(uid) for uid in shared.user_ids()
        } == {uid: fresh.neighbors(uid) for uid in fresh.user_ids()}

    def test_mutated_entry_is_regenerated_not_reused(self):
        shared = cached_social_network(SPEC)
        user = User(user_id="intruder", profile=standard_profile("intruder"))
        shared.add_user(user)
        regenerated = cached_social_network(SPEC)
        assert regenerated is not shared
        assert "intruder" not in regenerated

    def test_disabled_flag_generates_fresh(self):
        with accel.override(disable_all=True):
            first = cached_social_network(SPEC)
            second = cached_social_network(SPEC)
        assert first is not second

    def test_copy_is_structurally_identical_and_independent(self):
        shared = cached_social_network(SPEC)
        duplicate = shared.copy()
        assert duplicate.user_ids() == shared.user_ids()
        assert all(
            duplicate.neighbors(uid) == shared.neighbors(uid) for uid in shared.user_ids()
        )
        duplicate.add_user(User(user_id="extra", profile=standard_profile("extra")))
        assert "extra" not in shared


class TestScenarioSetupCache:
    def test_setup_shared_across_mechanism_columns(self):
        config_a = ScenarioRunConfig(
            scenario="collusion-ring", mechanism="eigentrust", n_users=14, rounds=6, seed=2
        )
        config_b = ScenarioRunConfig(
            scenario="collusion-ring", mechanism="beta", n_users=14, rounds=6, seed=2
        )
        assert scenario_setup(config_a).graph is scenario_setup(config_b).graph

    def test_sybil_scenario_does_not_pollute_the_base_network(self):
        config = ScenarioRunConfig(
            scenario="sybil-burst", mechanism="average", n_users=14, rounds=10, seed=2
        )
        setup = scenario_setup(config)
        assert any(uid.startswith("sybil-") for uid in setup.graph.user_ids())
        base = cached_social_network(
            SocialNetworkSpec(
                n_users=config.n_users,
                topology=config.topology,
                malicious_fraction=config.malicious_fraction,
                seed=config.seed,
            )
        )
        assert not any(uid.startswith("sybil-") for uid in base.user_ids())

    def test_cached_setup_matches_fresh_build(self):
        config = ScenarioRunConfig(
            scenario="sybil-burst", mechanism="average", n_users=14, rounds=10, seed=2
        )
        cached = scenario_setup(config)
        with accel.override(disable_all=True):
            fresh = build_scenario_setup(config)
        assert cached.graph.user_ids() == fresh.graph.user_ids()
        assert [entry[0] for entry in cached.plan.entries] == [
            entry[0] for entry in fresh.plan.entries
        ]
        cached_behaviors = [type(factory()) for _, factory in cached.plan.entries]
        fresh_behaviors = [type(factory()) for _, factory in fresh.plan.entries]
        assert cached_behaviors == fresh_behaviors

    def test_run_scenario_results_identical_with_and_without_setup_cache(self):
        kwargs = dict(
            scenario="whitewash-wave", mechanism="eigentrust", n_users=14, rounds=8, seed=4
        )
        shared = run_scenario(**kwargs)
        clear_network_cache()
        clear_setup_cache()
        with accel.override(disable_all=True):
            fresh = run_scenario(**kwargs)
        assert shared.robustness == fresh.robustness
        assert shared.final_scores == fresh.final_scores


class TestCampaignMemo:
    def test_same_arguments_return_same_campaign(self):
        first = build_campaign("collusion-ring", rounds=12)
        second = build_campaign("collusion-ring", rounds=12)
        assert first is second

    def test_different_knobs_build_different_campaigns(self):
        base = build_campaign("collusion-ring", rounds=12)
        dense = build_campaign("collusion-ring", rounds=12, density=0.5)
        assert base is not dense

    def test_churn_carrying_campaigns_are_never_shared(self):
        # A PhasedChurnModel counts rounds; two simulators constructed
        # before either runs would corrupt a shared counter, so campaigns
        # with a churn override must be fresh per build.
        first = build_campaign("collusion-under-churn", rounds=12)
        second = build_campaign("collusion-under-churn", rounds=12)
        assert first is not second
        assert first.churn is not second.churn

    def test_interleaved_construction_keeps_churn_phases_correct(self):
        # Regression: construct A, construct B, run A, run B — B must see
        # the churn spike at its scheduled rounds, not a drained counter.
        kwargs = dict(
            scenario="collusion-under-churn", mechanism="none", n_users=14, rounds=10, seed=6
        )
        reference = run_scenario(**kwargs)
        config_a = ScenarioRunConfig(**kwargs)
        config_b = ScenarioRunConfig(**kwargs)
        # run_scenario builds simulators internally; emulate interleaving by
        # building both campaigns first, then running both configs.
        build_campaign("collusion-under-churn", rounds=10)
        first = run_scenario(config_a)
        second = run_scenario(config_b)
        online_series = [
            [observation.online_peers for observation in result.trace.observations]
            for result in (reference, first, second)
        ]
        assert online_series[0] == online_series[1] == online_series[2]

    def test_memoized_campaign_backs_repeated_runs(self):
        kwargs = dict(
            scenario="collusion-under-churn", mechanism="average", n_users=14, rounds=8, seed=1
        )
        first = run_scenario(**kwargs)
        second = run_scenario(**kwargs)
        # The stateful phased churn model is rewound per run, so a shared
        # campaign object yields identical trajectories.
        assert first.robustness == second.robustness


class TestRunCache:
    def test_full_default_matrix_fits_in_the_run_cache(self):
        """A second pass over the whole catalog × default mechanisms never
        re-simulates: the LRU holds every cell, not a thrashing subset."""
        clear_run_cache()
        try:
            with accel.override(run_cache=True):
                first = robustness.run(n_users=10, rounds=4)
                with profiled() as timer:
                    second = robustness.run(n_users=10, rounds=4)
        finally:
            clear_run_cache()
        assert "simulate" not in timer.seconds
        assert timer.counts["metrics"] == len(first.outcomes)
        assert robustness.summarize(first) == robustness.summarize(second)

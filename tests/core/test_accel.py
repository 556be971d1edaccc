"""Unit tests for the acceleration switch."""

import pytest

from repro.core import accel
from repro.errors import ConfigurationError


class TestFlags:
    def test_defaults(self):
        flags = accel.AccelFlags()
        assert not flags.run_cache
        assert not flags.disable_all

    def test_override_restores_previous_state(self):
        before = accel.flags()
        with accel.override(run_cache=True) as inside:
            assert inside.run_cache
        assert accel.flags() == before

    def test_override_restores_on_error(self):
        before = accel.flags()
        with pytest.raises(RuntimeError), accel.override(disable_all=True):
            raise RuntimeError("boom")
        assert accel.flags() == before

    def test_disable_all_wins_over_individual_flags(self):
        with accel.override(run_cache=True, disable_all=True) as flags:
            assert not flags.run_cache

    def test_nested_overrides(self):
        with accel.override(disable_all=True):
            with accel.override(run_cache=True) as inner:
                assert inner.disable_all
                assert not inner.run_cache
            assert accel.flags().disable_all
        assert not accel.flags().disable_all


class TestEnvParsing:
    def test_tokens(self):
        assert accel._from_env("on") == accel.AccelFlags()
        assert accel._from_env("OFF") == accel.AccelFlags(disable_all=True)

    def test_off_token_sets_master_switch(self):
        flags = accel._from_env("off")
        assert flags.disable_all
        assert not flags.effective().run_cache

    def test_empty_and_whitespace_tokens_ignored(self):
        assert accel._from_env("") == accel.AccelFlags()
        assert accel._from_env("  ") == accel.AccelFlags()

    def test_unknown_token_rejected(self):
        for value in ("warp-speed", "no-run-cache", "on,off"):
            with pytest.raises(ConfigurationError, match="'on'.*'off'"):
                accel._from_env(value)

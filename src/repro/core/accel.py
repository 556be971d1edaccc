"""The acceleration switch for the end-to-end pipeline.

The execution layers added for pipeline acceleration — incremental
reputation refresh (beta/average/pair-ledger folds), shared scenario setup
and network caches, per-worker scenario-run memoization — are all *pure*
with respect to published results: enabling or disabling them must never
change a record byte.  That contract is what makes a single global switch
safe, and the switch is what makes the contract testable: benchmarks and
property tests compare a cold run against an accelerated one and assert
byte-identical output, and ``benchmarks/bench_end_to_end.py`` measures the
cold versus accelerated pipeline with the same binary.

Flags
-----
``disable_all``
    The cold reference: every layer off — full feedback rescans per
    refresh, per-cell scenario setup, no run memoization.  Off by default;
    while it is off, the incremental folds and the setup/network caches
    always run.
``run_cache``
    Whole scenario *simulations* are memoized per process so sweep points
    that differ only in post-simulation metric knobs (detection thresholds)
    re-evaluate the cached trace instead of re-simulating.  Default off —
    sweep workers and inline sweeps opt in, interactive sessions keep fresh
    runs.  ``disable_all`` wins over it.

The environment variable ``REPRO_ACCEL`` seeds the initial state (it is read
once at import, so forked sweep workers inherit whatever the parent set):
``off`` sets ``disable_all``; ``on`` or the empty string keep the defaults.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from collections.abc import Iterator

from repro.errors import ConfigurationError

#: Recognized ``REPRO_ACCEL`` values.
_ENV_VALUES = ("", "on", "off")


@dataclass(frozen=True)
class AccelFlags:
    """The switch state; treat instances as immutable snapshots."""

    run_cache: bool = False
    #: Master kill switch: when set, every layer is off and ``run_cache``
    #: reads as off regardless of its own value (the cold-pipeline mode).
    disable_all: bool = False

    def effective(self) -> AccelFlags:
        """The flags as consumers should read them (kill switch applied)."""
        if not self.disable_all:
            return self
        return AccelFlags(run_cache=False, disable_all=True)


def _from_env(value: str) -> AccelFlags:
    """Parse ``REPRO_ACCEL``."""
    token = value.strip().lower()
    if token not in _ENV_VALUES:
        raise ConfigurationError(
            f"unknown REPRO_ACCEL value {token!r}; expected one of {_ENV_VALUES}"
        )
    return AccelFlags(disable_all=token == "off")


_STATE: AccelFlags = _from_env(os.environ.get("REPRO_ACCEL", ""))


def flags() -> AccelFlags:
    """The current effective acceleration flags."""
    return _STATE.effective()


def set_flags(**updates: bool) -> AccelFlags:
    """Permanently update flags (sweep worker initializers use this)."""
    global _STATE
    _STATE = replace(_STATE, **updates)
    return flags()


@contextmanager
def override(**updates: bool) -> Iterator[AccelFlags]:
    """Temporarily override flags; restores the previous state on exit."""
    global _STATE
    previous = _STATE
    _STATE = replace(_STATE, **updates)
    try:
        yield flags()
    finally:
        _STATE = previous


__all__ = ["AccelFlags", "flags", "override", "set_flags"]

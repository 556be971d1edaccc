"""The annotation registry: which invariants apply where.

``repro-lint`` rules are generic AST walkers; this module binds them to the
repository's actual contracts — which classes carry cache counters, which
module owns randomness, which helpers are allowed to compare floats exactly.
Tests inject purpose-built configs to prove rules fire; the CLI uses
:func:`default_config`, which encodes the live tree's invariants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheContract:
    """Cache-discipline contract (rule R3) for one class.

    Two shapes exist:

    * **Owner** classes (``counters`` non-empty) hold primary state plus
      derived caches and expose monotone change counters.  Every method that
      mutates primary state must bump a counter (``self._version += 1``) or
      call one of the ``invalidators``.
    * **Derived** classes (``source_counters`` non-empty) hold only caches
      keyed on another object's counter.  Every method that writes a cache
      field must read at least one of the declared source counters, so the
      cache can never be reused across a source mutation.
    """

    module: str
    class_name: str
    #: Own monotone counter attributes (owner classes).
    counters: tuple[str, ...] = ()
    #: Methods that perform the bump/invalidation on the caller's behalf.
    invalidators: tuple[str, ...] = ()
    #: Derived/cache attributes: writing these never requires a bump.
    cache_fields: tuple[str, ...] = ()
    #: Attribute paths (relative to ``self``) of the upstream counters a
    #: derived cache must consult, e.g. ``"_store.epoch"``.
    source_counters: tuple[str, ...] = ()
    #: Methods exempt from the check (constructors by default).
    exempt_methods: tuple[str, ...] = ("__init__", "__post_init__")


@dataclass(frozen=True)
class LintConfig:
    """Everything rule behaviour can be parameterized on."""

    #: Modules (path suffixes) allowed to touch raw randomness (R1).
    determinism_exempt: tuple[str, ...] = ()
    #: Modules additionally allowed to read wall clocks (R1): profiling.
    clock_exempt: tuple[str, ...] = ()
    #: Function names whose return value is an unordered set even without a
    #: visible annotation at the call site (R2 tracks cross-module calls).
    set_returning: tuple[str, ...] = ()
    #: Cache contracts keyed by class name (R3).
    cache_contracts: tuple[CacheContract, ...] = ()
    #: Module suffix of the acceleration switchboard and its flags class (R4).
    accel_module: str = ""
    accel_class: str = "AccelFlags"
    #: Accel flags that legitimately need no dedicated byte-agreement test.
    accel_exempt: tuple[str, ...] = ()
    #: Function names that may compare floats exactly (R5): quantizers that
    #: snap values to a grid before comparing.
    float_eq_helpers: tuple[str, ...] = ()
    #: Directory (relative to the lint root) holding the shipped scenario
    #: templates (R7); empty disables the parity check.
    template_dir: str = ""
    #: Module suffix of the scenario catalog whose ``CATALOG`` dict literal
    #: R7 cross-references against the template library.
    catalog_module: str = ""
    #: ``schema_version`` values a shipped template may declare (R7).
    template_schema_versions: tuple[int, ...] = ()
    #: Function names recognised as structured-error-record emitters (R8): a
    #: broad ``except Exception`` handler is disciplined if it re-raises or
    #: calls one of these.
    error_record_calls: tuple[str, ...] = ()
    #: Directories (relative to the project root) that are *clients* of the
    #: public API (R9): modules there may import only the blessed facade,
    #: never package internals.  Empty disables the boundary check.
    api_client_dirs: tuple[str, ...] = ()
    #: Module names the client trees may import (R9).  A module passes when
    #: every ``repro…`` import names exactly one of these (``repro`` itself
    #: or the ``repro.api`` facade — never a dotted internal module).
    api_allowed_imports: tuple[str, ...] = ()

    def contracts_by_class(self) -> dict[str, tuple[CacheContract, ...]]:
        table: dict[str, tuple[CacheContract, ...]] = {}
        for contract in self.cache_contracts:
            table[contract.class_name] = table.get(contract.class_name, ()) + (contract,)
        return table


#: The live tree's cache-discipline contracts.  Adding a cached/derived
#: field to one of these classes?  Extend the contract, or R3 will not see
#: it; adding a *new* cached class?  Register it here.
DEFAULT_CACHE_CONTRACTS: tuple[CacheContract, ...] = (
    CacheContract(
        module="repro/reputation/gathering.py",
        class_name="FeedbackStore",
        counters=("_version", "_epoch"),
        cache_fields=(
            "_columns",
            "_columns_stale",
            "_participants_state",
            "_participants_sorted",
        ),
    ),
    CacheContract(
        module="repro/reputation/gathering.py",
        class_name="LocalTrustBuilder",
        cache_fields=("_totals", "_watermark"),
        source_counters=("_store.epoch",),
    ),
    CacheContract(
        module="repro/socialnet/graph.py",
        class_name="SocialGraph",
        counters=("_version",),
        invalidators=("_invalidate_caches",),
        cache_fields=("_neighbors_cache", "_users_cache", "_user_ids_cache"),
    ),
    CacheContract(
        module="repro/reputation/overlay.py",
        class_name="TrustOverlayNetwork",
        cache_fields=("_centrality_cache",),
        source_counters=("_store.version",),
    ),
)


def default_config() -> LintConfig:
    """The configuration encoding the live repository's invariants."""
    return LintConfig(
        determinism_exempt=("repro/simulation/rng.py",),
        clock_exempt=("repro/_profiling.py", "repro/serving/sla.py"),
        set_returning=("participants",),
        cache_contracts=DEFAULT_CACHE_CONTRACTS,
        accel_module="repro/core/accel.py",
        accel_class="AccelFlags",
        accel_exempt=(),
        float_eq_helpers=("_quantized",),
        template_dir="templates",
        catalog_module="repro/scenarios/catalog.py",
        template_schema_versions=(1,),
        # ``request_failure_record`` is the serving layer's emitter: broad
        # excepts in ``serving/`` must surface a structured 500 record.
        error_record_calls=(
            "task_failure_record",
            "finding",
            "_file_finding",
            "request_failure_record",
        ),
        api_client_dirs=("examples", "benchmarks"),
        api_allowed_imports=("repro", "repro.api"),
    )

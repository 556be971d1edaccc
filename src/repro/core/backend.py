"""The array-backed compute core: dense indices and vectorized kernels.

Every hot numeric path of the library — the EigenTrust/PowerTrust power
iteration, the Beta/average score refresh, the Section-3 coupling dynamics
and the per-round draws of the interaction simulator — exists in two
implementations:

* a **pure-Python** one (dicts of dicts, explicit loops), the original
  reference code, always available; and
* a **vectorized** one built on NumPy arrays, which maps peer identifiers to
  dense integer indices through :class:`PeerIndex` and expresses the same
  arithmetic as matrix-vector products and batched elementwise updates.

This module owns backend *selection* (``resolve_backend``) and the shared
vectorized kernels.  NumPy is an accelerator, not a hard requirement: when it
is missing, ``resolve_backend("auto")`` falls back to the pure-Python
implementation and everything keeps working, only slower.

Numerical contract
------------------
The two backends compute the same quantities with the same operation
*structure* but not always the same floating-point *order* (BLAS matrix
products re-associate sums), so raw results agree only to ~1e-12.  Consumers
that must be bit-identical across backends (the sweep determinism contract)
rely on :meth:`repro.reputation.base.ReputationSystem.refresh` publishing
scores quantized to a coarse 1e-9 grid, which absorbs that noise.  The
coupling kernels mirror the pure-Python expressions term by term and *are*
bitwise identical to the fallback.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

try:
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None  # type: ignore[assignment]

try:
    import scipy.sparse as sparse
except ImportError:  # pragma: no cover - scipy is an optional accelerator
    sparse = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from types import ModuleType

    from repro.reputation.gathering import FeedbackColumns

    #: Anything the kernels coerce through ``numpy.asarray``: an existing
    #: array or a (possibly nested) sequence of numbers.
    ArrayLike = np.ndarray | Sequence[float] | Sequence[Sequence[float]]
    #: A local-trust matrix: dense array, or CSR-sparse when scipy is present.
    TrustMatrix = np.ndarray | sparse.csr_matrix

#: Whether the vectorized backend can be used at all in this interpreter.
HAS_NUMPY = np is not None

#: Whether sparse kernels are available.  The local-trust matrix is a
#: percent-dense object at realistic peer counts, so CSR storage turns the
#: power iteration from O(n^2) memory traffic into O(nnz); without scipy the
#: vectorized backend silently uses dense arrays (same results, slower).
HAS_SCIPY = sparse is not None

PYTHON_BACKEND = "python"
VECTORIZED_BACKEND = "vectorized"
AUTO_BACKEND = "auto"

#: Every name ``resolve_backend`` accepts.
BACKEND_CHOICES = (AUTO_BACKEND, PYTHON_BACKEND, VECTORIZED_BACKEND)

#: Spread below which a min-max rescale treats all values as equal.  Kept
#: well above float noise (1e-16-ish) so that near-degenerate spreads do not
#: amplify backend-dependent rounding into visible score differences.
FLAT_SPREAD = 1e-12

#: Below this peer count the local-trust matrix is built dense even when
#: scipy is available.  A CSR matvec costs ~15µs of per-call dispatch
#: overhead regardless of size, which dominates the power iteration at the
#: population sizes the scenario experiments run (tens of peers, ~100
#: iterations per refresh); a dense matvec at n=128 is ~2µs.  The crossover
#: where sparsity wins back the memory traffic sits well above this.
DENSE_TRUST_THRESHOLD = 128


def available_backends() -> tuple[str, ...]:
    """The concrete backends that can run in this interpreter."""
    if HAS_NUMPY:
        return (PYTHON_BACKEND, VECTORIZED_BACKEND)
    return (PYTHON_BACKEND,)


def resolve_backend(name: str) -> str:
    """Map a backend request to a concrete backend name.

    ``auto`` picks the vectorized backend when NumPy is importable and the
    pure-Python one otherwise; asking for ``vectorized`` explicitly without
    NumPy is a configuration error rather than a silent fallback.
    """
    if name not in BACKEND_CHOICES:
        raise ConfigurationError(f"unknown backend {name!r}; expected one of {BACKEND_CHOICES}")
    if name == AUTO_BACKEND:
        return VECTORIZED_BACKEND if HAS_NUMPY else PYTHON_BACKEND
    if name == VECTORIZED_BACKEND and not HAS_NUMPY:
        raise ConfigurationError(
            "the vectorized backend requires numpy, which is not installed; "
            "install numpy or select backend='python'"
        )
    return name


def require_numpy() -> ModuleType:
    """Return the numpy module or raise a helpful error."""
    if np is None:  # pragma: no cover - exercised only without numpy
        raise ConfigurationError("this code path requires numpy, which is not installed")
    return np


class PeerIndex:
    """A bijection between peer identifiers and dense array positions.

    The id order given at construction *is* the array order, so callers
    control (and can keep deterministic) the layout of every derived vector
    and matrix.
    """

    __slots__ = ("ids", "_positions")

    def __init__(self, ids: Sequence[str]) -> None:
        self.ids: list[str] = list(ids)
        self._positions: dict[str, int] = {peer: position for position, peer in enumerate(self.ids)}
        if len(self._positions) != len(self.ids):
            raise ConfigurationError("peer ids must be unique")

    @classmethod
    def from_ids(cls, ids: Iterable[str], *, sort: bool = True) -> PeerIndex:
        return cls(sorted(ids) if sort else list(ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._positions

    def position(self, peer_id: str) -> int:
        try:
            return self._positions[peer_id]
        except KeyError:
            raise ConfigurationError(f"unknown peer id {peer_id!r}") from None

    def positions(self, peer_ids: Iterable[str]) -> list[int]:
        lookup = self._positions
        return [lookup[peer_id] for peer_id in peer_ids]

    def permutation(self, ids: Sequence[str]) -> np.ndarray:
        """Dense positions of ``ids`` as an array; unknown ids map to -1.

        Pairs with interned code columns: translating a million-report code
        column costs one permutation build over the (small) id universe plus
        one vectorized gather, instead of a dict lookup per report.
        """
        numpy = require_numpy()
        lookup = self._positions
        return numpy.fromiter(
            (lookup.get(peer_id, -1) for peer_id in ids),
            dtype=numpy.intp,
            count=len(ids),
        )

    def vector_to_dict(self, values: Iterable[float]) -> dict[str, float]:
        """Zip a dense vector back into an id-keyed mapping (array order)."""
        return {peer: float(value) for peer, value in zip(self.ids, values, strict=True)}

    def dict_to_vector(self, mapping: Mapping[str, float], *, default: float = 0.0) -> np.ndarray:
        numpy = require_numpy()
        return numpy.array([mapping.get(peer, default) for peer in self.ids], dtype=float)


# -- reputation kernels -----------------------------------------------------


def local_trust_matrix(
    n: int,
    rater_positions: ArrayLike,
    subject_positions: ArrayLike,
    deltas: ArrayLike,
) -> TrustMatrix:
    """Row-normalized local trust ``C`` from pairwise feedback deltas.

    Mirrors :meth:`LocalTrustBuilder.normalized_local_trust`: raw pairwise
    totals are clipped at zero, then each row is normalized to sum to one;
    rows without positive evidence stay all-zero (dangling) and are handled
    by :func:`power_iteration`'s restart redistribution.

    Returns a CSR matrix when scipy is available and the population is
    large (the trust graph is a few percent dense at realistic peer counts,
    so sparse storage keeps both the build and every matrix-vector product
    O(nnz)); below :data:`DENSE_TRUST_THRESHOLD` peers — or without scipy —
    a dense array via :func:`dense_local_trust_matrix`, where the fixed CSR
    dispatch overhead would dominate.  Same values either way.
    """
    numpy = require_numpy()
    if sparse is None or n < DENSE_TRUST_THRESHOLD:
        return dense_local_trust_matrix(n, rater_positions, subject_positions, deltas)
    rater_positions = numpy.asarray(rater_positions, dtype=numpy.intp)
    subject_positions = numpy.asarray(subject_positions, dtype=numpy.intp)
    deltas = numpy.asarray(deltas, dtype=float)
    raw = sparse.coo_matrix(
        (deltas, (rater_positions, subject_positions)), shape=(n, n)
    ).tocsr()  # tocsr() sums duplicate (rater, subject) entries
    numpy.maximum(raw.data, 0.0, out=raw.data)
    raw.eliminate_zeros()
    row_sums = numpy.asarray(raw.sum(axis=1)).ravel()
    scale = numpy.where(row_sums > 0.0, row_sums, 1.0)
    raw.data /= numpy.repeat(scale, numpy.diff(raw.indptr))
    return raw


def dense_local_trust_matrix(
    n: int,
    rater_positions: ArrayLike,
    subject_positions: ArrayLike,
    deltas: ArrayLike,
) -> np.ndarray:
    """The dense fallback of :func:`local_trust_matrix` (no scipy needed).

    The scatter-add goes through ``bincount`` on flattened ``(rater,
    subject)`` positions, which is far faster than ``np.add.at``.
    """
    numpy = require_numpy()
    rater_positions = numpy.asarray(rater_positions, dtype=numpy.intp)
    if rater_positions.size:
        subject_positions = numpy.asarray(subject_positions, dtype=numpy.intp)
        flat = rater_positions * n + subject_positions
        raw = numpy.bincount(
            flat, weights=numpy.asarray(deltas, dtype=float), minlength=n * n
        ).reshape(n, n)
    else:
        raw = numpy.zeros((n, n), dtype=float)
    # Clip at zero, then row-normalize; rows without positive evidence stay
    # all-zero (dangling).
    numpy.maximum(raw, 0.0, out=raw)
    row_sums = raw.sum(axis=1)
    nonzero = row_sums > 0.0
    raw[nonzero] /= row_sums[nonzero, None]
    return raw


def local_trust_matrix_from_columns(columns: FeedbackColumns, index: PeerIndex) -> TrustMatrix:
    """Dense local trust straight from interned feedback columns.

    ``columns`` is a :class:`repro.reputation.gathering.FeedbackColumns`;
    anonymous reports (rater code -1) and peers outside ``index`` are
    dropped, exactly as the dict-based builder ignores them.
    """
    numpy = require_numpy()
    perm = index.permutation(columns.id_for_code)
    rater_codes = numpy.asarray(columns.rater_codes, dtype=numpy.intp)
    identified = rater_codes >= 0
    rater_positions = perm[rater_codes[identified]]
    subject_positions = perm[numpy.asarray(columns.subject_codes, dtype=numpy.intp)[identified]]
    known = (rater_positions >= 0) & (subject_positions >= 0)
    deltas = numpy.where(numpy.asarray(columns.positives, dtype=bool)[identified][known], 1.0, -1.0)
    return local_trust_matrix(len(index), rater_positions[known], subject_positions[known], deltas)


def power_iteration(
    matrix: TrustMatrix,
    restart: ArrayLike,
    *,
    restart_weight: float,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int]:
    """Damped power iteration ``t ← (1 − a)·(Cᵀ t + dangling·p) + a·p``.

    ``matrix`` is the row-stochastic local trust ``C`` (all-zero rows are
    dangling peers), dense or CSR-sparse; ``restart`` is the restart
    distribution ``p``.  Returns ``(stationary vector, iterations used)``.

    On the sparse path dangling mass is accumulated once per iteration and
    redistributed over ``p`` — the same algebra the pure-Python loop
    performs peer by peer.  On the dense (small-``n``) path the dangling
    redistribution *and* the damping factor are folded into one iteration
    matrix ``M = (1 − a)·(Cᵀ + p·dᵀ)`` up front, so each of the ~100
    iterations per refresh is a single matmul plus one add instead of eight
    dispatched array ops; the re-association shifts results by float
    round-off only, which the publication grid absorbs like any other
    backend noise.
    """
    numpy = require_numpy()
    restart = numpy.asarray(restart, dtype=float)
    trust = restart.copy()
    iterations = 0
    if sparse is not None and sparse.issparse(matrix):
        dangling = numpy.asarray(matrix.sum(axis=1)).ravel() <= 0.0
        transposed = matrix.T.tocsr()
        any_dangling = bool(dangling.any())
        for _ in range(max_iterations):
            iterations += 1
            updated = transposed @ trust
            if any_dangling:
                dangling_mass = float(trust[dangling].sum())
                updated += dangling_mass * restart
            blended = (1.0 - restart_weight) * updated + restart_weight * restart
            delta = float(numpy.abs(blended - trust).sum())
            trust = blended
            if delta < tolerance:
                break
        return trust, iterations
    matrix = numpy.asarray(matrix, dtype=float)
    dangling = matrix.sum(axis=1) <= 0.0
    iteration_matrix = numpy.ascontiguousarray(
        (1.0 - restart_weight)
        * (matrix.T + numpy.outer(restart, dangling.astype(float)))
    )
    restart_mass = restart_weight * restart
    absolute = numpy.abs
    for _ in range(max_iterations):
        iterations += 1
        blended = iteration_matrix @ trust
        blended += restart_mass
        delta = float(absolute(blended - trust).sum())
        trust = blended
        if delta < tolerance:
            break
    return trust, iterations


def minmax_rescale(values: ArrayLike) -> np.ndarray:
    """Min-max rescale a vector into ``[0, 1]``; flat vectors map to 0.5."""
    numpy = require_numpy()
    values = numpy.asarray(values, dtype=float)
    low = float(values.min())
    high = float(values.max())
    if high - low < FLAT_SPREAD:
        return numpy.full_like(values, 0.5)
    return numpy.clip((values - low) / (high - low), 0.0, 1.0)


def subject_positions_from_columns(columns: FeedbackColumns, index: PeerIndex) -> np.ndarray:
    """Dense index positions of every report's subject, via interned codes.

    The shared preamble of the subject-keyed score kernels (Beta, simple
    average): one permutation over the columns' id universe plus one gather
    over the code column.
    """
    numpy = require_numpy()
    return index.permutation(columns.id_for_code)[
        numpy.asarray(columns.subject_codes, dtype=numpy.intp)
    ]


def minmax_rescale_dict(trust: dict[str, float]) -> dict[str, float]:
    """Pure-Python twin of :func:`minmax_rescale` over an id-keyed mapping.

    The single source of the flat-maps-to-0.5 / clamp((v-low)/spread) rule
    both power-iteration mechanisms publish through; works without numpy.
    """
    if not trust:
        return {}
    low = min(trust.values())
    high = max(trust.values())
    if high - low < FLAT_SPREAD:
        return {peer: 0.5 for peer in trust}
    spread = high - low
    return {peer: min(1.0, max(0.0, (value - low) / spread)) for peer, value in trust.items()}


def mean_scores(subject_positions: ArrayLike, ratings: ArrayLike, n_subjects: int) -> np.ndarray:
    """Per-subject mean rating (the simple-average mechanism's kernel)."""
    numpy = require_numpy()
    positions = numpy.asarray(subject_positions, dtype=numpy.intp)
    ratings = numpy.asarray(ratings, dtype=float)
    sums = numpy.bincount(positions, weights=ratings, minlength=n_subjects)
    counts = numpy.bincount(positions, minlength=n_subjects)
    return sums / numpy.maximum(counts, 1)


def beta_scores(
    subject_positions: ArrayLike,
    times: ArrayLike,
    positives: ArrayLike,
    *,
    forgetting: float,
    n_subjects: int,
) -> np.ndarray:
    """Beta-posterior expected values with exponential forgetting.

    ``α = 1 + Σ forgetting^(latest_subject − t)`` over positive reports,
    ``β`` likewise over negative ones — the vector twin of
    :meth:`BetaReputation.compute_scores`.
    """
    numpy = require_numpy()
    positions = numpy.asarray(subject_positions, dtype=numpy.intp)
    times = numpy.asarray(times, dtype=float)
    positives = numpy.asarray(positives, dtype=bool)
    latest = numpy.full(n_subjects, -numpy.inf)
    numpy.maximum.at(latest, positions, times)
    weights = numpy.power(float(forgetting), latest[positions] - times)
    alpha = numpy.ones(n_subjects, dtype=float)
    beta = numpy.ones(n_subjects, dtype=float)
    numpy.add.at(alpha, positions[positives], weights[positives])
    numpy.add.at(beta, positions[~positives], weights[~positives])
    return alpha / (alpha + beta)


# -- coupling kernels -------------------------------------------------------

#: Column layout of coupling state arrays; must match
#: :data:`repro.core.coupling.STATE_VARIABLES`.
COUPLING_LAYOUT = (
    "trust",
    "satisfaction",
    "reputation_efficiency",
    "disclosure",
    "honest_contribution",
    "privacy_satisfaction",
)


def coupling_step(
    state: ArrayLike,
    *,
    sharing_level: float,
    mechanism_power: float,
    policy_respect: float,
    trustworthy_fraction: float,
    damping: float,
    privacy_weight: float,
    reputation_weight: float,
    satisfaction_weight: float,
) -> np.ndarray:
    """One damped update of the Section-3 couplings on a ``(..., 6)`` array.

    The expressions mirror :class:`CouplingDynamics`' pure-Python targets
    term by term (same operand order), so a single-state step is bitwise
    identical to the fallback; the payoff is that the leading axes batch
    arbitrarily many states through one pass.
    """
    numpy = require_numpy()
    state = numpy.asarray(state, dtype=float)
    trust = state[..., 0]
    satisfaction = state[..., 1]
    reputation_efficiency = state[..., 2]
    disclosure = state[..., 3]
    honest_contribution = state[..., 4]
    privacy_satisfaction = state[..., 5]

    privacy_target = numpy.clip(policy_respect * (1.0 - 0.6 * disclosure), 0.0, 1.0)
    reputation_target = numpy.clip(
        mechanism_power * (disclosure * (0.4 + 0.6 * honest_contribution)),
        0.0,
        1.0,
    )
    satisfaction_target = numpy.clip(
        0.35 * trust + 0.35 * reputation_efficiency + 0.30 * privacy_satisfaction,
        0.0,
        1.0,
    )
    effective_reputation = reputation_efficiency * trustworthy_fraction
    total = privacy_weight + reputation_weight + satisfaction_weight
    trust_target = numpy.clip(
        (
            privacy_weight * privacy_satisfaction
            + reputation_weight * effective_reputation
            + satisfaction_weight * satisfaction
        )
        / total,
        0.0,
        1.0,
    )
    disclosure_target = numpy.clip(sharing_level * (0.2 + 0.8 * trust), 0.0, 1.0)
    honest_target = numpy.clip(0.3 + 0.7 * trust, 0.0, 1.0)

    targets = numpy.stack(
        [
            trust_target,
            satisfaction_target,
            reputation_target,
            disclosure_target,
            honest_target,
            privacy_target,
        ],
        axis=-1,
    )
    return numpy.clip((1.0 - damping) * state + damping * targets, 0.0, 1.0)


def coupling_run(
    initial: ArrayLike,
    *,
    steps: int,
    tolerance: float,
    **params: float,
) -> np.ndarray:
    """Iterate one coupling state to convergence; returns the ``(T, 6)`` path."""
    numpy = require_numpy()
    state = numpy.asarray(initial, dtype=float)
    trajectory = [state]
    for _ in range(steps):
        next_state = coupling_step(state, **params)
        trajectory.append(next_state)
        if float(numpy.max(numpy.abs(next_state - state))) < tolerance:
            break
        state = next_state
    return numpy.stack(trajectory, axis=0)


def coupling_equilibria(
    initials: ArrayLike,
    *,
    steps: int,
    tolerance: float,
    **params: float,
) -> np.ndarray:
    """Evolve a batch of states to their per-trajectory fixed points.

    Equivalent to calling :func:`coupling_run` on each row and keeping the
    final state, but all still-active trajectories advance through one
    batched :func:`coupling_step` per iteration.  Converged rows freeze and
    drop out of the batch (``params`` must therefore be scalars, which is
    what :class:`CouplingDynamics` provides), so each row's result matches
    its standalone trajectory exactly and a lone straggler does not keep
    paying for the whole batch.
    """
    numpy = require_numpy()
    state = numpy.array(initials, dtype=float, copy=True)
    if state.ndim != 2 or state.shape[1] != len(COUPLING_LAYOUT):
        raise ConfigurationError(f"initials must have shape (m, {len(COUPLING_LAYOUT)})")
    active = numpy.arange(state.shape[0])
    for _ in range(steps):
        if not active.size:
            break
        subset = state[active]
        stepped = coupling_step(subset, **params)
        state[active] = stepped
        moved = numpy.max(numpy.abs(stepped - subset), axis=-1)
        active = active[moved >= tolerance]
    return state


# -- simulation kernels -----------------------------------------------------


def interaction_counts(
    activities: ArrayLike, interactions_per_peer: float, draws: ArrayLike
) -> np.ndarray:
    """Per-peer interaction counts from one uniform draw per peer.

    Mirrors the scalar rule ``int(e) + (draw < e - int(e))`` with
    ``e = activity · interactions_per_peer``; the comparison and floor are
    bitwise identical to the per-peer Python arithmetic.
    """
    numpy = require_numpy()
    expected = numpy.asarray(activities, dtype=float) * interactions_per_peer
    base = numpy.floor(expected)
    bonus = numpy.asarray(draws, dtype=float) < (expected - base)
    return (base + bonus).astype(numpy.intp)


def lexicographic_argmax(primary: ArrayLike, tiebreak: ArrayLike) -> int:
    """Index of the maximum by ``(primary, tiebreak)`` — vectorized twin of
    sorting score/jitter pairs descending and taking the head."""
    numpy = require_numpy()
    order = numpy.lexsort(
        (numpy.asarray(tiebreak, dtype=float), numpy.asarray(primary, dtype=float))
    )
    return int(order[-1])


__all__ = [
    "AUTO_BACKEND",
    "BACKEND_CHOICES",
    "COUPLING_LAYOUT",
    "DENSE_TRUST_THRESHOLD",
    "FLAT_SPREAD",
    "HAS_NUMPY",
    "PYTHON_BACKEND",
    "PeerIndex",
    "VECTORIZED_BACKEND",
    "available_backends",
    "beta_scores",
    "HAS_SCIPY",
    "coupling_equilibria",
    "coupling_run",
    "coupling_step",
    "dense_local_trust_matrix",
    "interaction_counts",
    "lexicographic_argmax",
    "local_trust_matrix",
    "local_trust_matrix_from_columns",
    "mean_scores",
    "minmax_rescale",
    "minmax_rescale_dict",
    "power_iteration",
    "require_numpy",
    "resolve_backend",
    "subject_positions_from_columns",
]

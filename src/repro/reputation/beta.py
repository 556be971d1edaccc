"""Beta reputation: Bayesian positive/negative evidence counting.

The score of a peer is the expected value of a Beta(α, β) posterior with
``α = forgetting-weighted positives + 1`` and ``β = weighted negatives + 1``.
An optional forgetting factor discounts old evidence, which is what lets the
mechanism track traitors (peers that turn bad after building a reputation).
Like the simple average it ignores rater identity, so its information
requirement is low.
"""

from __future__ import annotations


from repro._util import require_unit_interval
from repro.core import accel
from repro.core import backend as backend_kernels
from repro.core.backend import VECTORIZED_BACKEND, PeerIndex
from repro.reputation.base import ReputationSystem


class BetaReputation(ReputationSystem):
    """Beta-posterior expected value with exponential forgetting.

    Refresh is incremental by default: a per-subject running
    ``(α-mass, β-mass, latest time)`` folds in only newly appended reports.
    Without forgetting (``forgetting=1.0``, the default) every report weighs
    exactly 1.0 and the running masses are integer counts, so incremental
    scores are *bitwise* identical to a cold rescan.  With forgetting, a
    report newer than the subject's previous ``latest`` rescales the
    accumulated mass by ``forgetting**(new - old)`` — algebraically equal to
    the cold sum but re-associated, so the two agree only to float
    round-off (~1e-13); the 1e-9 publication grid of
    :meth:`ReputationSystem.refresh` absorbs that, exactly as it absorbs
    cross-backend noise.
    """

    name = "beta"
    information_requirement = 0.3

    def __init__(
        self,
        *,
        forgetting: float = 1.0,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
        backend: str = "auto",
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
            backend=backend,
        )
        self.forgetting = require_unit_interval(forgetting, "forgetting")
        #: subject -> [α mass, β mass, latest report time].  When
        #: ``forgetting == 1.0`` the masses *include* the +1 prior so the
        #: fold order matches the cold loop addition for addition; otherwise
        #: the prior is added at score time (it must not be rescaled).
        self._agg: dict[str, list[float]] = {}
        self._agg_watermark: tuple[int, int] = (-1, 0)

    def _fold(self, start: int) -> None:
        columns = self.store.columns()
        agg = self._agg
        subjects = columns.subjects
        positives = columns.positives
        times = columns.times
        forgetting = self.forgetting
        # repro-lint: ignore[R5] config sentinel selecting the bitwise
        # fold fast path; forgetting arrives by assignment, not arithmetic
        exact = forgetting == 1.0
        prior = 1.0 if exact else 0.0
        for index in range(start, len(subjects)):
            subject = subjects[index]
            time = times[index]
            entry = agg.get(subject)
            if entry is None:
                entry = agg[subject] = [prior, prior, time]
            elif time > entry[2]:
                if not exact:
                    scale = forgetting ** (time - entry[2])
                    entry[0] *= scale
                    entry[1] *= scale
                entry[2] = time
            weight = 1.0 if exact else forgetting ** (entry[2] - time)
            if positives[index]:
                entry[0] += weight
            else:
                entry[1] += weight

    def _compute_incremental(self) -> dict[str, float] | None:
        if accel.flags().disable_all:
            return None
        epoch = self.store.epoch
        if self._agg_watermark[0] != epoch:
            self._agg = {}
            self._agg_watermark = (epoch, 0)
        position = self._agg_watermark[1]
        total = len(self.store.columns())
        if position < total:
            self._fold(position)
            self._agg_watermark = (epoch, total)
        # repro-lint: ignore[R5] config sentinel (see _fold): exact check
        prior = 0.0 if self.forgetting == 1.0 else 1.0
        scores: dict[str, float] = {}
        for subject in self.store.subjects():
            entry = self._agg[subject]
            alpha = prior + entry[0]
            beta = prior + entry[1]
            scores[subject] = alpha / (alpha + beta)
        return scores

    def compute_scores(self) -> dict[str, float]:
        incremental = self._compute_incremental()
        if incremental is not None:
            return incremental
        if self.resolved_backend == VECTORIZED_BACKEND:
            return self._compute_vectorized()
        scores: dict[str, float] = {}
        for subject in self.store.subjects():
            reports = self.store.about(subject)
            if not reports:
                continue
            latest = max(feedback.time for feedback in reports)
            alpha = 1.0
            beta = 1.0
            for feedback in reports:
                weight = self.forgetting ** (latest - feedback.time)
                if feedback.positive:
                    alpha += weight
                else:
                    beta += weight
            scores[subject] = alpha / (alpha + beta)
        return scores

    def _compute_vectorized(self) -> dict[str, float]:
        subjects = self.store.subjects()
        if not subjects:
            return {}
        # Subject order mirrors the pure-Python path so the published score
        # dict iterates identically on both backends.
        index = PeerIndex(subjects)
        columns = self.store.columns()
        positions = backend_kernels.subject_positions_from_columns(columns, index)
        values = backend_kernels.beta_scores(
            positions,
            columns.times,
            columns.positives,
            forgetting=self.forgetting,
            n_subjects=len(index),
        )
        return index.vector_to_dict(values)

"""Simple-average reputation: the weakest meaningful baseline.

The score of a peer is the arithmetic mean of all ratings reported about it,
regardless of who reported them.  It is cheap, needs no rater identities
(low information requirement) but is trivially manipulable by dishonest
raters — exactly the contrast the paper's reputation-power axis captures.
"""

from __future__ import annotations


from repro._util import mean
from repro.core import accel
from repro.core import backend as backend_kernels
from repro.core.backend import VECTORIZED_BACKEND, PeerIndex
from repro.reputation.base import ReputationSystem


class SimpleAverageReputation(ReputationSystem):
    """Mean rating per subject.

    Refresh is incremental by default: a per-subject running ``(sum, count)``
    folds in only the feedback appended since the previous refresh.  The
    running sum left-folds ratings in exactly the order a cold rescan of the
    subject's bucket would (per-subject append order), so the incremental
    score is *bitwise* identical to the cold one on either backend — no
    quantization needed to absorb it.
    """

    name = "average"
    information_requirement = 0.2

    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        #: subject -> [rating sum, report count]
        self._agg: dict[str, list[float]] = {}
        self._agg_watermark: tuple[int, int] = (-1, 0)

    def _compute_incremental(self) -> dict[str, float] | None:
        """Fold newly appended feedback into the running per-subject sums.

        Returns ``None`` in the cold pipeline (``disable_all``), where the
        caller falls back to the full rescan.
        """
        if accel.flags().disable_all:
            return None
        columns = self.store.columns()
        epoch = self.store.epoch
        if self._agg_watermark[0] != epoch:
            self._agg = {}
            self._agg_watermark = (epoch, 0)
        position = self._agg_watermark[1]
        if position < len(columns):
            agg = self._agg
            subjects = columns.subjects
            ratings = columns.ratings
            for index in range(position, len(subjects)):
                entry = agg.get(subjects[index])
                if entry is None:
                    agg[subjects[index]] = [ratings[index], 1]
                else:
                    entry[0] += ratings[index]
                    entry[1] += 1
            self._agg_watermark = (epoch, len(subjects))
        agg = self._agg
        return {
            subject: agg[subject][0] / agg[subject][1] for subject in self.store.subjects()
        }

    def compute_scores(self) -> dict[str, float]:
        incremental = self._compute_incremental()
        if incremental is not None:
            return incremental
        if self.resolved_backend == VECTORIZED_BACKEND:
            return self._compute_vectorized()
        scores: dict[str, float] = {}
        for subject in self.store.subjects():
            ratings = [feedback.rating for feedback in self.store.about(subject)]
            scores[subject] = mean(ratings, default=self.default_score)
        return scores

    def _compute_vectorized(self) -> dict[str, float]:
        subjects = self.store.subjects()
        if not subjects:
            return {}
        index = PeerIndex(subjects)
        columns = self.store.columns()
        positions = backend_kernels.subject_positions_from_columns(columns, index)
        values = backend_kernels.mean_scores(
            positions,
            columns.ratings,
            len(index),
        )
        return index.vector_to_dict(values)

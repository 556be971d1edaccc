"""The *information gathering* block: storing and organizing feedback.

Every mechanism shares the same evidence store; what differs is how much of
the stored information each mechanism actually uses (rater identities for
EigenTrust's normalized local trust, only aggregate counts for the Beta
baseline, nothing but blinded ratings for the anonymous mode).  That
difference is what the privacy facet measures.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.core import accel
from repro.simulation.transaction import Feedback


@dataclass
class FeedbackColumns:
    """The stored feedback in structure-of-arrays form.

    Parallel columns (one entry per report) that vectorized kernels turn
    into NumPy arrays without touching one :class:`Feedback` object per
    report — the pure-Python object walk is exactly the overhead the array
    backend exists to avoid.  Numeric columns live in ``array.array``
    buffers, which NumPy views zero-copy; peer identifiers are *interned*
    into dense integer codes (``id_for_code`` maps a code back to the
    string), so kernels can translate a whole column with one permutation
    gather instead of one dict lookup per report.  Maintained incrementally
    on :meth:`FeedbackStore.add` and rebuilt lazily after evictions.
    """

    subjects: list[str] = field(default_factory=list)
    raters: list[str | None] = field(default_factory=list)
    ratings: array = field(default_factory=lambda: array("d"))
    positives: array = field(default_factory=lambda: array("b"))
    times: array = field(default_factory=lambda: array("d"))
    #: Interned peer codes; ``rater_codes`` holds -1 for anonymous reports.
    subject_codes: array = field(default_factory=lambda: array("q"))
    rater_codes: array = field(default_factory=lambda: array("q"))
    id_for_code: list[str] = field(default_factory=list)
    _code_for_id: dict[str, int] = field(default_factory=dict)

    def _intern(self, peer_id: str) -> int:
        code = self._code_for_id.get(peer_id)
        if code is None:
            code = len(self.id_for_code)
            self._code_for_id[peer_id] = code
            self.id_for_code.append(peer_id)
        return code

    def append(self, feedback: Feedback) -> None:
        self.subjects.append(feedback.subject)
        self.raters.append(feedback.rater)
        self.ratings.append(feedback.rating)
        self.positives.append(1 if feedback.positive else 0)
        self.times.append(feedback.time)
        self.subject_codes.append(self._intern(feedback.subject))
        self.rater_codes.append(-1 if feedback.rater is None else self._intern(feedback.rater))

    def __len__(self) -> int:
        return len(self.subjects)


@dataclass
class FeedbackStore:
    """Append-only store of disclosed feedback, indexed by subject and rater."""

    max_per_subject: int | None = None
    _by_subject: dict[str, list[Feedback]] = field(default_factory=lambda: defaultdict(list))
    _by_rater: dict[str, list[Feedback]] = field(default_factory=lambda: defaultdict(list))
    _count: int = 0
    _columns: FeedbackColumns = field(default_factory=FeedbackColumns)
    _columns_stale: bool = False
    _version: int = 0
    _epoch: int = 0
    #: Incrementally maintained participant set: (epoch it is valid for,
    #: the live set); rebuilt after history rewrites.
    _participants_state: tuple[int, set[str]] | None = None
    _participants_sorted: list[str] | None = None

    @property
    def version(self) -> int:
        """Monotone change counter: bumps on every mutation, including
        :meth:`clear` — unlike ``len()``, safe to key caches on."""
        return self._version

    @property
    def epoch(self) -> int:
        """History-rewrite counter: bumps when stored feedback is *removed*
        (eviction, :meth:`clear`), never on plain appends.

        Incremental consumers hold an ``(epoch, position)`` watermark into
        the column log: unchanged epoch means everything before ``position``
        is still exactly what they folded in, so only the appended tail needs
        processing; a changed epoch means the log was rewritten and the
        consumer must cold-start.
        """
        return self._epoch

    def add(self, feedback: Feedback) -> None:
        bucket = self._by_subject[feedback.subject]
        bucket.append(feedback)
        if self.max_per_subject is not None and len(bucket) > self.max_per_subject:
            removed = bucket.pop(0)
            if removed.rater is not None:
                rater_bucket = self._by_rater.get(removed.rater)
                if rater_bucket and removed in rater_bucket:
                    rater_bucket.remove(removed)
            # The incremental column log cannot cheaply delete; rebuild it on
            # the next columnar access instead (evictions are the rare path).
            self._columns_stale = True
            self._epoch += 1
        if feedback.rater is not None:
            self._by_rater[feedback.rater].append(feedback)
        if not self._columns_stale:
            self._columns.append(feedback)
        state = self._participants_state
        if state is not None and state[0] == self._epoch:
            participants = state[1]
            if feedback.subject not in participants:
                participants.add(feedback.subject)
                self._participants_sorted = None
            if feedback.rater is not None and feedback.rater not in participants:
                participants.add(feedback.rater)
                self._participants_sorted = None
        self._count += 1
        self._version += 1

    def columns(self) -> FeedbackColumns:
        """The stored feedback as parallel columns (see :class:`FeedbackColumns`).

        Treat the result as read-only: it is the store's live cache.
        """
        if self._columns_stale:
            rebuilt = FeedbackColumns()
            for bucket in self._by_subject.values():
                for feedback in bucket:
                    rebuilt.append(feedback)
            self._columns = rebuilt
            self._columns_stale = False
        return self._columns

    def __len__(self) -> int:
        return self._count

    def subjects(self) -> list[str]:
        return [subject for subject, items in self._by_subject.items() if items]

    def raters(self) -> list[str]:
        return [rater for rater, items in self._by_rater.items() if items]

    def about(self, subject: str) -> list[Feedback]:
        return list(self._by_subject.get(subject, []))

    def by(self, rater: str) -> list[Feedback]:
        return list(self._by_rater.get(rater, []))

    def participants(self) -> set[str]:
        """All peer identifiers seen either as subject or as rater."""
        ids: set[str] = set(self.subjects())
        ids.update(self.raters())
        return ids

    def sorted_participants(self) -> list[str]:
        """Participants in sorted order, cached between refreshes.

        The participant set is maintained incrementally: :meth:`add` folds
        each report's subject/rater into the live set (invalidating the
        sorted view only when someone genuinely new appears), and a history
        rewrite (eviction, :meth:`clear`) bumps the epoch, which rebuilds
        the set from the surviving buckets — so a rater whose only report
        was evicted and who later returns is re-admitted correctly.  The
        O(n log n) sort per refresh becomes O(1) on the common no-new-peer
        round.  Treat the result as read-only.
        """
        state = self._participants_state
        if state is None or state[0] != self._epoch:
            self._participants_state = (self._epoch, self.participants())
            self._participants_sorted = None
        if self._participants_sorted is None:
            self._participants_sorted = sorted(self._participants_state[1])
        return self._participants_sorted

    def anonymous_fraction(self) -> float:
        """Fraction of stored feedback submitted without a rater identity."""
        if self._count == 0:
            return 0.0
        anonymous = sum(
            1
            for items in self._by_subject.values()
            for feedback in items
            if feedback.is_anonymous
        )
        return anonymous / self._count

    def clear(self) -> None:
        self._by_subject.clear()
        self._by_rater.clear()
        self._count = 0
        self._columns = FeedbackColumns()
        self._columns_stale = False
        self._version += 1
        self._epoch += 1


class LocalTrustBuilder:
    """Build pairwise *local trust* values from stored feedback.

    EigenTrust defines the local trust of peer *i* in peer *j* as
    ``s_ij = sat(i, j) - unsat(i, j)`` clipped at zero, then normalized over
    *i*'s row.  PowerTrust uses the same raw pairwise evidence.  Anonymous
    feedback carries no rater, so it cannot contribute to pairwise local
    trust — mechanisms that need it simply see less evidence, which is the
    accuracy cost of anonymity the ablation experiment quantifies.

    Pairwise totals are maintained *incrementally*: every report is a ``±1``
    delta on its ``(rater, subject)`` pair, so the builder keeps a running
    ledger and folds only feedback appended since the previous call (an
    ``(epoch, position)`` watermark into the store's column log).  The
    deltas are integers, which float arithmetic represents exactly in any
    accumulation order, so the incremental ledger is *bitwise* identical to
    a full rescan — including row/column insertion order, because appends
    fold in the same global order a rescan walks.  In the cold
    pipeline (``accel.flags().disable_all``) the ledger is rebuilt from
    scratch on every call, and a
    store-history rewrite (eviction, ``clear``) always forces a rebuild.
    """

    def __init__(self, store: FeedbackStore) -> None:
        self._store = store
        self._totals: dict[str, dict[str, float]] = {}
        self._watermark: tuple[int, int] = (-1, 0)

    def _fold_totals(
        self, totals: dict[str, dict[str, float]], columns: FeedbackColumns, start: int
    ) -> None:
        """Fold column-log entries ``[start:]`` into the pairwise ledger."""
        subjects = columns.subjects
        raters = columns.raters
        positives = columns.positives
        for position in range(start, len(subjects)):
            rater = raters[position]
            if rater is None:
                continue
            row = totals.get(rater)
            if row is None:
                row = totals[rater] = {}
            delta = 1.0 if positives[position] else -1.0
            row[subjects[position]] = row.get(subjects[position], 0.0) + delta

    def pair_totals(self) -> dict[str, dict[str, float]]:
        """Signed pairwise totals ``{rater: {subject: positives - negatives}}``.

        Unclipped (rows may carry zero or negative entries) and live: treat
        the result as read-only.  Pairs stay present once rated, which is
        exactly the edge set of PowerTrust's trust overlay.
        """
        columns = self._store.columns()
        epoch = self._store.epoch
        if accel.flags().disable_all:
            totals: dict[str, dict[str, float]] = {}
            self._fold_totals(totals, columns, 0)
            # Keep the ledger consistent so flipping the flag mid-life stays
            # correct: the cold result *is* the up-to-date ledger.
            self._totals = totals
            self._watermark = (epoch, len(columns))
            return totals
        if self._watermark[0] != epoch:
            self._totals = {}
            self._watermark = (epoch, 0)
        position = self._watermark[1]
        if position < len(columns):
            self._fold_totals(self._totals, columns, position)
            self._watermark = (epoch, len(columns))
        return self._totals

    def raw_local_trust(self) -> dict[str, dict[str, float]]:
        """``{rater: {subject: max(0, positives - negatives)}}``."""
        return {
            rater: {subject: max(0.0, value) for subject, value in row.items()}
            for rater, row in self.pair_totals().items()
        }

    def normalized_local_trust(
        self, peers: Iterable[str] | None = None
    ) -> dict[str, dict[str, float]]:
        """Row-normalized local trust ``c_ij`` as used by EigenTrust.

        Rows that are entirely zero stay empty; EigenTrust handles them by
        falling back to the pre-trusted distribution.
        """
        raw = self.raw_local_trust()
        known = set(peers) if peers is not None else self._store.participants()
        normalized: dict[str, dict[str, float]] = {}
        for rater in known:
            row = raw.get(rater, {})
            row = {subject: value for subject, value in row.items() if subject in known}
            total = sum(row.values())
            if total > 0.0:
                normalized[rater] = {s: v / total for s, v in row.items()}
            else:
                normalized[rater] = {}
        return normalized

    def positive_negative_counts(self, subject: str) -> tuple[int, int]:
        """Counts of positive and negative reports about ``subject``."""
        positives = 0
        negatives = 0
        for feedback in self._store.about(subject):
            if feedback.positive:
                positives += 1
            else:
                negatives += 1
        return positives, negatives

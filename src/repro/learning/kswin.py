"""KSWIN drift detection via the two-sample Kolmogorov-Smirnov test.

Following Raab et al. (2020) as adopted by the paper, the current training
set is compared per channel against the training set snapshotted at the
last fine-tuning session.  The null hypothesis (same distribution) is
rejected when the KS statistic exceeds

    c(alpha*) * sqrt((r_i + r_t) / (r_i * r_t))

with the repeated-testing correction ``alpha* = alpha / r`` for training
sets of ``r`` samples per channel.  For multichannel data the test runs on
every channel independently and fires if any channel rejects.

A check reads **rank counters**: the reference snapshot is sorted once
per fine-tune, and for each of its distinct values ``u`` the detector
counts the current training values ``<= u`` and ``< u``.  The counters
are kept as rank histograms (how many current values have ``p``
reference values below them), so a Task-1 :class:`Update` moves them
with one binary search per added or removed value, and one prefix sum
yields both counts.  ``|F_ref - F_cur|`` is a step function that peaks
either at a reference value or just to the left of one, so a check is
two vectorised abs-max passes over the ``(N, U)`` counters, and it
produces the very float :func:`ks_statistic_sorted` computes from the
merged samples.  ``U`` counts distinct reference values: a window
representation repeats every stream value up to ``w`` times in the
pooled set, so under a sliding window ``U`` is about ``m + w``, not
``m * w``.

Whenever the observed update stream cannot vouch for the training set
under test, the detector re-pools and re-sorts that set instead (the
**batch** check), with the same decisions.  It picks that from its own
state, e.g. when :meth:`KSWIN.should_finetune` is called directly
without feeding :meth:`KSWIN.observe`, as the Table II op-count
benchmark does, or after a desync.

The counters trust the update stream.  The only desync they can detect
is a size mismatch; a removed value that was never observed goes
unnoticed.  Every Task-1 strategy in this repo reports faithful updates,
as the SW/uRES/ARES equivalence tests in ``tests/test_kswin.py`` pin.

:class:`KswinLane` replays the counters of K detectors session-axis for
the fused fleet engine.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.types import FloatArray
from repro.learning.base import NO_TRAIN_SET, DriftDetector, Update, UpdateKind


def ks_statistic_sorted(sample_a: FloatArray, sample_b: FloatArray) -> float:
    """KS statistic for two samples that are **already sorted** ascending.

    The hot half of :func:`ks_statistic`: both empirical CDFs are read off
    with binary searches over the merged values, skipping the two sorts.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    merged = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, merged, side="right") / a.size
    cdf_b = np.searchsorted(b, merged, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_statistic(sample_a: FloatArray, sample_b: FloatArray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic ``sup_x |F_a(x) - F_b(x)|``.

    Computed exactly from the empirical CDFs of both samples; equivalent to
    ``scipy.stats.ks_2samp(a, b).statistic`` (verified by the test suite).
    """
    a = np.sort(np.asarray(sample_a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(sample_b, dtype=np.float64).ravel())
    return ks_statistic_sorted(a, b)


def ks_critical_value(alpha: float, r_a: int, r_b: int, form: str = "standard") -> float:
    """Critical KS distance for significance level ``alpha``.

    Args:
        alpha: significance level (after any repeated-testing correction).
        r_a: size of the first sample.
        r_b: size of the second sample.
        form: ``"standard"`` uses the Smirnov asymptotic coefficient
            ``sqrt(ln(2/alpha) / 2)``; ``"paper"`` uses the coefficient
            printed in the paper, ``sqrt(ln(2/alpha))`` (a constant factor
            ``sqrt(2)`` larger, i.e. more conservative).

    Returns:
        The distance above which the null hypothesis is rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if r_a < 1 or r_b < 1:
        raise ValueError("sample sizes must be >= 1")
    if form == "standard":
        coefficient = math.sqrt(math.log(2.0 / alpha) / 2.0)
    elif form == "paper":
        coefficient = math.sqrt(math.log(2.0 / alpha))
    else:
        raise ValueError(f"form must be 'standard' or 'paper', got {form!r}")
    return coefficient * math.sqrt((r_a + r_b) / (r_a * r_b))


def _tie_groups(reference: FloatArray) -> tuple[FloatArray, np.ndarray]:
    """Distinct values and tie-group sizes of a row-sorted ``(N, r)`` array.

    One tie-group scan, O(N r).  Both results are ``(N, U)`` with ``U``
    the largest distinct count over the rows; shorter rows are padded with
    ``+inf`` values of size 0, at which no KS statistic can peak.
    """
    n_rows, r = reference.shape
    starts = np.ones((n_rows, r), dtype=bool)
    np.not_equal(reference[:, 1:], reference[:, :-1], out=starts[:, 1:])
    firsts = np.flatnonzero(starts)  # every row opens a tie group
    distinct = starts.sum(axis=1)
    rows = firsts // r
    slots = np.arange(firsts.size) - (np.cumsum(distinct) - distinct)[rows]
    width = int(distinct.max())
    values = np.full((n_rows, width), np.inf)
    sizes = np.zeros((n_rows, width), dtype=np.int64)
    values[rows, slots] = reference.ravel()[firsts]
    sizes[rows, slots] = np.diff(firsts, append=n_rows * r)
    return values, sizes


def _search_keys(values: FloatArray) -> np.ndarray:
    """Flat search keys ``g + 1j * values[g]`` over the rows ``g``.

    numpy orders complex numbers lexicographically (real part first, with
    float comparisons, so ``-0.0 == 0.0``), so one ``searchsorted`` over
    the flat keys ranks a value within its own row.
    """
    keys = np.empty(values.shape, dtype=np.complex128)
    keys.real = np.arange(len(values))[:, None]
    keys.imag = values
    return keys.ravel()


def _rank_slots(
    keys: np.ndarray, width: int, rows: np.ndarray, values: FloatArray
) -> np.ndarray:
    """Counter slots of ``values`` in a flat ``(G, 2, width + 1)`` layout.

    Each value ``x`` is ranked within the key row named by the matching
    element of ``rows`` (which broadcasts against ``values``).  Slice 0
    of the result holds the slot of ``#{u < x}`` in that row's ``<=``
    histogram, slice 1 the slot of ``#{u <= x}`` in its ``<`` histogram.
    """
    query = np.empty(values.shape, dtype=np.complex128)
    query.real = rows
    query.imag = values
    # searchsorted returns g * width + rank; row g of the counters starts
    # at g * 2 * (width + 1).
    offset = rows * (width + 2)
    return np.stack(
        (
            np.searchsorted(keys, query, side="left") + offset,
            np.searchsorted(keys, query, side="right") + (offset + width + 1),
        )
    )


class KSWIN(DriftDetector):
    """Per-channel two-sample KS drift detector over the training set.

    The detector snapshots the training set whenever the model is
    fine-tuned and compares the current training set against that snapshot
    at every step.  Each channel's values are pooled across all feature
    vectors (``m * w`` samples per channel), tested independently, and the
    detector fires if any channel's statistic exceeds the corrected
    critical value.

    Args:
        alpha: base significance level before the ``alpha / r`` correction;
            paper/Raab default 0.005.
        critical_form: see :func:`ks_critical_value`.
        check_every: only run the (expensive) test every this many steps;
            1 reproduces the paper, larger values trade latency for speed.
        correct_alpha: apply Raab et al.'s repeated-testing correction
            ``alpha* = alpha / r``.  Disable only to demonstrate why the
            correction matters (the false-positive-rate ablation).
    """

    name = "kswin"

    def __init__(
        self,
        alpha: float = 0.005,
        critical_form: str = "standard",
        check_every: int = 1,
        correct_alpha: bool = True,
    ) -> None:
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.alpha = alpha
        self.critical_form = critical_form
        self.check_every = check_every
        self.correct_alpha = correct_alpha
        #: channel-pooled reference snapshot ``(N, r_i)``, rows sorted.
        self._reference: FloatArray | None = None
        #: ``(N, values per channel)`` of the training set the observed
        #: update stream describes; ``None`` until a clean ADDED stream
        #: establishes it, and again after any desync.
        self._tracked: tuple[int, int] | None = None
        #: rank histograms ``(N, 2, U + 1)`` of the tracked set over the
        #: reference's distinct values (see :func:`_rank_slots`); live
        #: only while they describe the training set.
        self._ranks: np.ndarray | None = None
        # Derived from the reference while the counters are live: flat
        # search keys and the reference CDF ``(N, 2, U)`` at (slice 0) and
        # just left of (slice 1) each distinct value.
        self._keys: np.ndarray | None = None
        self._ref_cdf: FloatArray | None = None

    @property
    def needs_train_set(self) -> bool:
        """False while the counters track the training set: a check then
        reads the counters, so the engine need not stack the set."""
        return self._ranks is None

    @property
    def fuse_ready(self) -> bool:
        """True once :class:`KswinLane` can replay this detector.

        The counters must be live and the reference must hold as many
        values as the tracked set (a snapshot of the full window), so a
        fine-tune inside the fused drain keeps the lane's geometry.
        """
        return (
            self._ranks is not None
            and self._tracked[1] == self._reference.shape[1]
        )

    def tracks(self, shape: tuple[int, ...]) -> bool:
        """Whether the live counters describe a training set of ``shape``."""
        return self._ranks is not None and self._pooled_shape(shape) == self._tracked

    @staticmethod
    def _pooled_shape(shape: tuple[int, ...]) -> tuple[int, int] | None:
        """``(N, values per channel)`` of a ``(m, w, N)`` or ``(m, d)`` set."""
        if len(shape) == 3:
            return shape[2], shape[0] * shape[1]
        if len(shape) == 2:
            return shape[1], shape[0]
        return None

    @staticmethod
    def _per_channel(train_set: FloatArray) -> FloatArray:
        """Pool a ``(m, w, N)`` (or ``(m, d)``) training set to ``(N, m*w)``."""
        array = np.asarray(train_set, dtype=np.float64)
        if array.ndim == 3:
            m, w, n = array.shape
            return array.transpose(2, 0, 1).reshape(n, m * w)
        if array.ndim == 2:
            return array.T.copy()
        raise ValueError(f"unsupported training-set shape {array.shape}")

    @staticmethod
    def _channel_values(vector: FloatArray) -> FloatArray | None:
        """One feature vector as ``(N, values per channel)``."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim == 2:  # (w, N) representation: channel = column
            return vector.T
        if vector.ndim == 1:  # (d,) raw vector: one value per channel
            return vector[:, None]
        return None

    def observe(self, update: Update, t: int) -> None:
        if update.kind is UpdateKind.UNCHANGED:
            return
        if update.added is None:
            return
        added = self._channel_values(update.added)
        if added is None:
            self._untrack()
            return
        if self._tracked is None:
            if update.removed is None:  # a clean start from an empty set
                self._tracked = added.shape
            return  # else joined mid-stream: the full set was never observed
        n_channels, size = self._tracked
        removed = None
        if update.removed is not None:
            removed = self._channel_values(update.removed)
            if removed is None or len(removed) != n_channels:
                self._untrack()
                return
            size -= removed.shape[1]
        if len(added) != n_channels:
            self._untrack()
            return
        # Maintenance cost: one binary search per inserted/removed value.
        searches = added.shape[1] * (2 if removed is not None else 1)
        self.ops.comparisons += (
            n_channels * searches * max(int(math.log2(max(size, 2))), 1)
        )
        self._tracked = (n_channels, size + added.shape[1])
        if self._ranks is not None:
            self._move(added, removed)

    def _move(self, added: FloatArray, removed: FloatArray | None) -> None:
        """Range-add one update into the counters."""
        values = added if removed is None else np.concatenate((added, removed), axis=1)
        rows = np.arange(len(values))[:, None]
        slots = _rank_slots(self._keys, self._ref_cdf.shape[2], rows, values)
        flat = self._ranks.reshape(-1)
        k = added.shape[1]
        np.add.at(flat, slots[..., :k], 1)
        if removed is not None:
            np.subtract.at(flat, slots[..., k:], 1)

    def _untrack(self) -> None:
        self._tracked = None
        self._ranks = self._keys = self._ref_cdf = None

    def should_finetune(self, t: int, train_set: FloatArray) -> bool:
        if train_set is NO_TRAIN_SET:
            if self._ranks is None:  # only handed over while tracking
                return False
        elif train_set.size == 0:
            return False
        elif self._reference is None:
            self._snapshot(train_set)
            return False
        if t % self.check_every != 0:
            return False
        if train_set is NO_TRAIN_SET or self.tracks(train_set.shape):
            return self._check_counters()
        return self._check_batch(train_set)

    def _critical(self, r_i: int, r_t: int) -> float:
        corrected_alpha = (
            self.alpha / max(r_i, r_t) if self.correct_alpha else self.alpha
        )
        return ks_critical_value(corrected_alpha, r_i, r_t, form=self.critical_form)

    def _distances(self) -> FloatArray:
        """Per-channel KS statistics read off the rank counters."""
        width = self._ref_cdf.shape[2]
        cdf = np.cumsum(self._ranks, axis=2)[:, :, :width] / self._tracked[1]
        return np.abs(self._ref_cdf - cdf).max(axis=(1, 2))

    def _check_counters(self) -> bool:
        """KS tests of every channel at once, from the counters."""
        r_i, r_t = self._reference.shape[1], self._tracked[1]
        reject = self._distances() > self._critical(r_i, r_t)
        fired = bool(reject.any())
        # The per-channel tests stop at the first rejecting channel.
        tested = int(reject.argmax()) + 1 if fired else len(reject)
        self._count_ops_incremental(r_i, r_t, tested)
        return fired

    def _check_batch(self, train_set: FloatArray) -> bool:
        """Re-pool and re-sort the training set (counters not live)."""
        assert self._reference is not None
        current = np.sort(self._per_channel(train_set), axis=1)
        if len(current) != len(self._reference):
            raise ValueError(
                "channel count changed between snapshots: "
                f"{len(self._reference)} -> {len(current)}"
            )
        r_i, r_t = self._reference.shape[1], current.shape[1]
        critical = self._critical(r_i, r_t)
        for ref, cur in zip(self._reference, current):
            distance = ks_statistic_sorted(ref, cur)
            self._count_ops(r_i, r_t)
            if distance > critical:
                return True
        return False

    def _count_ops(self, r_i: int, r_t: int) -> None:
        """Approximate op accounting for one channel's KS test (Table II)."""
        total = r_i + r_t
        log_total = max(int(math.log2(total)) if total > 1 else 1, 1)
        # Sorting both samples: ~ n log n comparisons; searchsorted per
        # element of the merged array into each sample: ~ 2 n log n more.
        self.ops.comparisons += 3 * total * log_total + 1
        # CDF differences and the max scan.
        self.ops.additions += 2 * total
        # CDF normalisation divisions (counted as multiplications).
        self.ops.multiplications += 2 * total

    def _count_ops_incremental(self, r_i: int, r_t: int, channels: int = 1) -> None:
        """Op accounting for ``channels`` KS tests on pre-sorted samples.

        Table II keeps the sorted-sample formula: no sorts, only the two
        searchsorted passes over the merged array.
        """
        total = r_i + r_t
        log_total = max(int(math.log2(total)) if total > 1 else 1, 1)
        self.ops.comparisons += channels * (2 * total * log_total + 1)
        self.ops.additions += channels * 2 * total
        self.ops.multiplications += channels * 2 * total

    def notify_finetuned(self, t: int, train_set: FloatArray) -> None:
        if train_set.size:
            self._snapshot(train_set)

    def _snapshot(self, train_set: FloatArray) -> None:
        """Snapshot ``train_set``; rebuild the counters if it is the tracked set."""
        pooled = self._per_channel(train_set)
        self._reference = np.sort(pooled, axis=1)
        if self._tracked != pooled.shape:
            self._untrack()  # the observed stream does not describe this set
            return
        values, sizes = _tie_groups(self._reference)
        # The tracked set *is* the reference: the ``sizes[c, i]`` copies of
        # distinct value ``i`` have ``i`` distinct values below them and
        # ``i + 1`` at or below.
        self._ranks = np.zeros(
            (len(values), 2, values.shape[1] + 1), dtype=np.int64
        )
        self._ranks[:, 0, :-1] = sizes
        self._ranks[:, 1, 1:] = sizes
        at_or_below = np.cumsum(sizes, axis=1)
        self._keys = _search_keys(values)
        self._ref_cdf = (
            np.stack((at_or_below, at_or_below - sizes), axis=1) / pooled.shape[1]
        )

    def reset(self) -> None:
        super().reset()
        self._reference = None
        self._untrack()


#: Counter increments of a window's (added, evicted) rows, broadcast over
#: :class:`KswinLane` window slots ``(side, segment, n, w, N)``.
_ADD_EVICT = np.array([1, -1]).reshape(1, 2, 1, 1, 1)


class KswinLane:
    """Session-axis replay of K :class:`KSWIN` detectors' rank counters.

    The fused fleet engine previews each session's next fire offset before
    anything is scored.  The lane stacks copies of the K detectors'
    counters into one ``(K, N, 2, U + 1)`` array, padding every session to
    the widest reference (``+inf`` keys, zero counts, reference CDF 1.0,
    where no statistic can peak), and replays observe + should-finetune
    per step with the elementwise ops of :meth:`KSWIN._distances`, so
    each decision is bitwise the sequential one.  The detectors change
    only in :meth:`commit`, which also settles their op counters in bulk.

    Every member must be :attr:`KSWIN.fuse_ready` over a full sliding
    window of a window representation, with one shared reference shape:
    each update then replaces one ``(w, N)`` window and every test
    compares ``r`` against ``r`` values.  The windows a session adds (and
    evicts) are consecutive windows of one stream, so window ``j`` holds
    rows ``j .. j + w - 1`` of a row segment, and the lane ranks each
    segment row once instead of ``w`` rows per update.

    Args:
        detectors: the K members.
        clocks: each member's stream clock ``t`` before the first step.
        added: ``(K, B, w, N)`` windows entering the training sets, one
            per step (rows past a session's span are never stepped).
        removed: ``(K, B, w, N)`` windows the same steps evict.
    """

    def __init__(
        self,
        detectors: list[KSWIN],
        clocks: list[int],
        added: FloatArray,
        removed: FloatArray,
    ) -> None:
        n_channels, r = detectors[0]._reference.shape
        if any(
            not d.fuse_ready or d._reference.shape != (n_channels, r)
            for d in detectors
        ):
            raise ValueError("lane detectors must be fuse_ready with one shape")
        width = max(d._ref_cdf.shape[2] for d in detectors)
        k, b, w = added.shape[:3]
        self._ranks = np.zeros((k, n_channels, 2, width + 1), dtype=np.int64)
        self._ref_cdf = np.ones((k, n_channels, 2, width))
        values = np.full((k, n_channels, width), np.inf)
        for i, d in enumerate(detectors):
            u = d._ref_cdf.shape[2]
            self._ranks[i, :, :, : u + 1] = d._ranks
            self._ref_cdf[i, :, :, :u] = d._ref_cdf
            values[i, :, :u] = d._keys.reshape(n_channels, u).imag
        self._keys = _search_keys(values.reshape(k * n_channels, width))
        self._rows = np.arange(k * n_channels).reshape(k, n_channels)
        self._width = width
        self._r = r
        self._window = w
        # Counter slots of the added (index 0) and evicted (index 1) row
        # segments, ``(side, segment, K, w - 1 + B, N)``: window ``j`` is
        # segment rows ``j .. j + w - 1``.
        segments = np.concatenate(
            (
                np.stack((added[:, 0, :-1], removed[:, 0, :-1])),
                np.stack((added[:, :, -1], removed[:, :, -1])),
            ),
            axis=2,
        )
        self._slots = _rank_slots(self._keys, width, self._rows[:, None], segments)
        self._critical = np.array([d._critical(r, r) for d in detectors])
        self._check_every = np.array([d.check_every for d in detectors])
        self._t = np.array(clocks, dtype=np.int64)
        #: channel tests run per session, for the op counters.
        self._tested = np.zeros(k, dtype=np.int64)

    def step(self, idx: np.ndarray, j: int) -> np.ndarray:
        """Advance sessions ``idx`` by their update at step ``j``; return
        their fire decisions."""
        window = self._slots[:, :, idx, j : j + self._window]
        np.add.at(self._ranks.reshape(-1), window, _ADD_EVICT)
        self._t[idx] += 1
        due = self._t[idx] % self._check_every[idx] == 0
        fired = np.zeros(len(idx), dtype=bool)
        if not due.any():
            return fired
        sessions = idx[due]
        ranks, ref_cdf = self._ranks, self._ref_cdf
        if len(sessions) < len(ranks):
            ranks, ref_cdf = ranks[sessions], ref_cdf[sessions]
        cdf = np.cumsum(ranks, axis=3)[..., : self._width] / self._r
        distance = np.abs(ref_cdf - cdf).max(axis=(2, 3))
        reject = distance > self._critical[sessions, None]
        hit = reject.any(axis=1)
        self._tested[sessions] += np.where(
            hit, reject.argmax(axis=1) + 1, reject.shape[1]
        )
        fired[due] = hit
        return fired

    def commit(self, k: int, detector: KSWIN, n_updates: int) -> None:
        """Write session ``k``'s replayed counters back into ``detector``.

        The op counters are settled with the per-step formulas: each
        update makes ``2 * w`` binary searches per channel into
        ``r - w`` values, and each channel test counts as in
        :meth:`KSWIN._count_ops_incremental`.
        """
        n_channels = self._ranks.shape[1]
        u = detector._ref_cdf.shape[2]
        detector._ranks = self._ranks[k, :, :, : u + 1].copy()
        log_size = max(int(math.log2(max(self._r - self._window, 2))), 1)
        detector.ops.comparisons += (
            n_updates * n_channels * 2 * self._window * log_size
        )
        detector._count_ops_incremental(self._r, self._r, int(self._tested[k]))

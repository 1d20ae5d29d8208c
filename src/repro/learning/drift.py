"""Task-2 strategies: when to fine-tune the model (concept drift detection).

Implements the paper's three options (Section IV-B, Task 2):

- :class:`RegularFineTuning` — fine-tune every ``m`` steps regardless of
  the data;
- :class:`MuSigmaChange` — maintain a running mean and standard deviation
  of the training set and fire when either departs from the snapshot taken
  at the last fine-tuning session;
- :class:`KSWIN` lives in :mod:`repro.learning.kswin`.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import FloatArray
from repro.learning.base import DriftDetector, Update, UpdateKind


class RegularFineTuning(DriftDetector):
    """Fine-tune after every ``interval`` time steps.

    The paper's "regular fine-tuning" baseline: ``t mod m == 0`` triggers a
    session.  It is drift-oblivious by construction and serves as the
    control strategy.
    """

    name = "regular"
    needs_train_set = False

    def __init__(self, interval: int) -> None:
        super().__init__()
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval

    def should_finetune(self, t: int, train_set: FloatArray) -> bool:
        self.ops.comparisons += 1
        return t > 0 and t % self.interval == 0

    def reset(self) -> None:
        super().reset()


class NeverFineTune(DriftDetector):
    """Task-2 control strategy that never triggers fine-tuning.

    Realises the paper's trivial learning strategy (a constant
    ``theta_model``) and serves as the stale-model baseline in the
    Figure 1 fine-tuning experiment.
    """

    name = "never"
    needs_train_set = False

    def should_finetune(self, t: int, train_set: FloatArray) -> bool:
        return False


class MuSigmaChange(DriftDetector):
    """μ/σ-Change: monitor the running mean/std of the training set.

    A running mean ``mu_t`` and standard deviation ``sigma_t`` of the
    training set are maintained *incrementally* from the Task-1 update
    records (the paper's Equation for the running mean covers the replace /
    append / unchanged cases; the standard deviation follows from running
    sums of squares).  Fine-tuning fires when, relative to the snapshot
    ``(mu_i, sigma_i)`` taken at the last training session,

    - the mean moved by more than ``sigma_i``, or
    - the standard deviation changed by more than a factor of 2
      (``sigma_t > 2 sigma_i`` or ``sigma_t < sigma_i / 2``).

    Both criteria are evaluated element-wise over the flattened feature
    dimensions and aggregated with ``aggregate``.

    Args:
        aggregate: ``"mean"`` (default) triggers on the feature-averaged
            statistics, ``"any"`` triggers if any single feature dimension
            violates a criterion (more sensitive).
        std_factor: the factor-of-change threshold on sigma, paper value 2.
    """

    name = "musigma"
    needs_train_set = False

    def __init__(self, aggregate: str = "mean", std_factor: float = 2.0) -> None:
        super().__init__()
        if aggregate not in ("mean", "any"):
            raise ValueError(f"aggregate must be 'mean' or 'any', got {aggregate!r}")
        if std_factor <= 1.0:
            raise ValueError(f"std_factor must exceed 1, got {std_factor}")
        self.aggregate = aggregate
        self.std_factor = std_factor
        self._count = 0
        #: the running sums are kept relative to the first observed
        #: vector — the textbook shifted-data form.  Raw sums of squares
        #: cancel catastrophically when the data sits far from zero
        #: (E[x²] − E[x]² loses ~all significant digits for x ≈ 100 with
        #: tiny spread, reporting σ ~1e-6 where the truth is 0), while
        #: the shifted sums keep the same O(Nw) incremental update.
        self._shift: FloatArray | None = None
        self._sum: FloatArray | None = None
        self._sumsq: FloatArray | None = None
        self._ref_mean: FloatArray | None = None
        self._ref_std: FloatArray | None = None
        #: feature means of ``_ref_std``, ``_ref_std * std_factor`` and
        #: ``_ref_std / std_factor``: the ``"mean"`` aggregate's three
        #: thresholds, fixed between snapshots.
        self._ref_means: tuple[float, float, float] | None = None

    # ------------------------------------------------------------------
    # running statistics
    # ------------------------------------------------------------------
    def observe(self, update: Update, t: int) -> None:
        if update.kind is UpdateKind.UNCHANGED:
            return
        added = np.asarray(update.added, dtype=np.float64).ravel()
        if self._sum is None:
            self._shift = added.copy()
            self._sum = np.zeros_like(added)
            self._sumsq = np.zeros_like(added)
        shifted = added - self._shift
        if update.kind is UpdateKind.ADDED:
            self._sum += shifted
            self._sumsq += shifted**2
            self._count += 1
            self.ops.additions += 2 * added.size
            self.ops.multiplications += added.size
        else:  # REPLACED: sum += x_t - x*, an O(Nw) incremental update
            removed = (
                np.asarray(update.removed, dtype=np.float64).ravel()
                - self._shift
            )
            self._sum += shifted - removed
            self._sumsq += shifted**2 - removed**2
            self.ops.additions += 4 * added.size
            self.ops.multiplications += 2 * added.size

    @property
    def mean(self) -> FloatArray | None:
        """Current running mean over the training set (flattened features)."""
        return self._moments()[0]

    @property
    def std(self) -> FloatArray | None:
        """Current running standard deviation (population form)."""
        return self._moments()[1]

    def _moments(self) -> tuple[FloatArray | None, FloatArray | None]:
        """``(mean, std)`` from one pass over the running sums."""
        if self._sum is None or self._count == 0:
            return None, None
        shifted_mean = self._sum / self._count
        variance = self._sumsq / self._count - shifted_mean**2
        return self._shift + shifted_mean, np.sqrt(np.maximum(variance, 0.0))

    # ------------------------------------------------------------------
    # drift decision
    # ------------------------------------------------------------------
    def should_finetune(self, t: int, train_set: FloatArray) -> bool:
        mean, std = self._moments()
        if mean is None:
            return False
        if self._ref_mean is None:
            # First call: adopt the current statistics as the reference.
            self._snapshot(mean, std)
            return False
        dim = mean.size
        self.ops.additions += dim
        self.ops.comparisons += 3 * dim
        mean_shift = np.abs(mean - self._ref_mean)
        if self.aggregate == "any":
            upper = self._ref_std * self.std_factor
            lower = self._ref_std / self.std_factor
            return bool(
                np.any(mean_shift > self._ref_std)
                or np.any((std > upper) | (std < lower))
            )
        ref_std, upper, lower = self._ref_means
        # ``sum() / size`` is exactly what ``mean()`` computes, without
        # its Python-level wrapper (this check runs on every step).
        std_mean = std.sum() / dim
        return bool(
            mean_shift.sum() / dim > ref_std
            or std_mean > upper
            or std_mean < lower
        )

    def notify_finetuned(self, t: int, train_set: FloatArray) -> None:
        mean, std = self._moments()
        if mean is not None:
            self._snapshot(mean, std)

    def _snapshot(self, mean: FloatArray, std: FloatArray) -> None:
        self._ref_mean = mean.copy()
        # Guard against a zero reference std, which would trigger forever.
        self._ref_std = np.maximum(std.copy(), 1e-12)
        self._ref_means = (
            self._ref_std.mean(),
            (self._ref_std * self.std_factor).mean(),
            (self._ref_std / self.std_factor).mean(),
        )

    def reset(self) -> None:
        super().reset()
        self._count = 0
        self._shift = None
        self._sum = None
        self._sumsq = None
        self._ref_mean = None
        self._ref_std = None
        self._ref_means = None

    @property
    def fuse_ready(self) -> bool:
        """True once the detector can join a fused session-axis lane.

        The lane replays observe/should_finetune on stacked state copies,
        which requires the running sums to exist and the reference
        snapshot to be taken (the first ``should_finetune`` call after
        warm-up adopts a snapshot as a side effect, which the lane does
        not reproduce).
        """
        return self._sum is not None and self._ref_mean is not None


#: Elements of one ``(K, rows, D)`` time-axis block of
#: :class:`MuSigmaLane`: the rows per block shrink as the fleet or the
#: feature width grows, so the lane's temporaries stay a few hundred
#: kilobytes whatever the round's length.
_BLOCK_ELEMENTS = 2**14


def _fold(carried: FloatArray, deltas: FloatArray) -> FloatArray:
    """Running sums of ``deltas`` along axis 1, seeded with ``carried``.

    Row ``j`` is ``carried + deltas[:, 0] + ... + deltas[:, j]``, added
    left to right: the same additions in the same order as one ``+=``
    per row.
    """
    seeded = np.concatenate((carried[:, None], deltas), axis=1)
    return np.cumsum(seeded, axis=1)[:, 1:]


class MuSigmaLane:
    """Time-axis batched preview of K :class:`MuSigmaChange` detectors.

    Stacks the running statistics of K detectors into ``(K, D)`` arrays
    and replays a whole round of observe + should-finetune steps per
    :meth:`step`, over time-axis blocks of at most
    :data:`_BLOCK_ELEMENTS` elements:

    - the running sums, sums of squares and counts are ``np.cumsum``
      along the time axis, seeded with the sums carried from the block
      before (:func:`_fold`), a left-to-right fold with the additions
      of the per-step ``_sum += shifted - removed``;
    - the moments, thresholds and ``mean``/``any`` tests are elementwise
      ops or reductions over the contiguous ``D`` axis, which produce
      the bits of the per-session 1-D calls.

    So every decision, the committed sums and the op counters are
    bitwise what K sequential detectors produce (pinned by the kernel
    probes in ``tests/test_fleet.py`` and the oracle property test in
    ``tests/test_properties.py``).

    The lane works on *copies*: the detectors themselves are mutated only
    by :meth:`commit`, so a session whose preview fires can simply be
    handed back to the stock per-session path with its state untouched.

    An append update is replayed as a replace whose removed-side shifted
    delta is forced to ``0.0`` (``x + (a - 0.0)`` and ``x + (a*a - 0.0)``
    are bit-identical to ``x + a`` / ``x + a*a``), which keeps mixed
    append/replace rows in one vectorized update over the shifted sums.
    """

    def __init__(self, detectors: list[MuSigmaChange]) -> None:
        first = detectors[0]
        if any(
            d.aggregate != first.aggregate or d.std_factor != first.std_factor
            for d in detectors
        ):
            raise ValueError("lane detectors must share aggregate/std_factor")
        if any(not d.fuse_ready for d in detectors):
            raise ValueError("lane detectors must be fuse_ready")
        self.aggregate = first.aggregate
        self.std_factor = first.std_factor
        self._shift = np.stack([d._shift for d in detectors])
        self._sum = np.stack([d._sum for d in detectors])
        self._sumsq = np.stack([d._sumsq for d in detectors])
        self._count = np.array(
            [d._count for d in detectors], dtype=np.float64
        )
        self._ref_mean = np.stack([d._ref_mean for d in detectors])
        self._ref_std = np.stack([d._ref_std for d in detectors])
        #: each detector's cached ``"mean"`` thresholds, ``(K, 3)``.
        self._ref_means = np.array([d._ref_means for d in detectors])
        #: rows stepped up to and including each session's stop row, and
        #: how many of them replaced; :meth:`step` sets both.
        self._rows = np.zeros(len(detectors), dtype=np.int64)
        self._replaced = np.zeros(len(detectors), dtype=np.int64)

    def step(
        self,
        added: FloatArray,
        removed: FloatArray,
        replaced: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Replay every session's round of training-set updates; return
        each session's first fire offset (-1 where none fires).

        Session ``i`` steps rows ``0 .. lengths[i] - 1`` and stops at its
        first fire; the lane keeps its state at that stop row for
        :meth:`commit`.  The replay stops at the first block in which
        every session has fired or run out of rows.

        Args:
            added: ``(K, B, ...)`` vectors entering the training sets,
                flattened to ``D`` features per row.
            removed: ``(K, B, ...)`` evicted vectors, all-zero rows where
                the update appends.
            replaced: ``(K, B)`` bool, True where the update replaces.
            lengths: ``(K,)`` rows per session; rows past a session's
                length are padding, computed and ignored.
        """
        k, b = replaced.shape
        added = added.reshape(k, b, -1)
        removed = removed.reshape(k, b, -1)
        rows = max(1, _BLOCK_ELEMENTS // (k * added.shape[2]))
        fired_at = np.full(k, -1, dtype=np.int64)
        alive = lengths > 0
        for start in range(0, b, rows):
            live = np.flatnonzero(alive)
            if not len(live):
                break
            span = slice(start, start + rows)
            shift = self._shift[live, None]
            shifted = added[live, span] - shift
            rep = replaced[live, span]
            gone = np.where(rep[..., None], removed[live, span] - shift, 0.0)
            sums = _fold(self._sum[live], shifted - gone)
            sumsq = _fold(self._sumsq[live], shifted**2 - gone**2)
            count = _fold(self._count[live], np.where(rep, 0.0, 1.0))
            shifted_mean = sums / count[..., None]
            variance = sumsq / count[..., None] - shifted_mean**2
            std = np.sqrt(np.maximum(variance, 0.0))
            mean = shift + shifted_mean
            mean_shift = np.abs(mean - self._ref_mean[live, None])
            fires = self._fires(live, mean_shift, std)
            end = start + fires.shape[1]
            fires &= np.arange(start, end) < lengths[live, None]
            hit = fires.any(axis=1)
            # Each session's stop row in the block: its first fire, else
            # its last row, else the block's last row (carried onward).
            last = np.where(
                hit,
                fires.argmax(axis=1),
                np.minimum(lengths[live], end) - 1 - start,
            )
            at = np.arange(len(live))
            self._sum[live] = sums[at, last]
            self._sumsq[live] = sumsq[at, last]
            self._count[live] = count[at, last]
            fired_at[live[hit]] = start + last[hit]
            alive[live] = ~hit & (lengths[live] > end)
        self._rows = np.where(fired_at >= 0, fired_at + 1, lengths)
        committed = np.arange(b) < self._rows[:, None]
        self._replaced = (replaced & committed).sum(axis=1)
        return fired_at

    def _fires(
        self, live: np.ndarray, mean_shift: FloatArray, std: FloatArray
    ) -> np.ndarray:
        """``(n, rows)`` fire decisions of sessions ``live`` from their
        ``(n, rows, D)`` mean shifts and standard deviations."""
        if self.aggregate == "any":
            ref_std = self._ref_std[live, None]
            return (
                (mean_shift > ref_std).any(axis=2)
                | (std > ref_std * self.std_factor).any(axis=2)
                | (std < ref_std / self.std_factor).any(axis=2)
            )
        ref_std, upper, lower = self._ref_means[live].T[..., None]
        std_row = std.mean(axis=2)
        return (
            (mean_shift.mean(axis=2) > ref_std)
            | (std_row > upper)
            | (std_row < lower)
        )

    def commit(self, k: int, detector: MuSigmaChange) -> None:
        """Write session ``k``'s state at its stop row into ``detector``.

        The op counters are settled in bulk with the exact per-step
        tallies: observe adds ``2D`` additions + ``D`` multiplications
        per append and ``4D`` + ``2D`` per replace; every
        ``should_finetune`` with a live reference adds ``D`` additions
        and ``3D`` comparisons.
        """
        detector._sum = self._sum[k].copy()
        detector._sumsq = self._sumsq[k].copy()
        detector._count = int(self._count[k])
        dim = detector._sum.size
        n_checks = int(self._rows[k])
        n_replaced = int(self._replaced[k])
        n_added = n_checks - n_replaced
        detector.ops.additions += (
            2 * n_added + 4 * n_replaced + n_checks
        ) * dim
        detector.ops.multiplications += (n_added + 2 * n_replaced) * dim
        detector.ops.comparisons += 3 * n_checks * dim

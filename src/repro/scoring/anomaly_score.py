"""Anomaly scoring functions (Section IV-E, Definition III.4).

An anomaly scorer maps the window of the ``k`` most recent nonconformity
scores to the final anomaly score ``f_t``.

Every scorer also supports the chunked streaming engine through three
extra methods: :meth:`AnomalyScorer.update_batch` folds a block of
nonconformity scores at once (bit-identical to calling
:meth:`~AnomalyScorer.update` in a loop), and
:meth:`~AnomalyScorer.snapshot`/:meth:`~AnomalyScorer.restore` rewind
the scorer when a mid-chunk fine-tune invalidates speculative work.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.types import FloatArray


def gaussian_tail(z: float) -> float:
    """The Gaussian tail function ``Q(z) = P(X > z)`` for standard normal X."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _likelihoods(z: FloatArray) -> FloatArray:
    """``1 - Q(z)`` elementwise, bitwise ``1.0 - gaussian_tail(z)`` per value.

    The division, the halving and the subtraction are the scalar path's
    IEEE operations in the same order; only ``erfc`` needs Python floats.
    """
    tails = [math.erfc(x) for x in (z / math.sqrt(2.0)).tolist()]
    return 1.0 - 0.5 * np.array(tails, dtype=np.float64)


class _ScoreRing:
    """Fixed-capacity ring of the most recent scores, oldest first.

    The buffer is mirrored (each value is written twice, ``capacity``
    apart) so :meth:`view` is always one contiguous slice — reductions
    over it are bit-identical to reductions over a freshly built array.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._buffer = np.zeros(2 * capacity, dtype=np.float64)
        self._pos = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, value: float) -> None:
        self._buffer[self._pos] = value
        self._buffer[self._pos + self.capacity] = value
        self._pos = (self._pos + 1) % self.capacity
        self._n = min(self._n + 1, self.capacity)

    def append_block(self, values: FloatArray) -> None:
        """Equivalent to appending every value in order."""
        values = np.asarray(values, dtype=np.float64)
        total = len(values)
        if total == 0:
            return
        keep = min(total, self.capacity)
        tail = values[total - keep :]
        idx = (self._pos + (total - keep) + np.arange(keep)) % self.capacity
        self._buffer[idx] = tail
        self._buffer[idx + self.capacity] = tail
        self._pos = (self._pos + total) % self.capacity
        self._n = min(self._n + total, self.capacity)

    def view(self) -> FloatArray:
        """Contiguous oldest-first window of the ``len(self)`` newest values."""
        return self._buffer[
            self._pos + self.capacity - self._n : self._pos + self.capacity
        ]

    def snapshot(self) -> tuple[FloatArray, int, int]:
        return self._buffer.copy(), self._pos, self._n

    def restore(self, state: tuple[FloatArray, int, int]) -> None:
        buffer, pos, n = state
        self._buffer[...] = buffer
        self._pos = pos
        self._n = n

    def reset(self) -> None:
        self._buffer[...] = 0.0
        self._pos = 0
        self._n = 0


class AnomalyScorer:
    """Stateful scorer consuming one nonconformity score per step."""

    name = "base"

    def describe(self) -> dict:
        """JSON-safe identity of this scorer (name + window parameters).

        Recorded in checkpoint metadata and run manifests so an artifact
        states which scoring function produced it without unpickling.
        """
        info: dict = {"scorer": self.name}
        for attr in ("k", "k_short"):
            value = getattr(self, attr, None)
            if value is not None:
                info[attr] = int(value)
        return info

    def update(self, nonconformity: float) -> float:
        """Consume ``a_t`` and return ``f_t``."""
        raise NotImplementedError

    def update_batch(self, values: FloatArray) -> FloatArray:
        """Consume a block of scores; bit-identical to looping :meth:`update`."""
        return np.asarray(
            [self.update(float(value)) for value in values], dtype=np.float64
        )

    def snapshot(self) -> object:
        """Capture the internal state (stateless scorers return ``None``)."""
        return None

    def restore(self, state: object) -> None:
        """Rewind to a :meth:`snapshot` (no-op for stateless scorers)."""

    def reset(self) -> None:
        """Forget all history."""


class RawScore(AnomalyScorer):
    """Pass the nonconformity score through unchanged (``f_t = a_t``)."""

    name = "raw"

    def update(self, nonconformity: float) -> float:
        return float(nonconformity)

    def update_batch(self, values: FloatArray) -> FloatArray:
        return np.array(values, dtype=np.float64)


class AverageScore(AnomalyScorer):
    """Moving average of the last ``k`` nonconformity scores."""

    name = "avg"

    def __init__(self, k: int = 32) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._ring = _ScoreRing(k)

    def update(self, nonconformity: float) -> float:
        self._ring.append(float(nonconformity))
        return float(np.mean(self._ring.view()))

    def update_batch(self, values: FloatArray) -> FloatArray:
        values = np.asarray(values, dtype=np.float64)
        out = np.empty(len(values), dtype=np.float64)
        j = 0
        # Warm region: the window is not yet full, reductions change length.
        while j < len(values) and len(self._ring) < self.k - 1:
            out[j] = self.update(values[j])
            j += 1
        rest = values[j:]
        if len(rest):
            view = self._ring.view()
            tail = view[len(view) - (self.k - 1) :]
            windows = sliding_window_view(
                np.concatenate([tail, rest]), self.k
            )
            out[j:] = windows.mean(axis=1)
            self._ring.append_block(rest)
        return out

    def snapshot(self) -> object:
        return self._ring.snapshot()

    def restore(self, state: object) -> None:
        self._ring.restore(state)

    def reset(self) -> None:
        self._ring.reset()


class ConformalScorer(AnomalyScorer):
    """Conformal rank score over the recent nonconformity history.

    SAFARI's original anomaly score is rooted in conformal prediction:
    the final score reflects how extreme the newest nonconformity is
    relative to a calibration set.  The paper's KS-based variant needs
    i.i.d. feature vectors (and is excluded there for that reason —
    Section IV-E); this extension keeps the conformal idea in its
    simplest valid form, the *rank* statistic:

        f_t = #{ a_i <= a_t, i in window } / (k + 1)

    A score of 1 means the newest nonconformity exceeds everything in the
    calibration window; 0.5 means it is typical.  Being rank-based it is
    invariant to any monotone rescaling of the nonconformity measure.

    Args:
        k: calibration window length.
    """

    name = "conformal"

    def __init__(self, k: int = 64) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._ring = _ScoreRing(k)

    def update(self, nonconformity: float) -> float:
        value = float(nonconformity)
        rank = int(np.count_nonzero(self._ring.view() <= value))
        self._ring.append(value)
        return (rank + 1) / (len(self._ring) + 1)

    def update_batch(self, values: FloatArray) -> FloatArray:
        values = np.asarray(values, dtype=np.float64)
        out = np.empty(len(values), dtype=np.float64)
        j = 0
        # Warm region: the calibration window is not yet full.
        while j < len(values) and len(self._ring) < self.k:
            out[j] = self.update(values[j])
            j += 1
        rest = values[j:]
        if len(rest):
            # Window i is the k values preceding rest[i]'s append.
            windows = sliding_window_view(
                np.concatenate([self._ring.view(), rest[:-1]]), self.k
            )
            ranks = (windows <= rest[:, None]).sum(axis=1)
            out[j:] = (ranks + 1) / (self.k + 1)
            self._ring.append_block(rest)
        return out

    def snapshot(self) -> object:
        return self._ring.snapshot()

    def restore(self, state: object) -> None:
        self._ring.restore(state)

    def reset(self) -> None:
        self._ring.reset()


class AnomalyLikelihood(AnomalyScorer):
    """Numenta anomaly likelihood (Lavin & Ahmad, 2015).

    Compares a short-term mean ``mu~`` over the last ``k'`` scores to the
    long-term mean ``mu`` and standard deviation ``sigma`` over the last
    ``k`` scores:

        f_t = 1 - Q((mu~ - mu) / sigma)

    A short-term surge of nonconformity relative to recent history pushes
    the likelihood toward 1; scores within the historical noise floor stay
    near 0.5 and below.

    Args:
        k: long window length (paper: ``k``).
        k_short: short window length, must satisfy ``k_short < k``
            (paper: ``k' << k``).
        min_sigma: numerical floor on the long-window standard deviation.
    """

    name = "al"

    def __init__(self, k: int = 64, k_short: int = 8, min_sigma: float = 1e-6) -> None:
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if not 1 <= k_short < k:
            raise ValueError(f"k_short must be in [1, k), got {k_short}")
        self.k = k
        self.k_short = k_short
        self.min_sigma = min_sigma
        self._ring = _ScoreRing(k)

    def update(self, nonconformity: float) -> float:
        self._ring.append(float(nonconformity))
        values = self._ring.view()
        long_mean = float(values.mean())
        short_mean = float(values[-self.k_short :].mean())
        sigma = max(float(values.std()), self.min_sigma)
        z = (short_mean - long_mean) / sigma
        return 1.0 - gaussian_tail(z)

    def update_batch(self, values: FloatArray) -> FloatArray:
        values = np.asarray(values, dtype=np.float64)
        out = np.empty(len(values), dtype=np.float64)
        j = 0
        # Warm region: the long window is not yet full.
        while j < len(values) and len(self._ring) < self.k - 1:
            out[j] = self.update(values[j])
            j += 1
        rest = values[j:]
        if len(rest):
            view = self._ring.view()
            tail = view[len(view) - (self.k - 1) :]
            windows = sliding_window_view(
                np.concatenate([tail, rest]), self.k
            )
            long_means = windows.mean(axis=1)
            short_means = windows[:, self.k - self.k_short :].mean(axis=1)
            sigmas = np.maximum(windows.std(axis=1), self.min_sigma)
            z = (short_means - long_means) / sigmas
            out[j:] = _likelihoods(z)
            self._ring.append_block(rest)
        return out

    @classmethod
    def fleet_update_batch(
        cls, scorers: list["AnomalyScorer"], values_list: list[FloatArray]
    ) -> list[FloatArray]:
        """Session-axis batched scorer update for a fleet drain.

        Bitwise identical to ``[s.update_batch(v) for s, v in zip(...)]``
        but the windowed means/stds of every eligible session run as one
        stacked ``(K, B, k)`` reduction instead of K separate numpy
        dispatches — the window math reduces over the last axis only, so
        leading dimensions cannot change the summation order.  Sessions
        of a different scorer type, with a still-warming ring (the
        scalar-path region of :meth:`update_batch`), with an empty block
        or with mismatched window parameters fall back to their own
        :meth:`update_batch`, which is the same math one session at a
        time.
        """
        out: list[FloatArray | None] = [None] * len(scorers)
        arrays = [np.asarray(v, dtype=np.float64) for v in values_list]
        lane: list[int] = []
        ref: AnomalyLikelihood | None = None
        for i, scorer in enumerate(scorers):
            if (
                type(scorer) is cls
                and len(arrays[i])
                and len(scorer._ring) >= scorer.k - 1
            ):
                if ref is None:
                    ref = scorer
                if (scorer.k, scorer.k_short, scorer.min_sigma) == (
                    ref.k,
                    ref.k_short,
                    ref.min_sigma,
                ):
                    lane.append(i)
                    continue
            out[i] = scorer.update_batch(arrays[i])
        if len(lane) < 2:
            for i in lane:
                out[i] = scorers[i].update_batch(arrays[i])
            return out  # type: ignore[return-value]
        k, k_short, min_sigma = ref.k, ref.k_short, ref.min_sigma
        lengths = [len(arrays[i]) for i in lane]
        b_max = max(lengths)
        # Row r = session lane[r]'s ring tail followed by its pending
        # values (zero-padded; padded windows are computed and dropped).
        stacked = np.zeros((len(lane), k - 1 + b_max), dtype=np.float64)
        for row, i in enumerate(lane):
            view = scorers[i]._ring.view()
            stacked[row, : k - 1] = view[len(view) - (k - 1) :]
            stacked[row, k - 1 : k - 1 + lengths[row]] = arrays[i]
        windows = sliding_window_view(stacked, k, axis=1)
        long_means = windows.mean(axis=2)
        short_means = windows[:, :, k - k_short :].mean(axis=2)
        sigmas = np.maximum(windows.std(axis=2), min_sigma)
        z = (short_means - long_means) / sigmas
        for row, i in enumerate(lane):
            scorers[i]._ring.append_block(arrays[i])
            out[i] = _likelihoods(z[row, : lengths[row]])
        return out  # type: ignore[return-value]

    def snapshot(self) -> object:
        return self._ring.snapshot()

    def restore(self, state: object) -> None:
        self._ring.restore(state)

    def reset(self) -> None:
        self._ring.reset()

"""Sliding-window training-set strategy (SW)."""

from __future__ import annotations

import collections

import numpy as np

from repro.core.types import FeatureVector, FloatArray
from repro.learning.base import TrainingSetStrategy, Update, UpdateKind


class SlidingWindow(TrainingSetStrategy):
    """Keep the ``m`` most recent feature vectors.

    This is the only Task-1 strategy that preserves stream order and
    contiguity, which the VAR model's least-squares estimation requires.
    """

    name = "sw"
    reads_score = False

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._deque: collections.deque[FeatureVector] = collections.deque(
            maxlen=capacity
        )

    def __len__(self) -> int:
        return len(self._deque)

    @property
    def is_full(self) -> bool:
        return len(self._deque) >= self.capacity

    def update(self, x: FeatureVector, score: float = 0.0) -> Update:
        x = np.asarray(x, dtype=np.float64)
        if len(self._deque) < self.capacity:
            self._deque.append(x)
            return Update(UpdateKind.ADDED, added=x)
        removed = self._deque[0]
        self._deque.append(x)  # deque with maxlen evicts the oldest
        return Update(UpdateKind.REPLACED, added=x, removed=removed)

    def training_set(self) -> FloatArray:
        if not self._deque:
            return np.empty((0,))
        return np.stack(list(self._deque))

    # ------------------------------------------------------------------
    # block preview/commit for the fused fleet engine
    # ------------------------------------------------------------------
    def preview_block(
        self, windows: FloatArray
    ) -> tuple[np.ndarray, FloatArray]:
        """Eviction schedule for pushing ``windows``, without mutating.

        Returns ``(replaced, removed)``: a ``(B,)`` bool mask of which
        pushes evict an element, and a ``(B, *feature_shape)`` array
        whose row ``j`` holds the evicted element for replacing pushes
        and zeros otherwise (the μ/σ lane replays an append as a replace
        with a zero removed row, which is bit-identical).
        """
        windows = np.asarray(windows, dtype=np.float64)
        n_pushes = len(windows)
        held = len(self._deque)
        replaced = np.zeros(n_pushes, dtype=bool)
        removed = np.zeros_like(windows)
        first_evict = max(self.capacity - held, 0)
        if first_evict >= n_pushes:
            return replaced, removed
        replaced[first_evict:] = True
        for j in range(first_evict, n_pushes):
            # Oldest element of the virtual sequence (deque + pushes so far).
            p = held + j - self.capacity
            removed[j] = self._deque[p] if p < held else windows[p - held]
        return replaced, removed

    def commit_block(self, windows: FloatArray) -> None:
        """Apply ``B`` pushes at once; bit-equal to ``B`` :meth:`update`
        calls (the fleet engine previews first, commits only when no
        step fired)."""
        windows = np.asarray(windows, dtype=np.float64)
        self._deque.extend(np.array(w) for w in windows)

    def reset(self) -> None:
        self._deque.clear()

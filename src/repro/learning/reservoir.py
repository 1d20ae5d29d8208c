"""Reservoir-based training-set strategies (URES and ARES)."""

from __future__ import annotations

import numpy as np

from repro.core.types import FeatureVector
from repro.learning.base import TrainingSetStrategy, Update, UpdateKind


class UniformReservoir(TrainingSetStrategy):
    """Uniform reservoir sampling over the stream (URES).

    While fewer than ``m`` vectors have been seen, every vector is added.
    Afterwards the new vector replaces a uniformly chosen resident with
    probability ``m / t`` (Vitter's algorithm R), so at any time every
    stream vector seen so far is retained with equal probability.
    """

    name = "ures"
    reads_score = False

    def __init__(self, capacity: int, rng: np.random.Generator | None = None) -> None:
        super().__init__(capacity)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._seen = 0

    def update(self, x: FeatureVector, score: float = 0.0) -> Update:
        x = np.asarray(x, dtype=np.float64)
        self._seen += 1
        if len(self._buffer) < self.capacity:
            self._buffer.append(x)
            return Update(UpdateKind.ADDED, added=x)
        if self._rng.uniform() < self.capacity / self._seen:
            victim = int(self._rng.integers(0, self.capacity))
            removed = self._buffer[victim]
            self._buffer[victim] = x
            return Update(UpdateKind.REPLACED, added=x, removed=removed)
        return Update(UpdateKind.UNCHANGED)

    def reset(self) -> None:
        super().reset()
        self._seen = 0


class AnomalyAwareReservoir(TrainingSetStrategy):
    """Anomaly-aware reservoir (ARES) retaining the most "normal" vectors.

    Every incoming vector receives a priority ``p_t = u ** (lambda1 /
    exp(-lambda2 * f_t))`` with ``u`` drawn uniformly from ``u_range``
    (Section IV-B).  Since ``u < 1``, higher anomaly scores ``f_t`` produce
    exponentially larger exponents and hence *lower* priorities, so normal
    vectors dominate the reservoir while the random base keeps it from
    collapsing onto a fixed set.

    When the reservoir is full, the incoming vector replaces the resident
    with the *lowest* priority, and only if that priority is below ``p_t``
    (the paper's helper ``c(ps, p_t)``).

    Args:
        capacity: reservoir size ``m``.
        lambda1: priority steepness, paper default 3.
        lambda2: score sensitivity, paper default 3.
        u_range: uniform base range; the paper restricts it to
            ``[0.7, 0.9]`` (from the full ``[0, 1]``) for its experiments.
        rng: random generator.
    """

    name = "ares"

    def __init__(
        self,
        capacity: int,
        lambda1: float = 3.0,
        lambda2: float = 3.0,
        u_range: tuple[float, float] = (0.7, 0.9),
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(capacity)
        if lambda1 <= 0 or lambda2 <= 0:
            raise ValueError("lambda1 and lambda2 must be positive")
        low, high = u_range
        if not 0.0 < low <= high < 1.0:
            raise ValueError(f"u_range must satisfy 0 < low <= high < 1, got {u_range}")
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.u_range = (float(low), float(high))
        self._rng = rng if rng is not None else np.random.default_rng()
        self._priorities: list[float] = []

    def priority(self, score: float) -> float:
        """Draw the priority ``p_t`` for a vector with anomaly score ``score``."""
        u = self._rng.uniform(*self.u_range)
        exponent = self.lambda1 / np.exp(-self.lambda2 * score)
        return float(u**exponent)

    def update(self, x: FeatureVector, score: float = 0.0) -> Update:
        x = np.asarray(x, dtype=np.float64)
        p_t = self.priority(score)
        if len(self._buffer) < self.capacity:
            self._buffer.append(x)
            self._priorities.append(p_t)
            return Update(UpdateKind.ADDED, added=x)
        victim = int(np.argmin(self._priorities))
        if self._priorities[victim] < p_t:
            removed = self._buffer[victim]
            self._buffer[victim] = x
            self._priorities[victim] = p_t
            return Update(UpdateKind.REPLACED, added=x, removed=removed)
        return Update(UpdateKind.UNCHANGED)

    def priorities(self) -> list[float]:
        """Current resident priorities (test/diagnostic hook)."""
        return list(self._priorities)

    def reset(self) -> None:
        super().reset()
        self._priorities.clear()

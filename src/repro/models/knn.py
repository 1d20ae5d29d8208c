"""Similarity-based k-NN detector: the original SAFARI special case.

The extended framework recovers Calikus et al.'s original formulation
when the reference parameters consist only of feature vectors (Section
III: "In the special case that theta consists of only feature vectors,
the original definition is recovered").  This model realises that case:
it has no trainable parameters — "fitting" just stores the training set —
and its score is the distance from a feature vector to its ``k``-th
nearest neighbour in the reference group, squashed into ``(0, 1)``.

Provided as a library extension (the paper's future-work direction of
adapting further offline detectors to the streaming scenario); it is not
part of the Table I grid.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import FeatureVector, FloatArray
from repro.models.base import StreamModel, _as_windows


class KNNDetector(StreamModel):
    """k-nearest-neighbour nonconformity over the reference group.

    Args:
        k: neighbour rank used as the distance statistic.
        scale_quantile: the training-set self-distance quantile used to
            normalise distances (so the score is ~0.5 at "typical" novelty
            and approaches 1 for far outliers).
    """

    name = "knn"
    prediction_kind = "score"

    def __init__(self, k: int = 5, scale_quantile: float = 0.9) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if not 0.0 < scale_quantile < 1.0:
            raise ConfigurationError(
                f"scale_quantile must be in (0, 1), got {scale_quantile}"
            )
        self.k = k
        self.scale_quantile = scale_quantile
        self._reference: FloatArray | None = None  # (n, d) flattened vectors
        self._scale = 1.0

    def fit(self, windows: FloatArray, epochs: int = 1) -> float:
        """Store the training set and calibrate the distance scale.

        Returns 0.0: storing a reference set trains nothing.
        """
        windows = _as_windows(windows)
        flat = windows.reshape(len(windows), -1)
        if len(flat) <= self.k:
            raise ConfigurationError(
                f"need more than k={self.k} reference vectors, got {len(flat)}"
            )
        self._reference = flat.copy()
        self._scale = max(self._calibrate(flat), 1e-12)
        self._fitted = True
        return 0.0

    def _calibrate(self, flat: FloatArray) -> float:
        """Typical k-NN self-distance inside the reference group."""
        sample = flat[:: max(len(flat) // 64, 1)]
        distances = []
        for vector in sample:
            knn = self._knn_distance(vector, exclude_self=True)
            distances.append(knn)
        return float(np.quantile(distances, self.scale_quantile))

    def _knn_distance(self, vector: FloatArray, exclude_self: bool = False) -> float:
        assert self._reference is not None
        deltas = self._reference - vector
        distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        if exclude_self:
            distances = np.sort(distances)
            # drop the zero self-distance if present
            start = 1 if distances[0] < 1e-12 else 0
            return float(distances[start + self.k - 1])
        return float(np.partition(distances, self.k - 1)[self.k - 1])

    def score(self, x: FeatureVector) -> float:
        """``d_k / (d_k + scale)``: 0 on the reference manifold, -> 1 far away."""
        self._require_fitted()
        vector = np.asarray(x, dtype=np.float64).ravel()
        assert self._reference is not None
        if vector.size != self._reference.shape[1]:
            raise ConfigurationError(
                f"expected flattened dimension {self._reference.shape[1]}, "
                f"got {vector.size}"
            )
        distance = self._knn_distance(vector)
        return distance / (distance + self._scale)

    def predict(self, x: FeatureVector) -> FloatArray:
        """Score models expose predict for interface parity."""
        return np.asarray([self.score(x)])

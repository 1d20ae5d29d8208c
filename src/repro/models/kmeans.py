"""Online k-means anomaly detector (Wang et al., related work §II).

Wang et al. detect anomalies with a streaming k-means whose clusters are
rebuilt at every step from a sliding window; the distance to the nearest
centroid indicates abnormality.  In this framework the rebuild cadence is
governed by the Task-2 strategy (fine-tuning re-runs Lloyd's algorithm on
the current training set), making the algorithm directly comparable to
the paper's grid under identical learning strategies.

k-means is implemented from scratch: k-means++ seeding plus Lloyd
iterations on numpy.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import FeatureVector, FloatArray
from repro.models.base import StreamModel, _as_windows


def kmeans_plus_plus(
    data: FloatArray, k: int, rng: np.random.Generator
) -> FloatArray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = data.shape[0]
    centroids = [data[rng.integers(n)]]
    for _ in range(1, k):
        deltas = data[:, None, :] - np.asarray(centroids)[None, :, :]
        sq_dist = np.min(np.einsum("nkd,nkd->nk", deltas, deltas), axis=1)
        total = float(sq_dist.sum())
        if total <= 1e-24:  # all points coincide with a centroid
            centroids.append(data[rng.integers(n)])
            continue
        probabilities = sq_dist / total
        centroids.append(data[rng.choice(n, p=probabilities)])
    return np.asarray(centroids)


def lloyd(
    data: FloatArray,
    centroids: FloatArray,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> tuple[FloatArray, FloatArray]:
    """Lloyd's algorithm; returns ``(centroids, assignments)``."""
    centroids = centroids.copy()
    assignments = np.zeros(data.shape[0], dtype=np.int64)
    for _ in range(max_iter):
        deltas = data[:, None, :] - centroids[None, :, :]
        distances = np.einsum("nkd,nkd->nk", deltas, deltas)
        assignments = np.argmin(distances, axis=1)
        shift = 0.0
        for j in range(centroids.shape[0]):
            members = data[assignments == j]
            if len(members):
                new_centroid = members.mean(axis=0)
                shift += float(np.linalg.norm(new_centroid - centroids[j]))
                centroids[j] = new_centroid
        if shift < tol:
            break
    return centroids, assignments


class OnlineKMeans(StreamModel):
    """Cluster-distance anomaly detector over flattened feature vectors.

    Args:
        k: number of clusters.
        max_iter: Lloyd iteration cap per (re)fit.
        seed: RNG seed for seeding.
    """

    name = "kmeans"
    prediction_kind = "score"

    def __init__(self, k: int = 8, max_iter: int = 50, seed: int = 0) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
        self.k = k
        self.max_iter = max_iter
        self._rng = np.random.default_rng(seed)
        self.centroids: FloatArray | None = None
        self._scale = 1.0

    def fit(self, windows: FloatArray, epochs: int = 1) -> float:
        """Re-cluster the training set; returns the mean within-cluster distance."""
        windows = _as_windows(windows)
        flat = windows.reshape(len(windows), -1)
        k = min(self.k, len(flat))
        seeds = kmeans_plus_plus(flat, k, self._rng)
        self.centroids, assignments = lloyd(flat, seeds, self.max_iter)
        distances = np.linalg.norm(flat - self.centroids[assignments], axis=1)
        # Normalisation scale: a high quantile of in-cluster distances.
        self._scale = max(float(np.quantile(distances, 0.9)), 1e-12)
        self._fitted = True
        return float(distances.mean())

    def nearest_distance(self, x: FeatureVector) -> float:
        """Euclidean distance from ``x`` to its nearest centroid."""
        self._require_fitted()
        assert self.centroids is not None
        vector = np.asarray(x, dtype=np.float64).ravel()
        if vector.size != self.centroids.shape[1]:
            raise ConfigurationError(
                f"expected flattened dimension {self.centroids.shape[1]}, "
                f"got {vector.size}"
            )
        deltas = self.centroids - vector
        return float(np.sqrt(np.min(np.einsum("kd,kd->k", deltas, deltas))))

    def score(self, x: FeatureVector) -> float:
        """``d / (d + scale)``: 0 at a centroid, toward 1 far from all."""
        distance = self.nearest_distance(x)
        return distance / (distance + self._scale)

    def predict(self, x: FeatureVector) -> FloatArray:
        """Score models expose predict for interface parity."""
        return np.asarray([self.score(x)])

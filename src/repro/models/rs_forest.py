"""RS-Forest: randomized space trees for streaming density estimation.

Wu et al. (related work §II) estimate the density of a sample with a
forest of *randomized space trees*: each tree partitions an (expanded)
bounding box with random axis-parallel cuts drawn independently of the
data, down to a fixed depth.  Fitting simply counts how many reference
points land in each leaf; scoring a sample reads its leaf's density
(count scaled by the leaf volume share).  Low-density samples are
anomalies.

Because the tree *structure* never depends on the data, model updates
are O(n) count refreshes — which is what makes the method streaming-
friendly, and what the Task-2 fine-tuning exploits here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.core.types import FeatureVector, FloatArray
from repro.models.base import StreamModel, _as_windows


@dataclass
class _SpaceNode:
    """A node of a randomized space tree."""

    depth: int
    split_dim: int = -1
    split_value: float = 0.0
    log_volume: float = 0.0
    count: int = 0
    left: "_SpaceNode | None" = None
    right: "_SpaceNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RandomizedSpaceTree:
    """One space tree over an expanded bounding box.

    Args:
        lower: box lower corner, shape ``(dim,)``.
        upper: box upper corner, shape ``(dim,)``.
        depth: tree depth (``2**depth`` leaves).
        rng: random generator.
    """

    def __init__(
        self,
        lower: FloatArray,
        upper: FloatArray,
        depth: int,
        rng: np.random.Generator,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        if np.any(self.upper <= self.lower):
            raise ValueError("upper must exceed lower in every dimension")
        self.dim = self.lower.size
        self.depth = depth
        self.root = self._grow(self.lower.copy(), self.upper.copy(), 0, rng)

    def _grow(
        self,
        lower: FloatArray,
        upper: FloatArray,
        depth: int,
        rng: np.random.Generator,
    ) -> _SpaceNode:
        if depth >= self.depth:
            return _SpaceNode(depth=depth, log_volume=-float(depth) * np.log(2.0))
        dim = int(rng.integers(self.dim))
        # Random cut within the central 80% of the current extent, so no
        # sliver leaves with near-zero volume appear.
        low, high = lower[dim], upper[dim]
        cut = rng.uniform(low + 0.1 * (high - low), high - 0.1 * (high - low))
        node = _SpaceNode(depth=depth, split_dim=dim, split_value=float(cut))
        left_upper = upper.copy()
        left_upper[dim] = cut
        right_lower = lower.copy()
        right_lower[dim] = cut
        node.left = self._grow(lower, left_upper, depth + 1, rng)
        node.right = self._grow(right_lower, upper, depth + 1, rng)
        return node

    def _leaf_for(self, x: FloatArray) -> _SpaceNode:
        node = self.root
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if x[node.split_dim] <= node.split_value else node.right
        return node

    def populate(self, data: FloatArray) -> None:
        """Reset all leaf counts and drop ``data`` through the tree."""
        self._clear_counts(self.root)
        for row in np.atleast_2d(data):
            self._leaf_for(row).count += 1

    def _clear_counts(self, node: _SpaceNode) -> None:
        node.count = 0
        if not node.is_leaf:
            self._clear_counts(node.left)  # type: ignore[arg-type]
            self._clear_counts(node.right)  # type: ignore[arg-type]

    def density(self, x: FloatArray) -> float:
        """Leaf count scaled by the leaf's volume share (``2**depth``)."""
        leaf = self._leaf_for(np.asarray(x, dtype=np.float64).ravel())
        return leaf.count * float(2.0**self.depth)


class RSForest(StreamModel):
    """Density-based streaming anomaly detector over stream vectors.

    Operates on the newest stream vector of each feature window (like
    PCB-iForest).  The anomaly score is ``1 / (1 + density / reference)``
    where ``reference`` is the median training density: empty or sparse
    regions score near 1, dense regions near 0.

    Args:
        n_trees: forest size.
        depth: per-tree depth.
        margin: bounding-box expansion factor, so moderately out-of-range
            stream values still land in populated space.
        seed: RNG seed.
    """

    name = "rs_forest"
    prediction_kind = "score"

    def __init__(
        self,
        n_trees: int = 25,
        depth: int = 8,
        margin: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_trees < 1:
            raise ConfigurationError(f"n_trees must be >= 1, got {n_trees}")
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        if margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {margin}")
        self.n_trees = n_trees
        self.depth = depth
        self.margin = margin
        self._rng = np.random.default_rng(seed)
        self.trees: list[RandomizedSpaceTree] = []
        self._reference_density = 1.0

    @staticmethod
    def _points(windows: FloatArray) -> FloatArray:
        windows = _as_windows(windows)
        return windows[:, -1, :]

    def fit(self, windows: FloatArray, epochs: int = 1) -> float:
        """Build tree structures (first call) and populate leaf counts.

        Returns the mean density of the training points.
        """
        points = self._points(windows)
        if not self.trees:
            lower = points.min(axis=0)
            upper = points.max(axis=0)
            span = np.maximum(upper - lower, 1e-8)
            lower = lower - self.margin * span
            upper = upper + self.margin * span
            self.trees = [
                RandomizedSpaceTree(lower, upper, self.depth, self._rng)
                for _ in range(self.n_trees)
            ]
        for tree in self.trees:
            tree.populate(points)
        densities = [self._mean_density(p) for p in points]
        self._reference_density = max(float(np.median(densities)), 1e-12)
        self._fitted = True
        return float(np.mean(densities))

    def finetune(self, windows: FloatArray, epochs: int = 1) -> float:
        """Refresh leaf counts from the current training set (structure kept)."""
        if not self.trees:
            raise NotFittedError("RSForest fine-tuned before fit")
        return self.fit(windows, epochs)

    def _mean_density(self, point: FloatArray) -> float:
        return float(np.mean([tree.density(point) for tree in self.trees]))

    def score(self, x: FeatureVector) -> float:
        """``1 / (1 + density / reference)`` for the newest stream vector."""
        self._require_fitted()
        point = np.asarray(x, dtype=np.float64)
        if point.ndim == 2:
            point = point[-1]
        density = self._mean_density(point)
        return 1.0 / (1.0 + density / self._reference_density)

    def predict(self, x: FeatureVector) -> FloatArray:
        """Score models expose predict for interface parity."""
        return np.asarray([self.score(x)])

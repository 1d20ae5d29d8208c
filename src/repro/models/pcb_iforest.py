"""PCB-iForest: performance-counter-based streaming isolation forest.

Heigl et al. (2021) make the isolation forest stream-capable by rating
every tree's contribution to the ensemble decision: a tree whose
single-tree judgement agrees with the ensemble's gets its performance
counter incremented, a disagreeing tree gets it decremented.  When the
Task-2 strategy (KSWIN in the paper) reports concept drift, trees with
non-positive counters are discarded, replaced by fresh trees built on the
current training set, and all counters reset.

Inside this framework the model consumes the training set of windows but
isolates *stream vectors*: the newest row of each feature vector.  Its
score is itself the isolation-forest nonconformity measure
``a_t = 2^{-E(h)/c(n)}`` (Section IV-D), so the model plugs in with
``prediction_kind = "score"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import FeatureVector, FloatArray
from repro.models.base import StreamModel, _as_windows
from repro.models.isolation import ExtendedIsolationForest


class PCBIForest(StreamModel):
    """Streaming extended isolation forest with per-tree performance counters.

    Args:
        n_trees: ensemble size.
        subsample: per-tree subsample size.
        threshold: anomaly decision threshold on the iForest score; 0.5 is
            the conventional value (scores above it indicate isolation
            faster than average).
        extension_level: hyperplane extension level (``None`` = fully
            extended, per the paper's use of the extended isolation forest).
        seed: RNG seed.
    """

    name = "pcb_iforest"
    prediction_kind = "score"

    def __init__(
        self,
        n_trees: int = 50,
        subsample: int = 128,
        threshold: float = 0.5,
        extension_level: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 < threshold < 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
        self.threshold = threshold
        self.forest = ExtendedIsolationForest(
            n_trees=n_trees,
            subsample=subsample,
            extension_level=extension_level,
            seed=seed,
        )
        self.performance_counters = np.zeros(n_trees, dtype=np.int64)

    # ------------------------------------------------------------------
    @staticmethod
    def _points(windows: FloatArray) -> FloatArray:
        """Newest stream vector of every window: ``(n, w, N) -> (n, N)``."""
        windows = _as_windows(windows)
        return windows[:, -1, :]

    def fit(self, windows: FloatArray, epochs: int = 1) -> float:
        """Full rebuild of the forest; ``epochs`` is ignored (tree-based).

        Returns the mean ensemble score over the training set (lower =
        more normal), as :meth:`finetune` does after its update.
        """
        points = self._points(windows)
        self.forest.fit(points)
        self.performance_counters = np.zeros(self.forest.n_trees, dtype=np.int64)
        self._fitted = True
        return float(self.forest.score_batch(points).mean())

    def finetune(self, windows: FloatArray, epochs: int = 1) -> float:
        """PCB update: drop underperforming trees, grow replacements.

        Trees with ``pc_i > 0`` survive; the rest are rebuilt from the
        current training set.  All counters reset afterwards.
        """
        self._require_fitted()
        points = self._points(windows)
        survivors = [
            tree
            for tree, counter in zip(self.forest.trees, self.performance_counters)
            if counter > 0
        ]
        n_new = self.forest.n_trees - len(survivors)
        new_trees = [self.forest.build_tree(points) for _ in range(n_new)]
        self.forest.trees = survivors + new_trees
        self.performance_counters = np.zeros(self.forest.n_trees, dtype=np.int64)
        return float(self.forest.score_batch(points).mean())

    # ------------------------------------------------------------------
    def score(self, x: FeatureVector) -> float:
        """Ensemble score for the newest stream vector; updates counters.

        Scoring has the side effect of crediting/debiting each tree
        depending on whether its single-tree judgement matches the
        ensemble decision — this is what drives the PCB pruning.
        """
        self._require_fitted()
        point = np.asarray(x, dtype=np.float64)
        if point.ndim == 2:
            point = point[-1]
        return self.consume_depths(self.forest.depths(point))

    def depth_rows(self, windows: FloatArray) -> FloatArray:
        """Per-tree depths for every window's newest vector, ``(B, n_trees)``.

        Pure (no counter updates): the block engine precomputes these
        under the frozen forest and folds each row through
        :meth:`consume_depths` in stream order.
        """
        self._require_fitted()
        return self.forest.depths_batch(self._points(windows))

    def consume_depths(self, depths: FloatArray) -> float:
        """Fold one vector of per-tree depths: ensemble score + counters."""
        ensemble_score = self.forest.score_from_depth(float(depths.mean()))
        ensemble_anomalous = ensemble_score > self.threshold
        tree_scores = self.forest.scores_from_depths(depths)
        agrees = (tree_scores > self.threshold) == ensemble_anomalous
        self.performance_counters += np.where(agrees, 1, -1)
        return float(ensemble_score)

    def score_batch(self, X: FloatArray) -> FloatArray:
        """Vectorized :meth:`score` over ``(B, w, N)`` windows.

        Every window's per-tree votes are credited to the counters, as if
        :meth:`score` had run row by row (integer votes commute).
        """
        self._require_fitted()
        depths = self.depth_rows(X)
        ensemble = self.forest.scores_from_depths(depths.mean(axis=1))
        tree_scores = self.forest.scores_from_depths(depths)
        agrees = (tree_scores > self.threshold) == (
            ensemble > self.threshold
        )[:, None]
        self.performance_counters += np.where(agrees, 1, -1).sum(axis=0)
        return ensemble

    def predict(self, x: FeatureVector) -> FloatArray:
        """Score models have no vector prediction; exposed for interface parity."""
        return np.asarray([self.score(x)])

"""Tests for the extended isolation forest substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import NotFittedError
from repro.models import (
    ExtendedIsolationForest,
    ExtendedIsolationTree,
    average_path_length,
)


class TestAveragePathLength:
    def test_conventions(self):
        assert average_path_length(0) == 0.0
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0

    def test_monotone_increasing(self):
        values = [average_path_length(n) for n in range(2, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_logarithmic_growth(self):
        assert average_path_length(1000) < 2 * np.log(1000)


def _one_tree_forest(tree):
    """A forest scoring through ``tree`` alone."""
    forest = ExtendedIsolationForest(n_trees=1)
    forest.trees = [tree]
    return forest


class TestExtendedIsolationTree:
    def test_single_point_is_leaf(self, rng):
        tree = ExtendedIsolationTree(np.zeros((1, 3)), rng)
        assert tree.root.is_leaf

    def test_identical_points_leaf(self, rng):
        tree = ExtendedIsolationTree(np.ones((50, 3)), rng)
        assert tree.root.is_leaf

    def test_path_length_positive(self, rng):
        data = rng.normal(size=(100, 2))
        forest = _one_tree_forest(ExtendedIsolationTree(data, rng))
        assert forest.depths(data[0])[0] > 0

    def test_wrong_dim_rejected(self, rng):
        forest = _one_tree_forest(ExtendedIsolationTree(rng.normal(size=(10, 3)), rng))
        with pytest.raises(ValueError):
            forest.depths(np.zeros(4))

    def test_empty_data_rejected(self, rng):
        with pytest.raises(ValueError):
            ExtendedIsolationTree(np.zeros((0, 3)), rng)

    def test_extension_level_validated(self, rng):
        with pytest.raises(ValueError):
            ExtendedIsolationTree(rng.normal(size=(10, 3)), rng, extension_level=3)

    def test_extension_level_zero_axis_parallel(self, rng):
        # Level 0 splits involve exactly one dimension.
        tree = ExtendedIsolationTree(
            rng.normal(size=(100, 4)), rng, extension_level=0
        )

        def check(node):
            if node.is_leaf:
                return
            assert np.sum(node.normal != 0) == 1
            check(node.left)
            check(node.right)

        check(tree.root)

    def test_max_depth_respected(self, rng):
        tree = ExtendedIsolationTree(rng.normal(size=(256, 2)), rng, max_depth=3)
        data = rng.normal(size=(50, 2))
        raw_depths = []

        def depth_of(x):
            node, depth = tree.root, 0
            while not node.is_leaf:
                node = (
                    node.left
                    if (x - node.intercept) @ node.normal <= 0
                    else node.right
                )
                depth += 1
            return depth

        assert max(depth_of(x) for x in data) <= 3


class TestExtendedIsolationForest:
    def test_unfitted_raises(self, rng):
        forest = ExtendedIsolationForest(n_trees=5)
        with pytest.raises(NotFittedError):
            forest.score(np.zeros(3))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ExtendedIsolationForest(n_trees=0)
        with pytest.raises(ValueError):
            ExtendedIsolationForest(subsample=1)

    def test_score_in_unit_interval(self, rng):
        data = rng.normal(size=(300, 3))
        forest = ExtendedIsolationForest(n_trees=20, seed=0).fit(data)
        for point in data[:20]:
            assert 0.0 < forest.score(point) < 1.0

    def test_outlier_scores_higher(self, rng):
        data = rng.normal(size=(400, 2))
        forest = ExtendedIsolationForest(n_trees=50, seed=0).fit(data)
        inlier_scores = [forest.score(p) for p in data[:50]]
        outliers = rng.normal(loc=8.0, size=(20, 2))
        outlier_scores = [forest.score(p) for p in outliers]
        assert np.mean(outlier_scores) > np.mean(inlier_scores) + 0.1

    def test_depths_length(self, rng):
        forest = ExtendedIsolationForest(n_trees=7, seed=0).fit(
            rng.normal(size=(100, 2))
        )
        assert forest.depths(np.zeros(2)).shape == (7,)

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_score_from_depth_monotone(self, psi):
        forest = ExtendedIsolationForest(n_trees=2, subsample=max(psi, 2))
        forest._psi = psi
        scores = [forest.score_from_depth(d) for d in np.linspace(0, 20, 30)]
        assert all(b <= a for a, b in zip(scores, scores[1:]))

    def test_subsample_capped_by_data(self, rng):
        forest = ExtendedIsolationForest(n_trees=3, subsample=1000, seed=0)
        forest.fit(rng.normal(size=(20, 2)))
        assert forest._psi == 20

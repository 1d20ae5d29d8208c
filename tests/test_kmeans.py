"""Tests for the online k-means detector and its clustering primitives."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.models import OnlineKMeans, kmeans_plus_plus, lloyd


@pytest.fixture
def blobs(rng):
    """Three well-separated Gaussian blobs, shape (300, 2)."""
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate(
        [center + rng.normal(scale=0.5, size=(100, 2)) for center in centers]
    )
    rng.shuffle(points)
    return points


class TestKMeansPrimitives:
    def test_plus_plus_returns_k_centroids(self, blobs, rng):
        seeds = kmeans_plus_plus(blobs, 3, rng)
        assert seeds.shape == (3, 2)

    def test_plus_plus_spreads_seeds(self, blobs, rng):
        seeds = kmeans_plus_plus(blobs, 3, rng)
        pairwise = [
            np.linalg.norm(seeds[i] - seeds[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(pairwise) > 3.0  # one seed per blob, almost surely

    def test_plus_plus_handles_duplicates(self, rng):
        data = np.zeros((50, 3))
        seeds = kmeans_plus_plus(data, 4, rng)
        assert seeds.shape == (4, 3)

    def test_lloyd_recovers_blob_centers(self, blobs, rng):
        seeds = kmeans_plus_plus(blobs, 3, rng)
        centroids, assignments = lloyd(blobs, seeds)
        recovered = np.sort(np.round(centroids).astype(int), axis=0)
        expected = np.sort(np.array([[0, 0], [10, 0], [0, 10]]), axis=0)
        np.testing.assert_array_equal(recovered, expected)
        assert len(np.unique(assignments)) == 3

    def test_lloyd_converges_quickly_when_seeded_at_optimum(self, blobs):
        optimum = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        centroids, _ = lloyd(blobs, optimum, max_iter=3)
        np.testing.assert_allclose(centroids, optimum, atol=0.2)


class TestOnlineKMeans:
    def _windows(self, points):
        return np.stack([np.tile(p, (2, 1)) for p in points])

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            OnlineKMeans(k=0)
        with pytest.raises(ConfigurationError):
            OnlineKMeans(max_iter=0)

    def test_score_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            OnlineKMeans().score(np.zeros(4))

    def test_scores_bounded(self, blobs):
        model = OnlineKMeans(k=3, seed=0)
        model.fit(self._windows(blobs))
        for point in blobs[:20]:
            assert 0.0 <= model.score(np.tile(point, (2, 1))) < 1.0

    def test_outlier_scores_higher(self, blobs):
        model = OnlineKMeans(k=3, seed=0)
        model.fit(self._windows(blobs))
        inlier = np.mean([model.score(np.tile(p, (2, 1))) for p in blobs[:30]])
        outlier = model.score(np.tile(np.array([30.0, 30.0]), (2, 1)))
        assert outlier > 0.9
        assert outlier > inlier + 0.4

    def test_k_capped_by_data(self, rng):
        model = OnlineKMeans(k=100, seed=0)
        model.fit(self._windows(rng.normal(size=(10, 2))))
        assert model.centroids.shape[0] == 10

    def test_refit_moves_centroids(self, blobs):
        model = OnlineKMeans(k=3, seed=0)
        model.fit(self._windows(blobs))
        model.fit(self._windows(blobs + 100.0))
        assert model.score(np.tile(blobs[0] + 100.0, (2, 1))) < 0.5
        assert model.score(np.tile(blobs[0], (2, 1))) > 0.9

    def test_dimension_mismatch_rejected(self, blobs):
        model = OnlineKMeans(k=3, seed=0)
        model.fit(self._windows(blobs))
        with pytest.raises(ConfigurationError):
            model.score(np.zeros(5))

    def test_loss_is_mean_distance(self, blobs):
        model = OnlineKMeans(k=3, seed=0)
        assert model.fit(self._windows(blobs)) < 2.0

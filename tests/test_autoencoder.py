"""Tests for the two-layer autoencoder."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.models import TwoLayerAutoencoder


class TestTwoLayerAutoencoder:
    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TwoLayerAutoencoder(window=0, n_channels=3)
        with pytest.raises(ConfigurationError):
            TwoLayerAutoencoder(window=4, n_channels=0)

    def test_predict_before_fit_raises(self):
        model = TwoLayerAutoencoder(window=4, n_channels=2)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((4, 2)))

    def test_wrong_window_shape_rejected(self, small_windows):
        model = TwoLayerAutoencoder(window=8, n_channels=3, epochs=1)
        model.fit(small_windows)
        with pytest.raises(ConfigurationError):
            model.predict(np.zeros((9, 3)))
        with pytest.raises(ConfigurationError):
            model.fit(np.zeros((5, 9, 3)))

    def test_training_reduces_loss(self, small_windows):
        model = TwoLayerAutoencoder(window=8, n_channels=3, epochs=1, seed=0)
        first = model.fit(small_windows, epochs=1)
        last = model.finetune(small_windows, epochs=40)
        assert last < first * 0.8

    def test_reconstruction_quality(self, small_windows):
        model = TwoLayerAutoencoder(window=8, n_channels=3, epochs=60, seed=0)
        model.fit(small_windows)
        window = small_windows[10]
        reconstruction = model.predict(window)
        assert reconstruction.shape == (8, 3)
        correlation = np.corrcoef(window.ravel(), reconstruction.ravel())[0, 1]
        assert correlation > 0.8

    def test_predict_output_in_original_units(self, small_windows):
        # Shift data far from zero; reconstruction must live in that range.
        shifted = small_windows + 100.0
        model = TwoLayerAutoencoder(window=8, n_channels=3, epochs=40, seed=0)
        model.fit(shifted)
        reconstruction = model.predict(shifted[0])
        assert abs(reconstruction.mean() - 100.0) < 5.0

    def test_finetune_without_fit_fits_scaler(self, small_windows):
        model = TwoLayerAutoencoder(window=8, n_channels=3, seed=0)
        model.finetune(small_windows, epochs=1)
        assert model.is_fitted

    def test_deterministic_given_seed(self, small_windows):
        out = []
        for _ in range(2):
            model = TwoLayerAutoencoder(window=8, n_channels=3, epochs=3, seed=42)
            model.fit(small_windows)
            out.append(model.predict(small_windows[0]))
        np.testing.assert_allclose(out[0], out[1])

    def test_custom_hidden_width(self, small_windows):
        model = TwoLayerAutoencoder(window=8, n_channels=3, hidden=5, epochs=1)
        model.fit(small_windows)
        assert model.network[0].out_features == 5

"""Two-layer autoencoder baseline (Section IV-C).

The simplest reconstruction model of the paper: the window is flattened to
a vector of length ``N * w``, passed through one sigmoid hidden layer and
projected back, ``x_hat = r^{-1}(sigma(r(x) W1 + b1) W2 + b2)``.  Inputs
are standardized per channel (fitted at every full :meth:`fit`) so the
sigmoid operates in a sane range regardless of sensor units.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import FeatureVector, FloatArray
from repro import nn
from repro.models.base import (
    Standardizer,
    StreamModel,
    _as_windows,
    fleet_tiled_forward,
    tiled_forward,
)


class TwoLayerAutoencoder(StreamModel):
    """Fully-connected autoencoder with a single sigmoid hidden layer.

    Args:
        window: data representation length ``w``.
        n_channels: stream channel count ``N``.
        hidden: hidden-layer width; defaults to ``max(4, N*w // 4)``.
        lr: Adam learning rate for fine-tuning.
        epochs: default epoch count for a full :meth:`fit`.
        batch_size: minibatch size during training.
        seed: RNG seed for weight initialization and shuffling.
    """

    name = "ae"
    prediction_kind = "reconstruction"

    def __init__(
        self,
        window: int,
        n_channels: int,
        hidden: int | None = None,
        lr: float = 3e-3,
        epochs: int = 20,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if window < 1 or n_channels < 1:
            raise ConfigurationError("window and n_channels must be >= 1")
        self.window = window
        self.n_channels = n_channels
        self.input_dim = window * n_channels
        self.hidden = hidden if hidden is not None else max(4, self.input_dim // 4)
        if self.hidden < 1:
            raise ConfigurationError(f"hidden must be >= 1, got {self.hidden}")
        self.default_epochs = epochs
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        self.network = nn.Sequential(
            nn.Linear(self.input_dim, self.hidden, self._rng),
            nn.Sigmoid(),
            nn.Linear(self.hidden, self.input_dim, self._rng),
        )
        self._optimizer = nn.Adam(list(self.network.parameters()), lr=lr)
        self.scaler = Standardizer()

    # ------------------------------------------------------------------
    def fit(self, windows: FloatArray, epochs: int | None = None) -> float:
        """Train on the standardized, flattened windows with Adam."""
        windows = self._check(windows)
        self.scaler.fit(windows)
        return self._train(windows, epochs or self.default_epochs)

    def finetune(self, windows: FloatArray, epochs: int = 1) -> float:
        """Continue training from current weights (scaler left unchanged)."""
        windows = self._check(windows)
        if not self.scaler.is_fitted:
            self.scaler.fit(windows)
        return self._train(windows, epochs)

    def _train(self, windows: FloatArray, epochs: int) -> float:
        flat = self.scaler.transform(windows).reshape(len(windows), -1)
        starts = range(0, len(flat), self.batch_size)
        epoch_losses = np.empty(len(starts))
        last_loss = float("nan")
        for _ in range(max(epochs, 1)):
            order = self._rng.permutation(len(flat))
            for b, start in enumerate(starts):
                batch = flat[order[start : start + self.batch_size]]
                self._optimizer.zero_grad()
                output = self.network(batch)
                epoch_losses[b] = nn.mse_loss(output, batch)
                self.network.backward(nn.mse_loss_grad(output, batch))
                self._optimizer.step()
            last_loss = float(np.mean(epoch_losses))
        self._fitted = True
        return last_loss

    def predict(self, x: FeatureVector) -> FloatArray:
        """Reconstruct one window; returns shape ``(w, N)`` in original units."""
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.window, self.n_channels):
            raise ConfigurationError(
                f"expected window shape {(self.window, self.n_channels)}, got {x.shape}"
            )
        flat = self.scaler.transform(x).reshape(1, -1)
        output = self.network(flat).reshape(self.window, self.n_channels)
        return self.scaler.inverse(output)

    def predict_batch(self, X: FloatArray) -> FloatArray:
        """Reconstruct a ``(B, w, N)`` block of windows in one tiled pass."""
        self._require_fitted()
        X = self._check(X)
        flat = self.scaler.transform(X).reshape(len(X), -1)
        output = tiled_forward(self.network, flat)
        return self.scaler.inverse(
            output.reshape(len(X), self.window, self.n_channels)
        )

    def _check(self, windows: FloatArray) -> FloatArray:
        windows = _as_windows(windows)
        if windows.shape[1:] != (self.window, self.n_channels):
            raise ConfigurationError(
                f"expected windows of shape (*, {self.window}, {self.n_channels}), "
                f"got {windows.shape}"
            )
        return windows

    # ------------------------------------------------------------------
    def fleet_modules(self) -> tuple:
        return (self.network,)

    @classmethod
    def fleet_predict_batch(
        cls, models: list, mirror: tuple, windows_list: list
    ) -> list:
        (network,) = mirror
        flats = [
            model.scaler.transform(X).reshape(len(X), model.input_dim)
            for model, X in zip(models, windows_list)
        ]
        outputs = fleet_tiled_forward(network, flats)
        return [
            model.scaler.inverse(
                rows.reshape(len(X), model.window, model.n_channels)
            )
            for model, rows, X in zip(models, outputs, windows_list)
        ]

    @classmethod
    def fleet_finetune(
        cls, models: list, windows_list: list, epochs: int
    ) -> list[float] | None:
        """Session-axis fused :meth:`finetune` of K autoencoders.

        Replays the exact `_train` minibatch sequence on ``(K, B, F)``
        stacks: one RNG permutation per session per epoch (drawn from the
        session's own generator), fancy-gathered minibatches, one fused
        forward/backward per minibatch and an :class:`~repro.nn.AdamLane`
        step.  All state flows back through scratch-arena/lane writeback
        only after the full loop, so a ``None`` (unfusable) return leaves
        every model untouched.
        """
        first = models[0]
        n = len(windows_list[0])
        if (
            n == 0
            or any(len(w) != n for w in windows_list)
            or any(not m.scaler.is_fitted for m in models)
            or any(m.batch_size != first.batch_size for m in models)
        ):
            return None
        try:
            windows_list = [m._check(w) for m, w in zip(models, windows_list)]
            arena = nn.ParameterArena(
                [m.fleet_modules() for m in models], attach=False
            )
            lane = nn.AdamLane([m._optimizer for m in models], arena)
        except (ConfigurationError, ValueError, KeyError):
            return None
        (network,) = arena.mirror
        flat = np.stack(
            [
                m.scaler.transform(w).reshape(n, -1)
                for m, w in zip(models, windows_list)
            ]
        )
        rows = np.arange(len(models))[:, None]
        starts = range(0, n, first.batch_size)
        epoch_losses = np.empty((len(models), len(starts)))
        for _ in range(max(epochs, 1)):
            orders = np.stack([m._rng.permutation(n) for m in models])
            for b, start in enumerate(starts):
                batch = flat[rows, orders[:, start : start + first.batch_size]]
                lane.zero_grad()
                output = network(batch)
                for k in range(len(models)):
                    epoch_losses[k, b] = nn.mse_loss(output[k], batch[k])
                network.backward(nn.fleet_mse_loss_grad(output, batch))
                lane.step()
            last = epoch_losses.mean(axis=1)
        arena.writeback()
        lane.writeback()
        for model in models:
            model._fitted = True
        return [float(x) for x in last]

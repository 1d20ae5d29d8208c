"""N-BEATS: neural basis expansion for time-series forecasting (Oreshkin et al.).

Each block maps the current residual input through a fully-connected stack
to two coefficient vectors ``theta_b`` / ``theta_f`` that are expanded over
backcast/forecast basis vectors.  Blocks are wired with double residual
connections: block ``l+1`` consumes ``u_l - backcast_l`` while the final
forecast is the sum of all block forecasts.

In the paper's streaming scenario the model forecasts ``s_t`` (one stream
vector, ``N`` values) from the preceding ``w - 1`` stream vectors of the
data representation.

Three basis families are provided:

- ``"generic"`` — learnable linear expansion (the default, as in the
  generic N-BEATS configuration);
- ``"trend"`` — fixed low-degree polynomial basis;
- ``"seasonality"`` — fixed Fourier basis.

The fixed bases make the coefficients interpretable as trend/seasonality
strengths (Section IV-C's interpretability remark).
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


def trend_basis(theta_per_channel: int, length: int, n_channels: int) -> FloatArray:
    """Polynomial basis matrix of shape ``(theta_per_channel * N, length * N)``.

    Row ``i`` of the per-channel block evaluates ``(t / length)^i`` over the
    ``length`` output positions; channels are laid out block-diagonally so a
    single matmul expands all of them.
    """
    grid = np.arange(length, dtype=np.float64) / max(length, 1)
    per_channel = np.stack([grid**i for i in range(theta_per_channel)])
    return np.kron(per_channel, np.eye(n_channels)).reshape(
        theta_per_channel * n_channels, length * n_channels
    )


def seasonality_basis(
    harmonics: int, length: int, n_channels: int
) -> FloatArray:
    """Fourier basis with ``harmonics`` cos/sin pairs plus a constant term."""
    grid = np.arange(length, dtype=np.float64) / max(length, 1)
    rows = [np.ones_like(grid)]
    for harmonic in range(1, harmonics + 1):
        rows.append(np.cos(2 * np.pi * harmonic * grid))
        rows.append(np.sin(2 * np.pi * harmonic * grid))
    per_channel = np.stack(rows)
    return np.kron(per_channel, np.eye(n_channels)).reshape(
        per_channel.shape[0] * n_channels, length * n_channels
    )


class _FixedBasis(nn.Module):
    """Expansion over a fixed matrix ``V``: ``out = theta @ V``."""

    def __init__(self, matrix: FloatArray) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)

    @property
    def theta_dim(self) -> int:
        return int(self.matrix.shape[0])

    def forward(self, theta: FloatArray) -> FloatArray:
        return theta @ self.matrix

    def backward(self, grad: FloatArray) -> FloatArray:
        return grad @ self.matrix.T


class _GenericBasis(nn.Module):
    """Learnable expansion: a bias-free linear layer over theta."""

    def __init__(self, theta_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.linear = nn.Linear(theta_dim, out_dim, rng)
        self.linear.bias.value[...] = 0.0

    @property
    def theta_dim(self) -> int:
        return int(self.linear.in_features)

    def forward(self, theta: FloatArray) -> FloatArray:
        return self.linear(theta)

    def backward(self, grad: FloatArray) -> FloatArray:
        return self.linear.backward(grad)


def _nbeats_forward(
    blocks: list, inputs: FloatArray, forecast_dim: int
) -> FloatArray:
    """Residual block wiring shared by per-session and fleet forwards."""
    residual = inputs
    forecast = np.zeros(inputs.shape[:-1] + (forecast_dim,))
    for block in blocks:
        backcast, block_forecast = block.forward(residual)
        residual = residual - backcast
        forecast = forecast + block_forecast
    return forecast


def _nbeats_backward(
    blocks: list, grad_forecast: FloatArray, backcast_dim: int
) -> None:
    """Backprop through the residual wiring, shape-agnostic over leading axes.

    With ``u_{l+1} = u_l - b_l`` and ``y = sum_l f_l``:
    ``dL/db_l = -dL/du_{l+1}`` and ``dL/du_l = dL/du_{l+1} +
    block_backward``.  The gradient w.r.t. the residual after the last
    block is zero because nothing consumes it.
    """
    grad_residual = np.zeros(grad_forecast.shape[:-1] + (backcast_dim,))
    for block in reversed(blocks):
        grad_input = block.backward_both(-grad_residual, grad_forecast)
        grad_residual = grad_residual + grad_input


class NBeatsBlock(nn.Module):
    """One N-BEATS block producing a backcast and a forecast."""

    def __init__(
        self,
        input_dim: int,
        hidden: int,
        backcast_basis: nn.Module,
        forecast_basis: nn.Module,
        rng: np.random.Generator,
    ) -> None:
        self.fc = nn.Sequential(
            nn.Linear(input_dim, hidden, rng, init="he"),
            nn.ReLU(),
            nn.Linear(hidden, hidden, rng, init="he"),
            nn.ReLU(),
        )
        self.theta_b_layer = nn.Linear(hidden, backcast_basis.theta_dim, rng)
        self.theta_f_layer = nn.Linear(hidden, forecast_basis.theta_dim, rng)
        self.backcast_basis = backcast_basis
        self.forecast_basis = forecast_basis

    def forward(self, u: FloatArray) -> tuple[FloatArray, FloatArray]:
        hidden = self.fc(u)
        theta_b = self.theta_b_layer(hidden)
        theta_f = self.theta_f_layer(hidden)
        backcast = self.backcast_basis(theta_b)
        forecast = self.forecast_basis(theta_f)
        return backcast, forecast

    def backward_both(
        self, grad_backcast: FloatArray, grad_forecast: FloatArray
    ) -> FloatArray:
        """Backprop given gradients w.r.t. both outputs; returns ``dL/du``."""
        grad_theta_b = self.backcast_basis.backward(grad_backcast)
        grad_theta_f = self.forecast_basis.backward(grad_forecast)
        grad_hidden = self.theta_b_layer.backward(grad_theta_b)
        grad_hidden = grad_hidden + self.theta_f_layer.backward(grad_theta_f)
        return self.fc.backward(grad_hidden)


class NBeats(StreamModel):
    """N-BEATS forecaster for the streaming framework.

    Args:
        window: data representation length ``w``; the model consumes the
            first ``w - 1`` rows and forecasts the final one.
        n_channels: stream channel count ``N``.
        stack_types: basis family per block, e.g. ``("generic", "generic")``
            or ``("trend", "seasonality")``.
        hidden: width of each block's FC stack.
        theta_dim: coefficient count per block for generic bases; trend uses
            ``degree + 1 = 3`` and seasonality ``2 * harmonics + 1``
            per-channel coefficients instead.
        lr: Adam learning rate.
        epochs: default epoch count for a full :meth:`fit`.
        batch_size: minibatch size.
        seed: RNG seed.
    """

    name = "nbeats"
    prediction_kind = "forecast"

    def __init__(
        self,
        window: int,
        n_channels: int,
        stack_types: tuple[str, ...] = ("generic", "generic"),
        hidden: int = 32,
        theta_dim: int = 8,
        trend_degree: int = 2,
        harmonics: int = 3,
        lr: float = 1e-3,
        epochs: int = 20,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if not stack_types:
            raise ConfigurationError("need at least one block")
        self.window = window
        self.n_channels = n_channels
        self.backcast_dim = (window - 1) * n_channels
        self.forecast_dim = n_channels
        self.default_epochs = epochs
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

        self.blocks: list[NBeatsBlock] = []
        for kind in stack_types:
            back, fore = self._make_bases(kind, theta_dim, trend_degree, harmonics)
            self.blocks.append(
                NBeatsBlock(self.backcast_dim, hidden, back, fore, self._rng)
            )
        parameters = [p for block in self.blocks for p in block.parameters()]
        self._optimizer = nn.Adam(parameters, lr=lr)
        self.scaler = Standardizer()

    def _make_bases(
        self, kind: str, theta_dim: int, trend_degree: int, harmonics: int
    ) -> tuple[nn.Module, nn.Module]:
        backcast_len = self.window - 1
        if kind == "generic":
            return (
                _GenericBasis(theta_dim, self.backcast_dim, self._rng),
                _GenericBasis(theta_dim, self.forecast_dim, self._rng),
            )
        if kind == "trend":
            return (
                _FixedBasis(trend_basis(trend_degree + 1, backcast_len, self.n_channels)),
                _FixedBasis(trend_basis(trend_degree + 1, 1, self.n_channels)),
            )
        if kind == "seasonality":
            return (
                _FixedBasis(
                    seasonality_basis(harmonics, backcast_len, self.n_channels)
                ),
                _FixedBasis(seasonality_basis(harmonics, 1, self.n_channels)),
            )
        raise ConfigurationError(
            f"unknown stack type {kind!r}; expected generic/trend/seasonality"
        )

    def parameters(self):
        for block in self.blocks:
            yield from block.parameters()

    # ------------------------------------------------------------------
    def _forward(self, inputs: FloatArray) -> FloatArray:
        """Residually-wired forward pass; returns the summed forecast.

        Shape-agnostic over leading axes so the same code serves plain
        ``(B, F)`` batches, ``(T, tile, F)`` stacked tiles and
        ``(K, T, tile, F)`` fleet stacks.
        """
        return _nbeats_forward(self.blocks, inputs, self.forecast_dim)

    def _backward(self, grad_forecast: FloatArray) -> None:
        """Backprop through the residual wiring (see :func:`_nbeats_backward`)."""
        _nbeats_backward(self.blocks, grad_forecast, self.backcast_dim)

    # ------------------------------------------------------------------
    def fit(self, windows: FloatArray, epochs: int | None = None) -> float:
        windows = self._check(windows)
        self.scaler.fit(windows)
        return self._train(windows, epochs or self.default_epochs)

    def finetune(self, windows: FloatArray, epochs: int = 1) -> float:
        windows = self._check(windows)
        if not self.scaler.is_fitted:
            self.scaler.fit(windows)
        return self._train(windows, epochs)

    def _train(self, windows: FloatArray, epochs: int) -> float:
        scaled = self.scaler.transform(windows)
        inputs = scaled[:, :-1, :].reshape(len(scaled), -1)
        targets = scaled[:, -1, :]
        starts = range(0, len(inputs), self.batch_size)
        losses = np.empty(len(starts))
        last_loss = float("nan")
        for _ in range(max(epochs, 1)):
            order = self._rng.permutation(len(inputs))
            for b, start in enumerate(starts):
                idx = order[start : start + self.batch_size]
                batch_in, batch_target = inputs[idx], targets[idx]
                for block in self.blocks:
                    block.zero_grad()
                forecast = self._forward(batch_in)
                losses[b] = nn.mse_loss(forecast, batch_target)
                self._backward(nn.mse_loss_grad(forecast, batch_target))
                self._optimizer.step()
            last_loss = float(np.mean(losses))
        self._fitted = True
        return last_loss

    def predict(self, x: FeatureVector) -> FloatArray:
        """Forecast ``s_t`` from the window's first ``w - 1`` rows."""
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.window, self.n_channels):
            raise ConfigurationError(
                f"expected window shape {(self.window, self.n_channels)}, got {x.shape}"
            )
        scaled = self.scaler.transform(x)
        inputs = scaled[:-1].reshape(1, -1)
        forecast = self._forward(inputs)[0]
        return self.scaler.inverse(forecast)

    def predict_batch(self, X: FloatArray) -> FloatArray:
        """Forecast for a ``(B, w, N)`` block in one tiled residual pass."""
        self._require_fitted()
        X = self._check(X)
        scaled = self.scaler.transform(X)
        inputs = scaled[:, :-1, :].reshape(len(X), -1)
        forecasts = tiled_forward(self._forward, inputs)
        return self.scaler.inverse(forecasts)

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
        return tuple(self.blocks)

    @classmethod
    def fleet_predict_batch(
        cls, models: list, mirror: tuple, windows_list: list
    ) -> list:
        forecast_dim = models[0].forecast_dim
        inputs_list = [
            model.scaler.transform(X)[:, :-1, :].reshape(len(X), model.backcast_dim)
            for model, X in zip(models, windows_list)
        ]
        forecasts = fleet_tiled_forward(
            lambda stacked: _nbeats_forward(list(mirror), stacked, forecast_dim),
            inputs_list,
        )
        return [
            model.scaler.inverse(rows)
            for model, rows in zip(models, forecasts)
        ]

    @classmethod
    def fleet_finetune(
        cls, models: list, windows_list: list, epochs: int
    ) -> list[float] | None:
        """Session-axis fused :meth:`finetune` of K N-BEATS models.

        The residual forward/backward wiring is shape-agnostic over
        leading axes, so the per-session minibatch loop runs unchanged on
        ``(K, B, F)`` stacks through the arena mirror blocks; fixed basis
        matrices are shared 2-D constants that broadcast over the session
        axis.
        """
        first = models[0]
        n = len(windows_list[0])
        if (
            n == 0
            or any(len(w) != n for w in windows_list)
            or any(not m.scaler.is_fitted for m in models)
            or any(m.batch_size != first.batch_size for m in models)
            or any(
                m.forecast_dim != first.forecast_dim
                or m.backcast_dim != first.backcast_dim
                for m in models
            )
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
        blocks = list(arena.mirror)
        scaled = [m.scaler.transform(w) for m, w in zip(models, windows_list)]
        inputs = np.stack([s[:, :-1, :].reshape(n, -1) for s in scaled])
        targets = np.stack([s[:, -1, :] for s in scaled])
        rows = np.arange(len(models))[:, None]
        starts = range(0, n, first.batch_size)
        losses = np.empty((len(models), len(starts)))
        for _ in range(max(epochs, 1)):
            orders = np.stack([m._rng.permutation(n) for m in models])
            for b, start in enumerate(starts):
                idx = orders[:, start : start + first.batch_size]
                batch_in, batch_target = inputs[rows, idx], targets[rows, idx]
                arena.zero_grad()
                forecast = _nbeats_forward(blocks, batch_in, first.forecast_dim)
                for k in range(len(models)):
                    losses[k, b] = nn.mse_loss(forecast[k], batch_target[k])
                _nbeats_backward(
                    blocks,
                    nn.fleet_mse_loss_grad(forecast, batch_target),
                    first.backcast_dim,
                )
                lane.step()
            last = losses.mean(axis=1)
        arena.writeback()
        lane.writeback()
        for model in models:
            model._fitted = True
        return [float(x) for x in last]

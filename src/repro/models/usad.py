"""USAD: unsupervised anomaly detection with adversarially trained autoencoders.

Following Audibert et al. (2020) as summarised in Section IV-C: one
encoder ``E`` feeds two decoders ``D1``/``D2``.  With ``AE_i = D_i o E``
the phase losses at epoch ``n`` (1-indexed over the model's lifetime) are

    L_AE1 = (1/n) ||x - AE1(x)||^2 + (1 - 1/n) ||x - AE2(AE1(x))||^2
    L_AE2 = (1/n) ||x - AE2(x)||^2 - (1 - 1/n) ||x - AE2(AE1(x))||^2

so the pure reconstruction term fades in favour of the adversarial game:
``AE2`` learns to distinguish real windows from ``AE1`` reconstructions
while ``AE1`` learns to fool it.

Implementation notes: the encoder (and second decoder) appear multiple
times inside one loss; to keep the manual-backprop caches sound each extra
application uses a :func:`~repro.nn.share.shared_copy` that shares the
parameters but owns its activation cache.  As in common reimplementations,
phase 2 feeds ``AE1``'s reconstruction in *detached* form (no gradient
back into ``AE1``).
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.types import FeatureVector, FloatArray
from repro import nn
from repro.nn.share import shared_copy, unique_parameters
from repro.models.base import (
    MinMaxScaler,
    StreamModel,
    _as_windows,
    fleet_tiled_forward,
    tiled_forward,
)


def _encoder(input_dim: int, latent_dim: int, rng: np.random.Generator) -> nn.Sequential:
    # Hidden widths track the bottleneck and are capped relative to it so
    # wide streams (e.g. 38 channels x window 16 = 608 inputs) do not
    # produce multi-million-parameter stacks.
    wide = min(max(2 * latent_dim, input_dim, 4), 4 * latent_dim)
    mid = min(max(2 * latent_dim, input_dim // 2, 4), 3 * latent_dim)
    return nn.Sequential(
        nn.Linear(input_dim, wide, rng),
        nn.Tanh(),
        nn.Linear(wide, mid, rng),
        nn.Tanh(),
        nn.Linear(mid, latent_dim, rng),
        nn.Tanh(),
    )


def _decoder(latent_dim: int, output_dim: int, rng: np.random.Generator) -> nn.Sequential:
    mid = min(max(2 * latent_dim, output_dim // 2, 4), 3 * latent_dim)
    wide = min(max(2 * latent_dim, output_dim, 4), 4 * latent_dim)
    return nn.Sequential(
        nn.Linear(latent_dim, mid, rng),
        nn.Tanh(),
        nn.Linear(mid, wide, rng),
        nn.Tanh(),
        nn.Linear(wide, output_dim, rng),
        nn.Sigmoid(),
    )


class USAD(StreamModel):
    """Adversarial autoencoder pair with a shared encoder.

    Args:
        window: data representation length ``w``.
        n_channels: stream channel count ``N``.
        latent_dim: bottleneck size ``Z`` (paper requires ``Z << w``);
            defaults to half the flattened input, capped at 64 so wide
            streams do not blow up the parameter count.
        lr: Adam learning rate (two optimizers, one per phase).
        epochs: default epoch count for a full :meth:`fit`.
        batch_size: minibatch size.
        blend: inference blend ``x_hat = (1-blend)*AE1(x) + blend*AE2(AE1(x))``;
            small values favour the plain reconstruction, which predicts
            better, while keeping some adversarial sharpening.
        seed: RNG seed.
    """

    name = "usad"
    prediction_kind = "reconstruction"

    def __init__(
        self,
        window: int,
        n_channels: int,
        latent_dim: int | None = None,
        lr: float = 5e-3,
        epochs: int = 30,
        batch_size: int = 32,
        blend: float = 0.25,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if window < 1 or n_channels < 1:
            raise ConfigurationError("window and n_channels must be >= 1")
        if not 0.0 <= blend <= 1.0:
            raise ConfigurationError(f"blend must be in [0, 1], got {blend}")
        self.window = window
        self.n_channels = n_channels
        self.input_dim = window * n_channels
        self.latent_dim = (
            latent_dim
            if latent_dim is not None
            else min(64, max(8, self.input_dim // 2))
        )
        if self.latent_dim < 1:
            raise ConfigurationError(f"latent_dim must be >= 1, got {self.latent_dim}")
        self.default_epochs = epochs
        self.batch_size = batch_size
        self.blend = blend
        self._rng = np.random.default_rng(seed)

        self.encoder = _encoder(self.input_dim, self.latent_dim, self._rng)
        self.decoder1 = _decoder(self.latent_dim, self.input_dim, self._rng)
        self.decoder2 = _decoder(self.latent_dim, self.input_dim, self._rng)
        # Parameter-sharing copies for the second applications inside a pass.
        self._encoder_b = shared_copy(self.encoder)
        self._decoder2_b = shared_copy(self.decoder2)

        self._opt1 = nn.Adam(
            unique_parameters(self.encoder, self.decoder1), lr=lr
        )
        self._opt2 = nn.Adam(
            unique_parameters(self.encoder, self.decoder2), lr=lr
        )
        self.scaler = MinMaxScaler()
        self._lifetime_epoch = 0

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

    def _zero_all(self) -> None:
        for module in (self.encoder, self.decoder1, self.decoder2):
            module.zero_grad()

    def _train(self, windows: FloatArray, epochs: int) -> float:
        flat = self.scaler.transform(windows).reshape(len(windows), -1)
        starts = range(0, len(flat), self.batch_size)
        losses = np.empty(len(starts))
        last_loss = float("nan")
        for _ in range(max(epochs, 1)):
            self._lifetime_epoch += 1
            n = self._lifetime_epoch
            alpha = 1.0 / n
            beta = 1.0 - alpha
            order = self._rng.permutation(len(flat))
            for b, start in enumerate(starts):
                batch = flat[order[start : start + self.batch_size]]
                losses[b] = self._train_batch(batch, alpha, beta)
            last_loss = float(np.mean(losses))
        self._fitted = True
        return last_loss

    def _train_batch(self, batch: FloatArray, alpha: float, beta: float) -> float:
        # ---------------- phase 1: train AE1 = D1 o E -------------------
        self._zero_all()
        latent = self.encoder(batch)
        w1 = self.decoder1(latent)
        w3 = self._decoder2_b(self._encoder_b(w1))
        loss1 = alpha * nn.mse_loss(w1, batch) + beta * nn.mse_loss(w3, batch)
        # dL/dw3 flows back through the shared D2/E copies into w1.
        grad_w1 = alpha * nn.mse_loss_grad(w1, batch)
        grad_w1 += self._encoder_b.backward(
            self._decoder2_b.backward(beta * nn.mse_loss_grad(w3, batch))
        )
        self.encoder.backward(self.decoder1.backward(grad_w1))
        self._opt1.step()

        # ---------------- phase 2: train AE2 = D2 o E -------------------
        self._zero_all()
        # Detached AE1 reconstruction: recompute without keeping gradients.
        w1_detached = self.decoder1(self.encoder(batch))
        self._zero_all()
        latent2 = self.encoder(batch)
        w2 = self.decoder2(latent2)
        w3b = self._decoder2_b(self._encoder_b(w1_detached))
        loss2 = alpha * nn.mse_loss(w2, batch) - beta * nn.mse_loss(w3b, batch)
        self.encoder.backward(
            self.decoder2.backward(alpha * nn.mse_loss_grad(w2, batch))
        )
        self._encoder_b.backward(
            self._decoder2_b.backward(-beta * nn.mse_loss_grad(w3b, batch))
        )
        self._opt2.step()
        return float(loss1 + loss2)

    # ------------------------------------------------------------------
    def reconstructions(self, x: FeatureVector) -> tuple[FloatArray, FloatArray]:
        """Return ``(AE1(x), AE2(AE1(x)))`` in original units."""
        self._require_fitted()
        flat = self.scaler.transform(np.asarray(x, dtype=np.float64)).reshape(1, -1)
        w1 = self.decoder1(self.encoder(flat))
        w3 = self.decoder2(self.encoder(w1))
        shape = (self.window, self.n_channels)
        return (
            self.scaler.inverse(w1.reshape(shape)),
            self.scaler.inverse(w3.reshape(shape)),
        )

    def reconstructions_batch(
        self, X: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Batched :meth:`reconstructions` over ``(B, w, N)`` windows."""
        self._require_fitted()
        X = self._check(X)
        flat = self.scaler.transform(X).reshape(len(X), -1)
        w1 = tiled_forward(lambda tile: self.decoder1(self.encoder(tile)), flat)
        w3 = tiled_forward(lambda tile: self.decoder2(self.encoder(tile)), w1)
        shape = (len(X), self.window, self.n_channels)
        return (
            self.scaler.inverse(w1.reshape(shape)),
            self.scaler.inverse(w3.reshape(shape)),
        )

    def predict(self, x: FeatureVector) -> FloatArray:
        """Blended reconstruction used by the cosine nonconformity measure."""
        w1, w3 = self.reconstructions(x)
        return (1.0 - self.blend) * w1 + self.blend * w3

    def predict_batch(self, X: FloatArray) -> FloatArray:
        w1, w3 = self.reconstructions_batch(X)
        return (1.0 - self.blend) * w1 + self.blend * w3

    def usad_score(self, x: FeatureVector, alpha: float = 0.5) -> float:
        """The original USAD anomaly score ``a*||x-AE1||^2 + (1-a)*||x-AE2(AE1)||^2``.

        Provided for completeness; the paper's pipeline uses the cosine
        nonconformity on :meth:`predict` instead.
        """
        x = np.asarray(x, dtype=np.float64)
        w1, w3 = self.reconstructions(x)
        return float(
            alpha * np.mean((x - w1) ** 2) + (1.0 - alpha) * np.mean((x - w3) ** 2)
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
        # The shared copies reuse encoder/decoder2 Parameter objects, so
        # the arena maps all five trees onto three stacked weight sets.
        return (
            self.encoder,
            self.decoder1,
            self.decoder2,
            self._encoder_b,
            self._decoder2_b,
        )

    @classmethod
    def fleet_predict_batch(
        cls, models: list, mirror: tuple, windows_list: list
    ) -> list:
        encoder, decoder1, decoder2, _, _ = mirror
        flats = [
            model.scaler.transform(X).reshape(len(X), model.input_dim)
            for model, X in zip(models, windows_list)
        ]
        # Two stacked passes, mirroring reconstructions_batch: AE1 over
        # the inputs, then AE2 over AE1's reconstructions.
        w1_list = fleet_tiled_forward(
            lambda stacked: decoder1(encoder(stacked)), flats
        )
        w3_list = fleet_tiled_forward(
            lambda stacked: decoder2(encoder(stacked)), w1_list
        )
        results = []
        for model, w1, w3, X in zip(models, w1_list, w3_list, windows_list):
            shape = (len(X), model.window, model.n_channels)
            r1 = model.scaler.inverse(w1.reshape(shape))
            r3 = model.scaler.inverse(w3.reshape(shape))
            results.append((1.0 - model.blend) * r1 + model.blend * r3)
        return results

    @classmethod
    def fleet_finetune(
        cls, models: list, windows_list: list, epochs: int
    ) -> list[float] | None:
        """Session-axis fused :meth:`finetune` of K USAD models.

        The two-phase adversarial batch sequence of ``_train_batch`` is
        replayed verbatim on ``(K, B, F)`` stacks through the arena
        mirror; the per-session phase weights ``alpha = 1/n`` (sessions
        may be at different lifetime epochs) broadcast as ``(K, 1, 1)``
        columns, and each phase steps its own :class:`~repro.nn.AdamLane`.
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
            lane1 = nn.AdamLane([m._opt1 for m in models], arena)
            lane2 = nn.AdamLane([m._opt2 for m in models], arena)
        except (ConfigurationError, ValueError, KeyError):
            return None
        encoder, decoder1, decoder2, encoder_b, decoder2_b = arena.mirror
        n_models = len(models)
        flat = np.stack(
            [
                m.scaler.transform(w).reshape(n, -1)
                for m, w in zip(models, windows_list)
            ]
        )
        rows = np.arange(n_models)[:, None]
        starts = range(0, n, first.batch_size)
        losses = np.empty((n_models, len(starts)))
        loss1 = [0.0] * n_models
        for _ in range(max(epochs, 1)):
            alpha = []
            for m in models:
                m._lifetime_epoch += 1
                alpha.append(1.0 / m._lifetime_epoch)
            beta = [1.0 - a for a in alpha]
            a3 = np.array(alpha)[:, None, None]
            b3 = np.array(beta)[:, None, None]
            orders = np.stack([m._rng.permutation(n) for m in models])
            for b, start in enumerate(starts):
                batch = flat[rows, orders[:, start : start + first.batch_size]]
                # ------------- phase 1: train AE1 = D1 o E ---------------
                arena.zero_grad()
                latent = encoder(batch)
                w1 = decoder1(latent)
                w3 = decoder2_b(encoder_b(w1))
                for k in range(n_models):
                    loss1[k] = alpha[k] * nn.mse_loss(w1[k], batch[k]) + beta[
                        k
                    ] * nn.mse_loss(w3[k], batch[k])
                grad_w1 = a3 * nn.fleet_mse_loss_grad(w1, batch)
                grad_w1 += encoder_b.backward(
                    decoder2_b.backward(b3 * nn.fleet_mse_loss_grad(w3, batch))
                )
                encoder.backward(decoder1.backward(grad_w1))
                lane1.step()

                # ------------- phase 2: train AE2 = D2 o E ---------------
                arena.zero_grad()
                w1_detached = decoder1(encoder(batch))
                arena.zero_grad()
                latent2 = encoder(batch)
                w2 = decoder2(latent2)
                w3b = decoder2_b(encoder_b(w1_detached))
                encoder.backward(
                    decoder2.backward(a3 * nn.fleet_mse_loss_grad(w2, batch))
                )
                encoder_b.backward(
                    decoder2_b.backward(
                        (-b3) * nn.fleet_mse_loss_grad(w3b, batch)
                    )
                )
                lane2.step()
                for k in range(n_models):
                    loss2 = alpha[k] * nn.mse_loss(w2[k], batch[k]) - beta[
                        k
                    ] * nn.mse_loss(w3b[k], batch[k])
                    losses[k, b] = float(loss1[k] + loss2)
            last = losses.mean(axis=1)
        arena.writeback()
        lane1.writeback()
        lane2.writeback()
        for model in models:
            model._fitted = True
        return [float(x) for x in last]

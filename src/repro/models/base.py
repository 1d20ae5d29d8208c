"""Base interface shared by all five ML models of the paper.

Every model consumes a *training set* of feature vectors — an array of
shape ``(n, w, N)``: ``n`` windows of ``w`` stream vectors with ``N``
channels — and produces per-window predictions whose kind determines how
the nonconformity measure compares them to the observed data:

- ``"reconstruction"`` — the model reproduces the whole window
  (autoencoder, USAD): ``predict(x)`` has shape ``(w, N)``;
- ``"forecast"`` — the model forecasts the newest stream vector ``s_t``
  from the preceding ``w - 1`` rows (Online ARIMA, VAR, N-BEATS):
  ``predict(x)`` has shape ``(N,)``;
- ``"score"`` — the model directly outputs a nonconformity score in
  ``[0, 1]`` (PCB-iForest): use :meth:`StreamModel.score`.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import NotFittedError
from repro.core.types import FeatureVector, FloatArray


class Standardizer:
    """Per-channel standardization fitted on a training set of windows.

    Neural models are sensitive to input scale; this transformer is fitted
    once per :meth:`StreamModel.fit` call so models always train and
    predict in standardized space while the framework exchanges values in
    original units.
    """

    def __init__(self) -> None:
        self.mean: FloatArray | None = None
        self.std: FloatArray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.mean is not None

    def fit(self, windows: FloatArray) -> "Standardizer":
        """Fit channel means/stds from a ``(n, w, N)`` array of windows."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ValueError(f"expected (n, w, N) windows, got shape {windows.shape}")
        flat = windows.reshape(-1, windows.shape[-1])
        self.mean = flat.mean(axis=0)
        self.std = np.maximum(flat.std(axis=0), 1e-8)
        return self

    def transform(self, values: FloatArray) -> FloatArray:
        """Standardize an array whose last axis is the channel axis."""
        if self.mean is None or self.std is None:
            raise NotFittedError("Standardizer used before fit")
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse(self, values: FloatArray) -> FloatArray:
        """Map standardized values back to original units."""
        if self.mean is None or self.std is None:
            raise NotFittedError("Standardizer used before fit")
        return np.asarray(values, dtype=np.float64) * self.std + self.mean


class MinMaxScaler:
    """Per-channel min-max scaling to ``[0, 1]`` fitted on windows.

    USAD bounds its adversarial game by keeping data and (sigmoid) decoder
    outputs in the unit interval; values outside the fitted range are
    clipped with a small ``margin`` of slack so mild drift does not
    saturate immediately.
    """

    def __init__(self, margin: float = 0.5) -> None:
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.margin = margin
        self.low: FloatArray | None = None
        self.span: FloatArray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.low is not None

    def fit(self, windows: FloatArray) -> "MinMaxScaler":
        """Fit channel ranges from a ``(n, w, N)`` array of windows."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ValueError(f"expected (n, w, N) windows, got shape {windows.shape}")
        flat = windows.reshape(-1, windows.shape[-1])
        low = flat.min(axis=0)
        high = flat.max(axis=0)
        slack = self.margin * np.maximum(high - low, 1e-8)
        self.low = low - slack
        self.span = np.maximum(high + slack - self.low, 1e-8)
        return self

    def transform(self, values: FloatArray) -> FloatArray:
        """Scale into ``[0, 1]``, clipping out-of-range values."""
        if self.low is None or self.span is None:
            raise NotFittedError("MinMaxScaler used before fit")
        scaled = (np.asarray(values, dtype=np.float64) - self.low) / self.span
        return np.clip(scaled, 0.0, 1.0)

    def inverse(self, values: FloatArray) -> FloatArray:
        """Map unit-interval values back to original units."""
        if self.low is None or self.span is None:
            raise NotFittedError("MinMaxScaler used before fit")
        return np.asarray(values, dtype=np.float64) * self.span + self.low


#: Fixed row count of every batched linear-algebra GEMM slice (see
#: :func:`tiled_forward`).  Every slice of the stacked
#: ``(T, BATCH_TILE, F)`` matmul runs the same kernel, which is what
#: makes batched inference chunk-invariant.  Tile size 1 computes each
#: row as its own ``(1, F) @ (F, H)`` product — bitwise identical to the
#: single-window ``predict`` path — so the chunk-size-1 engine pays zero
#: padding waste; large blocks trade some BLAS efficiency for that
#: (batched row-slices instead of one big GEMM), which profiling shows
#: keeps the chunked engine comfortably above its speedup bar while
#: keeping chunk=1 (what ``detector.step`` runs) free of padding.
BATCH_TILE = 1


def tiled_forward(fn: "callable", rows: FloatArray) -> FloatArray:
    """Apply a row-wise batch function in fixed-size zero-padded tiles.

    BLAS GEMM results for one row depend on the *total* row count of the
    call (different kernels / blockings for different M), so naively
    stacking a variable number of windows would make batched predictions
    depend on the chunk size.  Fixing every GEMM slice at exactly
    ``BATCH_TILE`` rows — padding the final tile with zero rows and
    discarding their outputs — makes each row's bits a function of the
    row alone, so batched inference is invariant to how the stream is
    chunked.

    The tiles are not looped over in Python: the padded rows are reshaped
    to ``(T, BATCH_TILE, d)`` and ``fn`` is applied once.  ``np.matmul``
    maps a stacked operand to per-slice 2-D GEMMs, so each
    ``(BATCH_TILE, d)`` slice produces bits identical to a standalone
    tile call regardless of ``T`` (asserted by the kernel probes in
    ``tests/test_fleet.py``).

    ``fn`` must be row-independent apart from the BLAS effect above
    (a stack of ``Linear``/activation layers, or a plain ``@``) and must
    broadcast over a leading tile axis; per-tile 1-D or 2-D outputs are
    supported.  The result may be a view into a larger buffer — callers
    must not mutate it in place.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    n_tiles = -(-n // BATCH_TILE)
    if n % BATCH_TILE:
        padded = np.zeros((n_tiles * BATCH_TILE, d), dtype=np.float64)
        padded[:n] = rows
    else:
        padded = rows
    out = fn(padded.reshape(n_tiles, BATCH_TILE, d))
    return out.reshape((n_tiles * BATCH_TILE,) + out.shape[2:])[:n]


def fleet_tiled_forward(fn: "callable", rows_list: list) -> list:
    """Fused :func:`tiled_forward` over K sessions' row blocks.

    Stacks each session's zero-padded ``(T_k, BATCH_TILE, d)`` tiles into
    one ``(K, T_max, BATCH_TILE, d)`` array (short sessions padded with
    all-zero tiles) and applies ``fn`` once.  ``fn`` sees the session
    axis first; a :class:`~repro.nn.arena.ParameterArena` mirror maps
    slice ``k`` to session ``k``'s parameters.  Because every GEMM slice
    keeps the exact ``(BATCH_TILE, d)`` geometry of the per-session path,
    the returned per-session outputs are bitwise identical to K separate
    :func:`tiled_forward` calls.
    """
    k_sessions = len(rows_list)
    d = rows_list[0].shape[1]
    tiles = [-(-len(rows) // BATCH_TILE) for rows in rows_list]
    t_max = max(tiles)
    stack = np.zeros((k_sessions, t_max * BATCH_TILE, d), dtype=np.float64)
    for k, rows in enumerate(rows_list):
        stack[k, : len(rows)] = rows
    out = fn(stack.reshape(k_sessions, t_max, BATCH_TILE, d))
    flat = out.reshape((k_sessions, t_max * BATCH_TILE) + out.shape[3:])
    return [flat[k, : len(rows)] for k, rows in enumerate(rows_list)]


class StreamModel:
    """Abstract model plugged into the streaming framework."""

    #: registry name, overridden by subclasses.
    name = "base"
    #: one of "reconstruction", "forecast", "score".
    prediction_kind = "reconstruction"

    def __init__(self) -> None:
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, windows: FloatArray, epochs: int = 1) -> float:
        """(Re)train from scratch on ``(n, w, N)`` windows; return final loss."""
        raise NotImplementedError

    def finetune(self, windows: FloatArray, epochs: int = 1) -> float:
        """Update parameters on the current training set (one epoch by default).

        The default delegates to :meth:`fit`; gradient-based models override
        this to continue from the current parameters instead of restarting.
        """
        return self.fit(windows, epochs=epochs)

    def predict(self, x: FeatureVector) -> FloatArray:
        """Predict for one feature vector ``x`` of shape ``(w, N)``."""
        raise NotImplementedError

    def predict_batch(self, X: FloatArray) -> FloatArray:
        """Predict for a block of windows ``(B, w, N)``; stacked results.

        The default applies :meth:`predict` row by row; vectorized models
        override it.  Implementations must be *chunk-invariant*: a
        window's prediction bits may not depend on how many other windows
        share the call (see :func:`tiled_forward`), because the block
        engine relies on ``predict_batch`` giving the same answers at
        every chunk size.
        """
        X = _as_windows(X)
        return np.stack([self.predict(x) for x in X])

    def score_batch(self, X: FloatArray) -> FloatArray:
        """Score a block of windows ``(B, w, N)``; shape ``(B,)`` floats.

        Only meaningful for score-kind models (which define ``score``);
        the default applies it row by row, preserving any scoring side
        effects in stream order.
        """
        X = _as_windows(X)
        return np.asarray([self.score(x) for x in X], dtype=np.float64)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} used before fit")

    # ------------------------------------------------------------------
    # fleet (cross-session fused inference) hooks
    # ------------------------------------------------------------------
    def fleet_modules(self) -> tuple | None:
        """Module roots to mirror for cross-session fused inference.

        Returns a tuple of :class:`repro.nn.Module` trees whose stacked
        parameters drive :meth:`fleet_predict_batch`, or ``None`` when
        the model has no fused path (the fleet engine then falls back to
        per-session ``step_chunk``).  Modules shared between roots (USAD
        weight sharing via ``shared_copy``) may appear in several trees;
        the arena maps them to one stacked tensor.
        """
        return None

    @classmethod
    def fleet_predict_batch(
        cls, models: list, mirror: tuple, windows_list: list
    ) -> list:
        """Fused :meth:`predict_batch` over K same-spec sessions.

        ``mirror`` is the arena mirror of :meth:`fleet_modules` (stacked
        ``(K, in, out)`` parameters); ``windows_list`` holds each
        session's ``(B_k, w, N)`` block.  Returns per-session prediction
        arrays bitwise identical to K separate ``predict_batch`` calls.
        """
        raise NotImplementedError

    @classmethod
    def fleet_finetune(
        cls, models: list, windows_list: list, epochs: int
    ) -> list[float] | None:
        """Fused fine-tune of K same-spec sessions on their train sets.

        One session-axis training loop replaces K sequential
        ``model.finetune`` calls: the implementation must leave every
        model (weights, gradients, optimizer state, RNG, ``_fitted``)
        bitwise identical to the per-session sequence and return one loss
        per member, bit for bit what that member's ``finetune`` returns.
        Implementations validate *before* mutating anything and return
        ``None`` when the group is not fusable (the caller then
        fine-tunes per session); the default has no fused trainer at all.
        """
        return None


def _as_windows(windows: FloatArray) -> FloatArray:
    """Validate and coerce a training set to ``(n, w, N)``."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim == 2:  # a single window
        windows = windows[None]
    if windows.ndim != 3:
        raise ValueError(f"expected (n, w, N) windows, got shape {windows.shape}")
    if windows.shape[0] == 0:
        raise ValueError("training set is empty")
    return windows

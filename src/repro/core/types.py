"""Shared type aliases and small value objects used across the framework.

The paper's notation (Section III) maps onto these types as follows:

- a *stream vector* ``s_t`` is a 1-D float array of length ``N`` (channels);
- a *feature vector* ``x_t`` is a 2-D float array of shape ``(w, N)``
  holding the last ``w`` stream vectors (Definition III.1 with the identity
  data representation of Section IV-A);
- the *reference parameters* ``theta_t`` are the pair of model parameters
  and training set (Equation 5), represented here by the live
  :class:`~repro.models.base.StreamModel` instance plus the Task-1
  strategy's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

#: A stream vector ``s_t``: shape ``(n_channels,)``.
StreamVector = FloatArray

#: A feature vector ``x_t``: shape ``(window, n_channels)``.
FeatureVector = FloatArray


@dataclass(frozen=True)
class StepResult:
    """Everything the detector produced for one stream step.

    Attributes:
        t: 0-based index of the step in the stream.
        nonconformity: the nonconformity score ``a_t`` (Definition III.3).
        score: the final anomaly score ``f_t`` (Definition III.4).
        drift_detected: whether the Task-2 strategy flagged concept drift
            at this step.
        finetuned: whether the model was fine-tuned at this step (always
            implies ``drift_detected`` for drift-driven strategies).
    """

    t: int
    nonconformity: float
    score: float
    drift_detected: bool = False
    finetuned: bool = False


@dataclass
class FineTuneEvent:
    """Record of one fine-tuning session, kept by the detector.

    ``loss_after`` is the one loss an event carries: the value the
    model's own ``fit`` (initial fit) or ``finetune`` returned, in the
    model's own units.  Per model family:

    - gradient models (AE, USAD, N-BEATS, LSTM, RNN): the last epoch's
      mean minibatch training objective, in the model's scaled units;
    - Online ARIMA: the mean squared OGD error of its last epoch;
    - VAR: the mean squared least-squares residual;
    - PCB-iForest, k-NN, k-means and RS-Forest: the summary their
      ``fit`` documents.

    Losses of different families are not comparable.
    """

    t: int
    reason: str
    train_set_size: int
    loss_after: float = float("nan")


def count_finetunes(events: list[FineTuneEvent]) -> int:
    """Fine-tuning sessions in ``events``, excluding the initial fit."""
    return sum(1 for event in events if event.reason != "initial_fit")


@dataclass
class AnomalyWindow:
    """A labelled anomaly interval ``[start, end)`` in stream coordinates."""

    start: int
    end: int
    kind: str = "anomaly"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"anomaly window must be non-empty, got [{self.start}, {self.end})"
            )

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, t: int) -> bool:
        """Return whether time step ``t`` falls inside this window."""
        return self.start <= t < self.end

    def overlaps(self, other: "AnomalyWindow") -> bool:
        """Return whether this window shares at least one step with ``other``."""
        return self.start < other.end and other.start < self.end


@dataclass
class TimeSeries:
    """A labelled multivariate time series.

    Attributes:
        values: float array of shape ``(T, N)``.
        labels: int array of shape ``(T,)`` with 1 marking anomalous steps.
        name: identifier, e.g. ``"daphnet/S03R01E0"``.
        windows: the anomaly intervals; consistent with ``labels``.
        drift_points: time steps at which the generator injected concept
            drift (ground truth for drift-detection experiments; empty for
            real recordings).
    """

    values: FloatArray
    labels: NDArray[np.int_]
    name: str = "series"
    windows: list[AnomalyWindow] = field(default_factory=list)
    drift_points: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int_)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D (T, N), got {self.values.shape}")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"T={self.values.shape[0]}"
            )

    @property
    def n_steps(self) -> int:
        """Number of time steps ``T``."""
        return int(self.values.shape[0])

    @property
    def n_channels(self) -> int:
        """Number of channels ``N``."""
        return int(self.values.shape[1])

    @property
    def anomaly_rate(self) -> float:
        """Fraction of steps labelled anomalous."""
        return float(self.labels.mean()) if self.n_steps else 0.0

    def slice(self, start: int, end: int) -> "TimeSeries":
        """Return the sub-series ``[start, end)`` with re-based windows."""
        windows = [
            AnomalyWindow(max(w.start, start) - start, min(w.end, end) - start, w.kind)
            for w in self.windows
            if w.start < end and w.end > start
        ]
        drift = [p - start for p in self.drift_points if start <= p < end]
        return TimeSeries(
            values=self.values[start:end].copy(),
            labels=self.labels[start:end].copy(),
            name=self.name,
            windows=windows,
            drift_points=drift,
        )


def windows_from_labels(labels: NDArray[np.int_]) -> list[AnomalyWindow]:
    """Extract contiguous runs of positive labels as anomaly windows.

    Args:
        labels: binary array of shape ``(T,)``.

    Returns:
        The maximal intervals ``[start, end)`` over which labels equal 1,
        in increasing order of ``start``.
    """
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    padded = np.concatenate(([False], labels, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [
        AnomalyWindow(int(start), int(end)) for start, end in zip(edges[::2], edges[1::2])
    ]


def labels_from_windows(windows: list[AnomalyWindow], n_steps: int) -> NDArray[np.int_]:
    """Render anomaly windows back into a binary label array."""
    labels = np.zeros(n_steps, dtype=np.int_)
    for window in windows:
        labels[max(window.start, 0) : min(window.end, n_steps)] = 1
    return labels

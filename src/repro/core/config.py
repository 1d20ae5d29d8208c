"""Configuration object shared by the registry builders."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any

from repro.core.exceptions import ConfigurationError


def is_count(value: Any, minimum: int = 0) -> bool:
    """Whether ``value`` is an integer of at least ``minimum``.

    The one count rule for values that arrive from outside the program
    (wire fields, ``create`` arguments, WAL records): ``bool`` is an
    ``Integral`` subclass, and a float such as 4.9 (or 2.0) or a string
    such as ``"3"`` would be truncated or parsed, so all three are
    refused; integer types such as ``np.int64`` pass.
    """
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Integral)
        and value >= minimum
    )


@dataclass(frozen=True)
class DetectorConfig:
    """Hyper-parameters for assembling a detector from an algorithm spec.

    The paper's experiments use ``window=100`` and an initial training set
    built from the first 5000 steps; the defaults here are scaled down so
    the full 26-algorithm grid runs in minutes (see DESIGN.md §5).  Paper
    scale is a single config change.

    Attributes:
        window: data representation length ``w``.
        train_capacity: training-set size ``m`` for Task-1 strategies.
        initial_train_size: feature-vector count for the *initial* model
            fit (the paper's first-5000-steps training set); ``None``
            defaults to ``train_capacity``.  May exceed the capacity.
        scorer: anomaly scoring function (``"raw"`` / ``"avg"`` / ``"al"``
            from the paper, or the ``"conformal"`` rank-score extension).
        scorer_k: long window ``k`` for avg / anomaly likelihood.
        scorer_k_short: short window ``k'`` for the anomaly likelihood.
        fit_epochs: epochs for the initial model fit.
        finetune_epochs: epochs per fine-tuning session (paper: 1).
        kswin_alpha: KSWIN base significance level.
        seed: RNG seed threaded through every stochastic component.
        model_kwargs: extra keyword arguments forwarded to the model
            constructor (e.g. ``{"hidden": 64}``).
    """

    window: int = 24
    train_capacity: int = 64
    initial_train_size: int | None = None
    scorer: str = "al"
    scorer_k: int = 64
    scorer_k_short: int = 8
    fit_epochs: int = 20
    finetune_epochs: int = 1
    kswin_alpha: float = 0.005
    kswin_check_every: int = 1
    seed: int = 0
    model_kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ConfigurationError(f"window must be >= 2, got {self.window}")
        if self.train_capacity < 2:
            raise ConfigurationError(
                f"train_capacity must be >= 2, got {self.train_capacity}"
            )
        if self.scorer not in ("raw", "avg", "al", "conformal"):
            raise ConfigurationError(
                f"scorer must be raw/avg/al/conformal, got {self.scorer!r}"
            )
        if not 1 <= self.scorer_k_short < self.scorer_k:
            raise ConfigurationError(
                "scorer windows must satisfy 1 <= k_short < k, got "
                f"k={self.scorer_k}, k_short={self.scorer_k_short}"
            )
        if self.fit_epochs < 1 or self.finetune_epochs < 1:
            raise ConfigurationError("epoch counts must be >= 1")
        if self.kswin_check_every < 1:
            raise ConfigurationError(
                f"kswin_check_every must be >= 1, got {self.kswin_check_every}"
            )
        if self.initial_train_size is not None and self.initial_train_size < 2:
            raise ConfigurationError(
                f"initial_train_size must be >= 2, got {self.initial_train_size}"
            )

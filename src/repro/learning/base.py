"""Interfaces for learning strategies (Section IV-B of the paper).

A learning strategy has two independent responsibilities:

- **Task 1** — deciding how and when the training set ``R_train`` is
  updated (:class:`TrainingSetStrategy`);
- **Task 2** — deciding when the model should be fine-tuned, i.e. concept
  drift detection (:class:`DriftDetector`).

Task-2 strategies need to know exactly how the training set changed at
every step (which vector entered, which left) so they can maintain running
statistics incrementally; Task-1 strategies therefore report each mutation
as an :class:`Update`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.types import FeatureVector, FloatArray

#: Placeholder handed to :meth:`DriftDetector.should_finetune` in place of
#: the training set while the detector reports ``needs_train_set = False``.
NO_TRAIN_SET = np.empty((0,))


class UpdateKind(enum.Enum):
    """How a Task-1 strategy changed the training set at one step."""

    #: the new vector was appended (set grew by one).
    ADDED = "added"
    #: the new vector replaced an existing one (size unchanged).
    REPLACED = "replaced"
    #: the training set was left untouched.
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class Update:
    """Record of one training-set mutation.

    Attributes:
        kind: what happened.
        added: the vector that entered the set (``None`` for UNCHANGED).
        removed: the vector that left the set (only for REPLACED).
    """

    kind: UpdateKind
    added: FeatureVector | None = None
    removed: FeatureVector | None = None


@dataclass
class OpCounter:
    """Tally of elementary mathematical operations (Table II).

    Drift detectors increment these counters as they work, so the benchmark
    for Table II can report measured counts next to the paper's analytic
    formulas.
    """

    additions: int = 0
    multiplications: int = 0
    comparisons: int = 0

    def reset(self) -> None:
        self.additions = 0
        self.multiplications = 0
        self.comparisons = 0

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.comparisons

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.additions + other.additions,
            self.multiplications + other.multiplications,
            self.comparisons + other.comparisons,
        )


class TrainingSetStrategy:
    """Task 1: maintain the training set ``R_train`` of feature vectors.

    Args:
        capacity: the maximum number of retained feature vectors ``m``.
    """

    #: registry name, overridden by subclasses.
    name = "base"

    #: Whether :meth:`update` reads its ``score`` argument.  A strategy
    #: that does not lets the chunked streaming engine run Task 1 and
    #: Task 2 ahead of scoring, find the segment's first fine-tune, and
    #: score exactly the rows it commits.  ``True`` is the safe default.
    reads_score = True

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: list[FeatureVector] = []

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def is_full(self) -> bool:
        return len(self._buffer) >= self.capacity

    def update(self, x: FeatureVector, score: float = 0.0) -> Update:
        """Offer feature vector ``x`` (with anomaly score ``score``) to the set.

        Returns:
            An :class:`Update` describing the mutation that was applied.
        """
        raise NotImplementedError

    def training_set(self) -> FloatArray:
        """The current training set stacked as ``(n, *feature_shape)``."""
        if not self._buffer:
            return np.empty((0,))
        return np.stack(self._buffer)

    def reset(self) -> None:
        """Drop all retained vectors."""
        self._buffer.clear()


class DriftDetector:
    """Task 2: decide when the model should be fine-tuned.

    The detector is driven by the framework in three phases per step:

    1. :meth:`observe` with the training-set :class:`Update`;
    2. :meth:`should_finetune` with the current step and training set;
    3. if the framework fine-tuned, :meth:`notify_finetuned` so the
       detector can snapshot its reference statistics.
    """

    name = "base"

    #: Whether :meth:`should_finetune` needs its ``train_set`` argument.
    #: While this is ``False`` the chunked streaming engine skips
    #: materializing the training set (an ``np.stack`` over the whole
    #: Task-1 buffer) and passes :data:`NO_TRAIN_SET` instead; the
    #: detector must then decide from its own state.  ``True`` is the
    #: safe default.
    needs_train_set = True

    def __init__(self) -> None:
        self.ops = OpCounter()

    def observe(self, update: Update, t: int) -> None:
        """Incorporate one training-set mutation."""

    def should_finetune(self, t: int, train_set: FloatArray) -> bool:
        """Return whether the model should be fine-tuned at step ``t``."""
        raise NotImplementedError

    def notify_finetuned(self, t: int, train_set: FloatArray) -> None:
        """Called after a fine-tuning session completed at step ``t``."""

    def reset(self) -> None:
        """Forget all state, including the op counters."""
        self.ops.reset()

"""Core framework: the extended SAFARI decomposition and detector pipeline."""

from repro.core.config import DetectorConfig
from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import (
    ConfigurationError,
    NotFittedError,
    ReproError,
    StreamError,
    UnknownComponentError,
)
from repro.core.registry import (
    AlgorithmSpec,
    Recipe,
    build_algorithm_grid,
    build_detector,
    make_model,
    make_nonconformity,
    make_scorer,
    make_task1,
    make_task2,
)
from repro.core.representation import (
    DataRepresentation,
    RollingBuffer,
    WindowRepresentation,
)
from repro.core.types import (
    AnomalyWindow,
    FineTuneEvent,
    StepResult,
    TimeSeries,
    labels_from_windows,
    windows_from_labels,
)

__all__ = [
    "AlgorithmSpec",
    "AnomalyWindow",
    "ConfigurationError",
    "DataRepresentation",
    "DetectorConfig",
    "FineTuneEvent",
    "NotFittedError",
    "Recipe",
    "ReproError",
    "RollingBuffer",
    "StepResult",
    "StreamError",
    "StreamingAnomalyDetector",
    "TimeSeries",
    "UnknownComponentError",
    "WindowRepresentation",
    "build_algorithm_grid",
    "build_detector",
    "labels_from_windows",
    "make_model",
    "make_nonconformity",
    "make_scorer",
    "make_task1",
    "make_task2",
    "windows_from_labels",
]

"""Algorithm registry: Table I's grid of 26 combinations, and builders.

Table I pairs each ML model with the Task-1 / Task-2 strategies it
supports:

- Online ARIMA, 2-layer AE, USAD, N-BEATS: {SW, URES, ARES} x {mu/sigma,
  KS} with the cosine nonconformity (6 algorithms each, 24 total);
- PCB-iForest: {SW, ARES} x {KS} with its native iForest score
  (2 algorithms);

for a total of 26 distinct streaming anomaly detection algorithms, each
evaluated under both the average and anomaly-likelihood scoring functions.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import DetectorConfig, is_count
from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import ConfigurationError, UnknownComponentError
from repro.learning.base import DriftDetector, TrainingSetStrategy
from repro.learning.adwin import ADWIN
from repro.learning.drift import MuSigmaChange, NeverFineTune, RegularFineTuning
from repro.learning.kswin import KSWIN
from repro.learning.page_hinkley import PageHinkley
from repro.learning.reservoir import AnomalyAwareReservoir, UniformReservoir
from repro.learning.sliding_window import SlidingWindow
from repro.models.autoencoder import TwoLayerAutoencoder
from repro.models.base import StreamModel
from repro.models.kmeans import OnlineKMeans
from repro.models.knn import KNNDetector
from repro.models.lstm import LSTMForecaster
from repro.models.rnn import ElmanForecaster
from repro.models.rs_forest import RSForest
from repro.models.nbeats import NBeats
from repro.models.online_arima import OnlineARIMA
from repro.models.pcb_iforest import PCBIForest
from repro.models.usad import USAD
from repro.models.var import VARModel
from repro.obs.manifest import fingerprint_config
from repro.scoring.anomaly_score import (
    AnomalyLikelihood,
    AnomalyScorer,
    AverageScore,
    ConformalScorer,
    RawScore,
)
from repro.scoring.nonconformity import (
    CosineNonconformity,
    EuclideanNonconformity,
    IForestNonconformity,
    NonconformityMeasure,
)

MODEL_NAMES = ("online_arima", "ae", "usad", "nbeats", "pcb_iforest")
#: models described by the paper (VAR) or added as extensions from the
#: related work (k-NN, online k-means, RS-Forest) — not in the Table I grid.
EXTENSION_MODELS = ("var", "knn", "kmeans", "rs_forest", "rnn", "lstm")
#: registry model name -> model class (what :attr:`Recipe.model_class`
#: checks a checkpoint against).
MODEL_CLASSES = {
    "online_arima": OnlineARIMA,
    "ae": TwoLayerAutoencoder,
    "usad": USAD,
    "nbeats": NBeats,
    "pcb_iforest": PCBIForest,
    "var": VARModel,
    "knn": KNNDetector,
    "kmeans": OnlineKMeans,
    "rs_forest": RSForest,
    "rnn": ElmanForecaster,
    "lstm": LSTMForecaster,
}
TASK1_NAMES = ("sw", "ures", "ares")
TASK2_NAMES = ("musigma", "kswin", "regular", "never", "page_hinkley", "adwin")
SCORER_NAMES = ("raw", "avg", "al", "conformal")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One cell of Table I: a (model, Task 1, Task 2) combination."""

    model: str
    task1: str
    task2: str

    def __post_init__(self) -> None:
        if self.model not in MODEL_NAMES + EXTENSION_MODELS:
            raise UnknownComponentError(f"unknown model {self.model!r}")
        if self.task1 not in TASK1_NAMES:
            raise UnknownComponentError(f"unknown task1 strategy {self.task1!r}")
        if self.task2 not in TASK2_NAMES:
            raise UnknownComponentError(f"unknown task2 strategy {self.task2!r}")

    @property
    def nonconformity(self) -> str:
        """The nonconformity measure paired with this model.

        Score-kind models (PCB-iForest and the score-based extensions)
        emit their own score, which the pass-through measure forwards;
        prediction-kind models use the cosine distance between
        observation and prediction.
        """
        score_models = ("pcb_iforest", "knn", "kmeans", "rs_forest")
        return "iforest" if self.model in score_models else "cosine"

    @property
    def label(self) -> str:
        return f"{self.model}+{self.task1}+{self.task2}"


def build_algorithm_grid() -> list[AlgorithmSpec]:
    """All 26 combinations of Table I, in the table's row order."""
    grid: list[AlgorithmSpec] = []
    for model in ("online_arima", "ae", "usad", "nbeats"):
        for task1 in ("sw", "ures", "ares"):
            for task2 in ("musigma", "kswin"):
                grid.append(AlgorithmSpec(model, task1, task2))
    for task1 in ("sw", "ares"):
        grid.append(AlgorithmSpec("pcb_iforest", task1, "kswin"))
    return grid


# ----------------------------------------------------------------------
# component factories
# ----------------------------------------------------------------------
def make_model(
    name: str, config: DetectorConfig, n_channels: int
) -> StreamModel:
    """Instantiate a model by registry name."""
    kwargs = dict(config.model_kwargs)
    if name == "online_arima":
        return OnlineARIMA(window=config.window, **kwargs)
    if name == "ae":
        return TwoLayerAutoencoder(
            window=config.window,
            n_channels=n_channels,
            epochs=config.fit_epochs,
            seed=config.seed,
            **kwargs,
        )
    if name == "usad":
        return USAD(
            window=config.window,
            n_channels=n_channels,
            epochs=config.fit_epochs,
            seed=config.seed,
            **kwargs,
        )
    if name == "nbeats":
        return NBeats(
            window=config.window,
            n_channels=n_channels,
            epochs=config.fit_epochs,
            seed=config.seed,
            **kwargs,
        )
    if name == "pcb_iforest":
        return PCBIForest(seed=config.seed, **kwargs)
    if name == "var":
        return VARModel(**kwargs)
    if name == "knn":
        return KNNDetector(**kwargs)
    if name == "kmeans":
        return OnlineKMeans(seed=config.seed, **kwargs)
    if name == "rs_forest":
        return RSForest(seed=config.seed, **kwargs)
    if name == "lstm":
        return LSTMForecaster(
            window=config.window,
            n_channels=n_channels,
            epochs=config.fit_epochs,
            seed=config.seed,
            **kwargs,
        )
    if name == "rnn":
        return ElmanForecaster(
            window=config.window,
            n_channels=n_channels,
            epochs=config.fit_epochs,
            seed=config.seed,
            **kwargs,
        )
    raise UnknownComponentError(f"unknown model {name!r}")


def make_task1(
    name: str, config: DetectorConfig, rng: np.random.Generator
) -> TrainingSetStrategy:
    """Instantiate a Task-1 strategy by registry name."""
    if name == "sw":
        return SlidingWindow(config.train_capacity)
    if name == "ures":
        return UniformReservoir(config.train_capacity, rng=rng)
    if name == "ares":
        return AnomalyAwareReservoir(config.train_capacity, rng=rng)
    raise UnknownComponentError(f"unknown task1 strategy {name!r}")


def make_task2(name: str, config: DetectorConfig) -> DriftDetector:
    """Instantiate a Task-2 strategy by registry name."""
    if name == "musigma":
        return MuSigmaChange()
    if name == "kswin":
        return KSWIN(alpha=config.kswin_alpha, check_every=config.kswin_check_every)
    if name == "regular":
        return RegularFineTuning(interval=config.train_capacity)
    if name == "never":
        return NeverFineTune()
    if name == "page_hinkley":
        return PageHinkley()
    if name == "adwin":
        return ADWIN()
    raise UnknownComponentError(f"unknown task2 strategy {name!r}")


def make_nonconformity(name: str) -> NonconformityMeasure:
    """Instantiate a nonconformity measure by registry name."""
    if name == "cosine":
        return CosineNonconformity()
    if name == "iforest":
        return IForestNonconformity()
    if name == "euclidean":
        return EuclideanNonconformity()
    raise UnknownComponentError(f"unknown nonconformity measure {name!r}")


def make_scorer(name: str, config: DetectorConfig) -> AnomalyScorer:
    """Instantiate an anomaly scoring function by registry name."""
    if name == "raw":
        return RawScore()
    if name == "avg":
        return AverageScore(k=config.scorer_k)
    if name == "al":
        return AnomalyLikelihood(k=config.scorer_k, k_short=config.scorer_k_short)
    if name == "conformal":
        return ConformalScorer(k=config.scorer_k)
    raise UnknownComponentError(f"unknown scorer {name!r}")


def build_detector(
    spec: AlgorithmSpec,
    n_channels: int,
    config: DetectorConfig | None = None,
    scorer: str | None = None,
) -> StreamingAnomalyDetector:
    """Assemble a full detector for one algorithm spec.

    Args:
        spec: the (model, task1, task2) combination.
        n_channels: stream channel count (models need it up front).
        config: shared hyper-parameters; defaults to :class:`DetectorConfig`.
        scorer: override for the anomaly scoring function name.

    Returns:
        A ready-to-stream :class:`StreamingAnomalyDetector`.
    """
    config = config if config is not None else DetectorConfig()
    rng = np.random.default_rng(config.seed)
    return StreamingAnomalyDetector(
        model=make_model(spec.model, config, n_channels),
        train_strategy=make_task1(spec.task1, config, rng),
        drift_detector=make_task2(spec.task2, config),
        nonconformity=make_nonconformity(spec.nonconformity),
        scorer=make_scorer(scorer or config.scorer, config),
        window=config.window,
        min_train_size=config.initial_train_size,
        fit_epochs=config.fit_epochs,
        finetune_epochs=config.finetune_epochs,
    )


# ----------------------------------------------------------------------
# served-session recipes
# ----------------------------------------------------------------------
#: the keys a recipe travels under: the WAL's ``open`` record, its
#: ``swap`` records (which omit ``n_channels``: a swap keeps the stream's
#: channel count) and the router's stream record.
RECORD_KEYS = ("spec", "n_channels", "config", "scorer")


@dataclass(frozen=True)
class Recipe:
    """A served session's full name: spec, channel count, config, scorer.

    SAFARI names a detector by its component choices plus
    hyper-parameters, and so does Table I.  Create, resume, WAL
    recovery, challenger lanes and hot swaps parse, check, fingerprint
    and rebuild a registry-built session through this one type.
    ``scorer`` is kept as requested: ``None`` builds ``config.scorer``.
    """

    spec: AlgorithmSpec
    n_channels: int
    config: DetectorConfig
    scorer: str | None = None

    @classmethod
    def parse(
        cls, spec: Any, n_channels: Any, config: Any = None, scorer: Any = None
    ) -> "Recipe":
        """Validate a recipe that arrives from outside the program:
        ``spec`` a ``model+task1+task2`` string, ``n_channels`` a
        positive integer under :func:`~repro.core.config.is_count`'s
        rule, ``config`` a :class:`DetectorConfig` or a dict it accepts
        (``None``: the defaults), ``scorer`` ``None`` or a scorer name.

        Raises:
            ConfigurationError: naming the first field that fails.
        """
        parts = spec.split("+") if isinstance(spec, str) else ()
        if len(parts) != 3:
            raise ConfigurationError(
                f"spec must look like 'model+task1+task2', got {spec!r}"
            )
        if not is_count(n_channels, minimum=1):
            raise ConfigurationError(
                f"n_channels must be a positive integer, got {n_channels!r}"
            )
        if scorer is not None and scorer not in SCORER_NAMES:
            raise UnknownComponentError(f"unknown scorer {scorer!r}")
        if config is None:
            config = DetectorConfig()
        elif isinstance(config, dict):
            try:
                config = DetectorConfig(**config)
            except TypeError as error:
                raise ConfigurationError(f"bad detector config: {error}") from None
        elif not isinstance(config, DetectorConfig):
            raise ConfigurationError(
                f"config must be a dict of DetectorConfig fields, got {config!r}"
            )
        return cls(AlgorithmSpec(*parts), int(n_channels), config, scorer)

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Recipe":
        """Parse the recipe a record carries (see :data:`RECORD_KEYS`)."""
        return cls.parse(*(record.get(key) for key in RECORD_KEYS))

    def as_record(self) -> dict[str, Any]:
        """The recipe under :data:`RECORD_KEYS`, ready to pickle or send."""
        return {
            "spec": self.label,
            "n_channels": self.n_channels,
            "config": dataclasses.asdict(self.config),
            "scorer": self.scorer,
        }

    @property
    def label(self) -> str:
        return self.spec.label

    @functools.cached_property
    def fleet_key(self) -> tuple[str, int, str]:
        """The identity under which the scheduler fuses sessions: same
        label, channel count, config and *built* scorer (omitting
        ``scorer`` and naming ``config.scorer`` give one key).  Computed
        once, as the scheduler reads it on every pump."""
        scorer = self.scorer or self.config.scorer
        return (
            self.label,
            self.n_channels,
            fingerprint_config({"detector": self.config, "scorer": scorer}),
        )

    @property
    def model_class(self) -> type[StreamModel]:
        """The model class a checkpoint of this recipe holds."""
        return MODEL_CLASSES[self.spec.model]

    def check_checkpoint(self, meta: dict[str, Any]) -> None:
        """Refuse (``ConfigurationError``) a checkpoint, given its
        ``peek_checkpoint`` meta block, whose model is not this recipe's."""
        expected = self.model_class.__name__
        if meta.get("model") != expected:
            raise ConfigurationError(
                f"the checkpoint holds a {meta.get('model')} model, but "
                f"spec {self.label!r} names {expected}"
            )

    def build(self, at: int = 0) -> StreamingAnomalyDetector:
        """A fresh detector whose next point is stream index ``at``: its
        clock ``t`` is preset to ``at - 1``, so sequence numbers stay
        continuous when it takes over a live stream (a challenger lane).
        The model starts cold; only the clock carries over."""
        if at < 0:
            raise ConfigurationError(f"warm-start offset must be >= 0, got {at}")
        detector = build_detector(self.spec, self.n_channels, self.config, self.scorer)
        detector.t = at - 1
        return detector

"""Stream execution: drive detectors over labelled series."""

from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    load_detector,
    peek_checkpoint,
    save_detector,
    transfer_checkpoint,
)
from repro.streaming.corpus import CorpusResult, run_corpus
from repro.streaming.ensemble import EnsembleDetector
from repro.streaming.fleet import FleetEngine
from repro.streaming.parallel import (
    CellFailure,
    CorpusCell,
    GridResult,
    ParallelCorpusRunner,
    build_cells,
)
from repro.streaming.runner import StreamResult, run_stream

__all__ = [
    "CHECKPOINT_VERSION",
    "CellFailure",
    "CorpusCell",
    "CorpusResult",
    "EnsembleDetector",
    "FleetEngine",
    "GridResult",
    "ParallelCorpusRunner",
    "StreamResult",
    "build_cells",
    "load_detector",
    "peek_checkpoint",
    "run_corpus",
    "run_stream",
    "save_detector",
    "transfer_checkpoint",
]

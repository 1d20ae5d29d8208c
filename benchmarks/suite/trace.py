"""Per-layer self time, recorded from outside the program.

The tracer wraps the public callables of each layer (the wrap table
below) for the duration of one traced repetition, records one span per
call and computes each layer's *self time*: a span's duration minus the
part of it covered by the spans it caused, per thread.  Nothing inside
``src/`` changes; in-program spans are a separate piece of work.

Methods are wrapped on the named class and on every subclass that
defines its own version, because the concrete classes override the base
methods.  Module-level functions are replaced in every loaded ``repro``
module that imported them by name.  :func:`resolve_table` runs before every
benchmark run: a refactor that renames or deletes a listed callable
fails the benchmark and names the entry, instead of silently dropping a
layer from the breakdown.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: (layer, category, module, qualname).  The category splits one layer
#: into the per-layer metrics that need it (Task-1 vs Task-2, predict vs
#: fine-tune vs fit, WAL append vs barrier); a call nested inside a span
#: of the same layer inherits the outer span's category.
WRAP_TABLE: tuple[tuple[str, str, str, str], ...] = (
    ("protocol", "", "repro.serve.protocol", "encode"),
    ("protocol", "", "repro.serve.protocol", "decode_line"),
    ("protocol", "", "repro.serve.protocol", "parse_request"),
    ("server", "", "repro.serve.server", "DetectionService.handle"),
    ("server", "", "repro.serve.server", "DetectionService.ingest"),
    ("server", "", "repro.serve.server", "DetectionService.collect"),
    ("session", "", "repro.serve.session", "DetectorSession.validate_points"),
    ("session", "", "repro.serve.session", "DetectorSession.enqueue"),
    ("session", "", "repro.serve.session", "DetectorSession.flush_prepare"),
    ("session", "", "repro.serve.session", "DetectorSession.flush_finish"),
    ("session", "", "repro.serve.session", "DetectorSession.collect"),
    ("scheduler", "submit", "repro.serve.scheduler", "MicroBatchScheduler.submit"),
    ("scheduler", "pump", "repro.serve.scheduler", "MicroBatchScheduler.pump"),
    ("scheduler", "pump", "repro.serve.scheduler", "MicroBatchScheduler.flush_session"),
    ("wal", "append", "repro.serve.wal", "SessionWal.append"),
    ("wal", "barrier", "repro.serve.wal", "SessionWal.barrier"),
    ("state", "evict", "repro.serve.state", "SessionStore.evict"),
    ("state", "rehydrate", "repro.serve.state", "SessionStore.rehydrate"),
    ("fleet", "", "repro.streaming.fleet", "FleetEngine.step_chunk"),
    ("detector", "", "repro.core.detector", "StreamingAnomalyDetector.step_chunk"),
    ("detector", "", "repro.core.detector", "StreamingAnomalyDetector.step"),
    ("representation", "", "repro.core.representation", "RollingBuffer.push_block"),
    ("representation", "", "repro.core.representation", "RollingBuffer.push"),
    ("models", "predict", "repro.models.base", "StreamModel.predict_batch"),
    ("models", "predict", "repro.models.base", "StreamModel.score_batch"),
    ("models", "predict", "repro.models.base", "StreamModel.fleet_predict_batch"),
    ("models", "finetune", "repro.models.base", "StreamModel.finetune"),
    ("models", "finetune", "repro.models.base", "StreamModel.fleet_finetune"),
    ("models", "fit", "repro.models.base", "StreamModel.fit"),
    ("nonconformity", "", "repro.scoring.nonconformity", "NonconformityMeasure.__call__"),
    ("nonconformity", "", "repro.scoring.nonconformity", "NonconformityMeasure.precompute"),
    ("nonconformity", "", "repro.scoring.nonconformity", "NonconformityMeasure.consume"),
    ("nonconformity", "", "repro.scoring.nonconformity", "NonconformityMeasure.from_predictions"),
    ("scoring", "", "repro.scoring.anomaly_score", "AnomalyScorer.update"),
    ("scoring", "", "repro.scoring.anomaly_score", "AnomalyScorer.update_batch"),
    ("scoring", "", "repro.scoring.anomaly_score", "AnomalyLikelihood.fleet_update_batch"),
    ("learning", "task1", "repro.learning.base", "TrainingSetStrategy.update"),
    ("learning", "task1", "repro.learning.base", "TrainingSetStrategy.training_set"),
    ("learning", "task1", "repro.learning.sliding_window", "SlidingWindow.preview_block"),
    ("learning", "task1", "repro.learning.sliding_window", "SlidingWindow.commit_block"),
    ("learning", "task2", "repro.learning.base", "DriftDetector.observe"),
    ("learning", "task2", "repro.learning.base", "DriftDetector.should_finetune"),
    ("learning", "task2", "repro.learning.base", "DriftDetector.notify_finetuned"),
    ("learning", "task2", "repro.learning.drift", "MuSigmaLane.step"),
    ("learning", "task2", "repro.learning.drift", "MuSigmaLane.commit"),
    ("metrics", "", "repro.experiments.evaluation", "evaluate_result"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in WRAP_TABLE))


def _stream_of(args: tuple) -> str:
    return args[0].stream_id


#: qualname -> note(args, result) -> (rows, stream, seq_from, seq_to):
#: what a span records beyond its timing, so spans of one stream's
#: points can be joined across layers.
_NOTES: dict[str, Callable[[tuple, Any], tuple]] = {
    "DetectionService.ingest": lambda a, r: (0, a[1], r.get("seq_from"), r.get("seq_to")),
    "DetectionService.collect": lambda a, r: (0, a[1], None, None),
    "DetectorSession.enqueue": lambda a, r: (len(a[1]), _stream_of(a), r[0], r[1]),
    "DetectorSession.flush_prepare": lambda a, r: (
        (0, _stream_of(a), None, None)
        if r is None
        else (len(r[0]), _stream_of(a), int(r[0][0]), int(r[0][-1]))
    ),
    "DetectorSession.flush_finish": lambda a, r: (
        len(a[1]), _stream_of(a), int(a[1][0]), int(a[1][-1])
    ),
    "MicroBatchScheduler.submit": lambda a, r: (len(a[2]), a[1].stream_id, r[0], r[1]),
    "MicroBatchScheduler.flush_session": lambda a, r: (r, a[1].stream_id, None, None),
    "SessionWal.append": lambda a, r: (
        len(a[2]), a[0].stream_id, int(a[1]), int(a[1]) + len(a[2]) - 1
    ),
    "StreamingAnomalyDetector.step_chunk": lambda a, r: (len(r[0]), None, None, None),
    "FleetEngine.step_chunk": lambda a, r: (sum(len(x[0]) for x in r), None, None, None),
    "StreamModel.finetune": lambda a, r: (1, None, None, None),
    "StreamModel.fleet_finetune": lambda a, r: (
        (len(a[1]) if r is not None else 0), None, None, None
    ),
}


class TraceTableError(RuntimeError):
    """A wrap-table entry no longer resolves to a callable."""


def _lookup(module_name: str, qualname: str) -> Any:
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def resolve_table(table=WRAP_TABLE) -> None:
    """Check that every wrap-table entry exists; name every one that does not."""
    missing = []
    for _, _, module_name, qualname in table:
        try:
            target = _lookup(module_name, qualname)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{qualname}")
            continue
        if not callable(target):
            missing.append(f"{module_name}:{qualname} (not callable)")
    if missing:
        raise TraceTableError(
            "wrap table entries missing from the program: " + ", ".join(missing)
        )


def _subclasses(cls: type) -> list[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Tracer:
    """Install wrappers, record spans in memory, compute layer metrics.

    A span is ``(id, parent, thread, name, layer, category, start_ns,
    end_ns, self_ns, rows, stream, seq_from, seq_to)``, timed on
    ``clock`` (nanoseconds).
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        #: seconds each flushed point waited in its session queue
        #: (``flush_prepare`` return time minus the point's enqueue time).
        self.queue_waits: list[np.ndarray] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        resolve_table()
        # Registry imports bind every model, measure and strategy class,
        # so the subclass walk below sees all of them.
        importlib.import_module("repro.core.registry")
        done: set[tuple[int, str]] = set()
        for layer, category, module_name, qualname in WRAP_TABLE:
            owner_name, _, attr = qualname.rpartition(".")
            if not owner_name:
                self._wrap_function(
                    importlib.import_module(module_name), attr, layer, category
                )
                continue
            base = _lookup(module_name, owner_name)
            for cls in _subclasses(base):
                if attr in cls.__dict__ and (id(cls), attr) not in done:
                    done.add((id(cls), attr))
                    self._wrap_method(cls, attr, layer, category, qualname)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap_function(self, module, attr: str, layer: str, category: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, layer, category, attr, None)
        for name, holder in list(sys.modules.items()):
            if name.startswith("repro") and getattr(holder, attr, None) is original:
                setattr(holder, attr, wrapped)
                self._undo.append(functools.partial(setattr, holder, attr, original))

    def _wrap_method(
        self, cls: type, attr: str, layer: str, category: str, qualname: str
    ) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        note = _NOTES.get(qualname)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(
                self._wrapper(raw.__func__, layer, category, name, note)
            )
        else:
            replacement = self._wrapper(raw, layer, category, name, note)
        setattr(cls, attr, replacement)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def _wrapper(self, func, layer, category, name, note):
        tracer = self
        clock = self.clock
        queue_wait = name == "DetectorSession.flush_prepare"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            cat = parent[2] if parent is not None and parent[1] == layer else category
            frame = [next(tracer._ids), layer, cat, 0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, name, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            if queue_wait and result is not None:
                tracer.queue_waits.append(time.monotonic() - result[1])
            tracer._close(
                frame, parent, name, start, end,
                note(args, result) if note is not None else None,
            )
            stack.pop()
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, frame, parent, name, start, end, noted) -> None:
        duration = end - start
        if parent is not None:
            parent[3] += duration
        rows, stream, seq_from, seq_to = noted if noted is not None else (0, None, None, None)
        self.spans.append(
            (
                frame[0],
                parent[0] if parent is not None else -1,
                threading.get_ident(),
                name,
                frame[1],
                frame[2],
                start,
                end,
                duration - frame[3],
                rows,
                stream,
                seq_from,
                seq_to,
            )
        )

    # -- results ------------------------------------------------------
    def self_seconds(self) -> dict[tuple[str, str], float]:
        """Summed self time per (layer, category), in seconds."""
        out: dict[tuple[str, str], float] = {}
        for span in self.spans:
            key = (span[4], span[5])
            out[key] = out.get(key, 0.0) + span[8] / 1e9
        return out

    def layers_seen(self) -> set[str]:
        return {span[4] for span in self.spans}

    def write_jsonl(self, path: Path) -> None:
        """Write every span, ordered by start time, one JSON object per line."""
        keys = (
            "id", "parent", "thread", "name", "layer", "category",
            "start_ns", "end_ns", "self_ns", "rows", "stream", "seq_from", "seq_to",
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s[6]):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, n_points: int, wall_s: float) -> dict[str, float]:
        """The per-layer metrics the spans determine on their own.

        ``n_points`` is the number of points scored while tracing; the
        ``*_us_per_pt`` metrics are self time divided by it.  ``wall_s``
        is the traced time on the span clock, for ``trace.coverage``.
        """
        self_s = self.self_seconds()
        by_id = {span[0]: span for span in self.spans}

        def per_pt(layer: str, category: str | None = None) -> float:
            total = sum(
                seconds
                for (lay, cat), seconds in self_s.items()
                if lay == layer and (category is None or cat == category)
            )
            return 1e6 * total / n_points if n_points else 0.0

        def outermost(span) -> bool:
            parent = by_id.get(span[1])
            return parent is None or parent[4] != span[4]

        step_rows = step_calls = finetunes = evaluations = 0
        evaluate_s = 0.0
        for span in self.spans:
            parent = by_id.get(span[1])
            if span[3] in ("StreamingAnomalyDetector.step_chunk", "FleetEngine.step_chunk"):
                if parent is not None and parent[4] == "scheduler":
                    step_rows += span[9]
                    step_calls += 1
            elif span[4] == "models" and span[5] == "finetune" and outermost(span):
                finetunes += span[9]
            elif span[4] == "metrics":
                evaluations += 1
                evaluate_s += span[8] / 1e9
        waits = (
            np.concatenate(self.queue_waits) if self.queue_waits else np.zeros(0)
        )
        return {
            "protocol.self_us_per_pt": per_pt("protocol"),
            "server.self_us_per_pt": per_pt("server"),
            "session.self_us_per_pt": per_pt("session"),
            "scheduler.submit_us_per_pt": per_pt("scheduler", "submit"),
            "scheduler.pump_self_us_per_pt": per_pt("scheduler", "pump"),
            "scheduler.queue_wait_p50_ms": percentile_ms(waits, 50),
            "scheduler.queue_wait_p99_ms": percentile_ms(waits, 99),
            "scheduler.rows_per_step_call": step_rows / step_calls if step_calls else 0.0,
            "wal.append_us_per_pt": per_pt("wal", "append"),
            "wal.barriers": float(
                sum(1 for s in self.spans if s[3] == "SessionWal.barrier")
            ),
            "wal.barrier_ms": 1e3 * self_s.get(("wal", "barrier"), 0.0),
            "state.evict_ms": 1e3 * self_s.get(("state", "evict"), 0.0),
            "state.rehydrate_ms": 1e3 * self_s.get(("state", "rehydrate"), 0.0),
            "fleet.self_us_per_pt": per_pt("fleet"),
            "detector.self_us_per_pt": per_pt("detector"),
            "representation.us_per_pt": per_pt("representation"),
            "models.predict_us_per_pt": per_pt("models", "predict"),
            "models.finetunes": float(finetunes),
            "models.finetune_ms": 1e3 * self_s.get(("models", "finetune"), 0.0),
            "models.fit_s": self_s.get(("models", "fit"), 0.0),
            "nonconformity.us_per_pt": per_pt("nonconformity"),
            "scoring.us_per_pt": per_pt("scoring"),
            "learning.task1_us_per_pt": per_pt("learning", "task1"),
            "learning.task2_us_per_pt": per_pt("learning", "task2"),
            "metrics.evaluate_ms": 1e3 * evaluate_s / evaluations if evaluations else 0.0,
            "trace.coverage": sum(self_s.values()) / wall_s if wall_s > 0 else 0.0,
        }


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of a sample of durations, in milliseconds."""
    if len(seconds) == 0:
        return 0.0
    return 1e3 * float(np.percentile(seconds, q))

"""The streaming anomaly detector: the paper's four tasks wired together.

Per stream step the detector executes the extended framework loop:

1. **Data representation** — push ``s_t`` into the rolling buffer and
   obtain the feature vector ``x_t`` (Definition III.1);
2. **Nonconformity** — score ``a_t = A(x_t, theta_t)`` against the current
   model (Definition III.3);
3. **Anomaly scoring** — fold ``a_t`` into the final score ``f_t``
   (Definition III.4);
4. **Learning strategy** — offer ``x_t`` (with ``f_t``, for ARES) to the
   Task-1 strategy and let the Task-2 strategy decide whether to fine-tune
   the model on the current training set (Definition III.2).

The model is fitted for the first time once the training set reaches
``min_train_size`` vectors; until then steps return score 0 (the warm-up
region, which the paper excludes from evaluation anyway).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.exceptions import ConfigurationError, StreamError
from repro.core.representation import RollingBuffer, WindowRepresentation
from repro.core.types import FineTuneEvent, StepResult, StreamVector, count_finetunes
from repro.learning.base import NO_TRAIN_SET, DriftDetector, TrainingSetStrategy
from repro.models.base import StreamModel
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.scoring.anomaly_score import AnomalyScorer
from repro.scoring.nonconformity import NonconformityMeasure


class StreamingAnomalyDetector:
    """A complete streaming anomaly detection algorithm.

    Args:
        model: the ML model (reference parameters ``theta_model``).
        train_strategy: Task-1 training-set maintenance.
        drift_detector: Task-2 fine-tuning trigger.
        nonconformity: the nonconformity measure ``A``.
        scorer: the anomaly scoring function ``F``.
        window: data representation length ``w``.
        min_train_size: number of feature vectors that triggers the
            initial fit; defaults to the Task-1 strategy's capacity.  May
            exceed the capacity — the paper builds its initial training
            set from the first 5000 stream steps, independent of the
            maintained set size ``m`` — in which case the initial fit uses
            a dedicated accumulation buffer that is discarded afterwards.
        fit_epochs: epochs for the initial fit.
        finetune_epochs: epochs per fine-tuning session (paper: 1).
        telemetry: observability sink (``repro.obs``).  Defaults to the
            shared :data:`~repro.obs.NULL_TELEMETRY` no-op, whose
            ``enabled`` flag lets the hot paths skip even the timer
            reads; traced and untraced runs are bitwise identical.
    """

    def __init__(
        self,
        model: StreamModel,
        train_strategy: TrainingSetStrategy,
        drift_detector: DriftDetector,
        nonconformity: NonconformityMeasure,
        scorer: AnomalyScorer,
        window: int,
        min_train_size: int | None = None,
        fit_epochs: int = 20,
        finetune_epochs: int = 1,
        telemetry: Telemetry | None = None,
    ) -> None:
        if min_train_size is not None and min_train_size < 2:
            raise ConfigurationError(
                f"min_train_size must be >= 2, got {min_train_size}"
            )
        self.model = model
        self.train_strategy = train_strategy
        self.drift_detector = drift_detector
        self.nonconformity = nonconformity
        self.scorer = scorer
        self.buffer = RollingBuffer(WindowRepresentation(window))
        self.window = window
        self.min_train_size = (
            min_train_size if min_train_size is not None else train_strategy.capacity
        )
        self.fit_epochs = fit_epochs
        self.finetune_epochs = finetune_epochs
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

        self.t = -1
        self.n_channels: int | None = None
        self.events: list[FineTuneEvent] = []
        self.first_scored_step: int | None = None
        # Dedicated accumulator for an initial fit larger than the
        # maintained training set (discarded after the fit).
        self._initial_buffer: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Telemetry is a run-scoped sink, not detector state: pickling it
        # into checkpoints would resurrect stale counters (and a live
        # event deque) on restore.  Checkpoints always deserialize with
        # the no-op default; callers re-attach a sink per run.
        state = self.__dict__.copy()
        state.pop("telemetry", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    def step(self, s: StreamVector) -> StepResult:
        """Process one stream vector and return the step's scores.

        A one-row :meth:`step_chunk`, so a ``step`` loop and any chunking
        of the same stream are one computation.  Steps taken before the
        representation buffer is warm or before the initial model fit
        return zero scores (the warm-up region).
        """
        a, f, drift, fine = self.step_chunk(
            np.asarray(s, dtype=np.float64).reshape(1, -1)
        )
        return StepResult(
            t=self.t,
            nonconformity=float(a[0]),
            score=float(f[0]),
            drift_detected=bool(drift[0]),
            finetuned=bool(fine[0]),
        )

    def warm_up(self, values: np.ndarray, batch_size: int = 256) -> None:
        """Feed an initial block of stream vectors (the paper's first steps).

        Processes the rows through the chunked engine
        (:meth:`step_chunk`), which validates each chunk with one
        vectorized check instead of per-step guards.
        """
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        for start in range(0, len(values), batch_size):
            self.step_chunk(values[start : start + batch_size])

    # ------------------------------------------------------------------
    def step_chunk(
        self, block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Process a ``(B, N)`` block of stream vectors in one call.

        Semantically equivalent to ``B`` :meth:`step` calls, but the pure
        per-step work (model forwards, nonconformity precursors, scorer
        folds, input validation) runs vectorized over the block.  The
        model parameters ``theta`` only change at fine-tune events, so the
        block is cut into segments that each end at a fine-tune
        (:meth:`_segment`).  When Task 1 does not read the score, a
        segment runs the cheap stateful parts (Task-1 update, Task-2
        decision) first and precomputes the nonconformity precursors of
        exactly the rows it commits; otherwise it *speculates* that the
        whole block shares one ``theta``, precomputes every row at once,
        and rolls the state beyond a mid-block fine-tune back (measure +
        scorer snapshots) before the remainder is recomputed under the
        new ``theta``.

        The result is bitwise invariant to how a stream is cut into
        blocks — ``step_chunk`` over any chunking of a series yields the
        same scores, nonconformities and events as block size 1 (the
        sequential reference of the chunked engine; see
        ``docs/architecture.md``, "Streaming performance").

        Returns four aligned length-``B`` arrays: nonconformities,
        anomaly scores, drift flags and fine-tune flags.
        """
        block = np.atleast_2d(np.asarray(block, dtype=np.float64))
        n_steps = len(block)
        a_out = np.zeros(n_steps, dtype=np.float64)
        f_out = np.zeros(n_steps, dtype=np.float64)
        drift_out = np.zeros(n_steps, dtype=bool)
        fine_out = np.zeros(n_steps, dtype=bool)
        if n_steps == 0:
            return a_out, f_out, drift_out, fine_out

        if self.n_channels is None:
            self.n_channels = block.shape[1]
        elif block.shape[1] != self.n_channels:
            raise StreamError(
                f"stream vector at t={self.t + 1} has {block.shape[1]} channels, "
                f"expected {self.n_channels}"
            )
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            # Process the valid prefix, then fail at the offending step.
            bad = int(np.argmin(finite))
            self.step_chunk(block[:bad])
            raise StreamError(
                f"stream vector at t={self.t + 1} contains non-finite values"
            )

        tel = self.telemetry
        trace = tel.enabled
        if trace:
            tel.count("steps", n_steps)
            t0 = perf_counter()
        windows, n_cold = self.buffer.push_block(block)
        if trace:
            tel.add_time("represent", perf_counter() - t0, calls=n_steps)
        self.t += n_cold  # cold steps only advance the clock
        self._process_windows(
            windows, n_cold, n_steps, a_out, f_out, drift_out, fine_out
        )
        return a_out, f_out, drift_out, fine_out

    def _process_windows(
        self,
        windows: np.ndarray,
        n_cold: int,
        n_steps: int,
        a_out: np.ndarray,
        f_out: np.ndarray,
        drift_out: np.ndarray,
        fine_out: np.ndarray,
    ) -> None:
        """Run the segment loop over already-pushed windows.

        Factored out of :meth:`step_chunk` so the fleet engine can route
        a session back through the per-session machinery after the
        windows were pushed by the fused path.
        """
        i = n_cold
        while i < n_steps:
            if self.model.is_fitted:
                i += self._segment(
                    windows[i - n_cold :], i, a_out, f_out, drift_out, fine_out
                )
            else:
                self._prefit_step(windows[i - n_cold], fine_out, i)
                i += 1

    def _prefit_step(
        self, window: np.ndarray, fine_out: np.ndarray, i: int
    ) -> None:
        """One warm step before the initial fit (scores stay zero)."""
        self.t += 1
        x = np.array(window)
        update = self.train_strategy.update(x, score=0.0)
        self.drift_detector.observe(update, self.t)
        if self.min_train_size > self.train_strategy.capacity:
            self._initial_buffer.append(x)
            ready = len(self._initial_buffer) >= self.min_train_size
        else:
            ready = len(self.train_strategy) >= self.min_train_size
        if ready:
            self._initial_fit()
            fine_out[i] = True

    def _segment(
        self,
        windows: np.ndarray,
        i: int,
        a_out: np.ndarray,
        f_out: np.ndarray,
        drift_out: np.ndarray,
        fine_out: np.ndarray,
    ) -> int:
        """Commit a run of ``windows`` under the current ``theta``.

        The run ends at the first row whose Task-2 check fires, and the
        fine-tune on that row's training set closes the segment.  How the
        segment finds that row depends on whether Task 1 reads the score:

        - a score-blind strategy (SW, uRES) *decides, then scores*: the
          Task-1 update → observe → ``should_finetune`` replay runs
          first, so ``precompute`` and the measure and scorer folds run
          over exactly the committed rows (:meth:`_decide_then_score`);
        - a strategy whose update reads the score (ARES) *speculates*:
          it scores every row first and rolls back what a fire
          invalidates (:meth:`_speculate`).

        Both make the same Task-1 and Task-2 calls in the same order, and
        a row's precursors do not depend on the rows that share its
        ``precompute`` call, so either way the outputs equal a one-row
        loop's bit for bit.

        Returns the number of rows committed; fewer than the segment
        length means a fine-tune changed ``theta`` and the caller
        continues with the remainder under the new parameters.
        """
        if self.train_strategy.reads_score:
            n_commit, train_set = self._speculate(windows, i, a_out, f_out)
        else:
            n_commit, train_set = self._decide_then_score(windows, i, a_out, f_out)
        if train_set is not None:
            drift_out[i + n_commit - 1] = True
            fine_out[i + n_commit - 1] = True
            self._finetune(train_set)
        return n_commit

    def _decide_then_score(
        self, windows: np.ndarray, i: int, a_out: np.ndarray, f_out: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        """Replay Task 1 and Task 2 up to the first fire, then score the
        committed rows.

        Exact for a strategy that does not read the score: no decision
        depends on a score, so the decided rows are committed whatever
        they score, and each is scored once under the ``theta`` it would
        have been scored under anyway.  Nothing is snapshotted or rolled
        back.  Returns ``(rows committed, fine-tune training set or
        None)``.
        """
        train_set = None
        for k in range(len(windows)):
            train_set = self._decide(windows[k], 0.0)
            if train_set is not None:
                break
        n_commit = k + 1
        committed = windows[:n_commit]
        precursors = self._precompute(committed)
        if precursors is None and self.telemetry.enabled:
            self.telemetry.count("fallback_steps", n_commit)
        a_out[i : i + n_commit], f_out[i : i + n_commit] = self._fold(
            committed, precursors
        )
        return n_commit, train_set

    def _speculate(
        self, windows: np.ndarray, i: int, a_out: np.ndarray, f_out: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        """Score ``windows`` under frozen ``theta``, replay, roll back.

        The segment speculates that every row shares the current
        ``theta``: one batched ``precompute``, the measure folds and one
        scorer fold, then the per-step Task-1 update → observe →
        ``should_finetune`` replay with each row's score.  A fire before
        the last row rewinds the measure and scorer to the segment start
        and re-folds the committed prefix.  A one-row segment has nothing
        to rewind, so it takes no snapshot.  A measure with no batched
        path (``precompute`` returns ``None``) takes one-row segments
        through ``consume(None, ...)``, i.e. the measure's exact per-step
        call on the live model.  Returns ``(rows committed, fine-tune
        training set or None)``.
        """
        tel = self.telemetry
        precursors = self._precompute(windows)
        if precursors is None:
            windows = windows[:1]
            if tel.enabled:
                tel.count("fallback_steps")
        n_seg = len(windows)
        if n_seg > 1:
            measure_state = self.nonconformity.snapshot(self.model)
            scorer_state = self.scorer.snapshot()
        a_seg, f_seg = self._fold(windows, precursors)

        for k in range(n_seg):
            a_out[i + k] = a_seg[k]
            f_out[i + k] = f_seg[k]
            train_set = self._decide(windows[k], float(f_seg[k]))
            if train_set is None:
                continue
            if k + 1 < n_seg:
                tel.count("chunk_rollbacks")
                tel.event(
                    "chunk_rollback",
                    t=self.t,
                    committed=k + 1,
                    discarded=n_seg - (k + 1),
                )
                # Rewind measure and scorer to the segment start and
                # re-fold only the committed prefix, so their state
                # reflects exactly the steps up to the fine-tune.
                self.nonconformity.restore(measure_state, self.model)
                for prefix_k in range(k + 1):
                    self.nonconformity.consume(
                        precursors, prefix_k, windows[prefix_k], self.model
                    )
                self.scorer.restore(scorer_state)
                self.scorer.update_batch(a_seg[: k + 1])
            return k + 1, train_set
        return n_seg, None

    def _decide(self, window: np.ndarray, score: float) -> np.ndarray | None:
        """Task 1, then Task 2, for the next stream step.

        Returns the training set to fine-tune on when Task 2 fires, else
        ``None``.
        """
        tel = self.telemetry
        trace = tel.enabled
        self.t += 1
        if self.first_scored_step is None:
            self.first_scored_step = self.t
        x = np.array(window)
        if trace:
            t0 = perf_counter()
        update = self.train_strategy.update(x, score=score)
        self.drift_detector.observe(update, self.t)
        if trace:
            t1 = perf_counter()
            tel.add_time("task1-update", t1 - t0)
        # Materializing the training set is an ``np.stack`` over the
        # whole Task-1 buffer; skip it for detectors that decide
        # without it.
        needs_train_set = self.drift_detector.needs_train_set
        train_set = (
            self.train_strategy.training_set() if needs_train_set else NO_TRAIN_SET
        )
        fire = self.drift_detector.should_finetune(self.t, train_set)
        if trace:
            tel.add_time("task2-check", perf_counter() - t1)
        if not fire:
            return None
        tel.count("drift_fires")
        return train_set if needs_train_set else self.train_strategy.training_set()

    def _precompute(self, windows: np.ndarray) -> np.ndarray | None:
        """The measure's frozen-model precursors for ``windows``."""
        tel = self.telemetry
        if not tel.enabled:
            return self.nonconformity.precompute(windows, self.model)
        t0 = perf_counter()
        precursors = self.nonconformity.precompute(windows, self.model)
        tel.add_time("predict", perf_counter() - t0)
        return precursors

    def _fold(
        self, windows: np.ndarray, precursors: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold ``windows`` through the measure's and the scorer's state in
        stream order; return the nonconformities and scores.

        A one-row fold goes through ``scorer.update``; ``update_batch`` is
        documented bit-identical to looping it.
        """
        tel = self.telemetry
        trace = tel.enabled
        n_rows = len(windows)
        if trace:
            t0 = perf_counter()
        a_rows = np.empty(n_rows, dtype=np.float64)
        for k in range(n_rows):
            a_rows[k] = self.nonconformity.consume(
                precursors, k, windows[k], self.model
            )
        if trace:
            t1 = perf_counter()
            tel.add_time("nonconformity", t1 - t0, calls=n_rows)
        if n_rows > 1:
            f_rows = self.scorer.update_batch(a_rows)
        else:
            f_rows = np.array([self.scorer.update(float(a_rows[0]))])
        if trace:
            tel.add_time("score", perf_counter() - t1, calls=n_rows)
        return a_rows, f_rows

    # ------------------------------------------------------------------
    def _initial_fit(self) -> None:
        if self._initial_buffer:
            train_set = np.stack(self._initial_buffer)
            self._initial_buffer.clear()
        else:
            train_set = self.train_strategy.training_set()
        with self.telemetry.span("fine-tune"):
            loss = self.model.fit(train_set, epochs=self.fit_epochs)
        # Drift detection references the *maintained* set going forward.
        self.drift_detector.notify_finetuned(
            self.t, self.train_strategy.training_set()
        )
        self.telemetry.count("initial_fits")
        self.telemetry.event(
            "initial_fit",
            t=self.t,
            train_set_size=len(train_set),
            loss_after=float(loss),
        )
        self.events.append(
            FineTuneEvent(
                t=self.t,
                reason="initial_fit",
                train_set_size=len(train_set),
                loss_after=loss,
            )
        )

    def _finetune(self, train_set: np.ndarray) -> None:
        with self.telemetry.span("fine-tune"):
            loss = self.model.finetune(train_set, epochs=self.finetune_epochs)
        self._record_finetune(train_set, loss)

    def _record_finetune(self, train_set: np.ndarray, loss_after: float) -> None:
        """Book a fine-tune on ``train_set`` that just ran at ``self.t``.

        Shared by :meth:`_finetune` and the fleet engine's fused
        fine-tunes: the drift reference reset, the ``finetunes`` counter,
        the ``finetune`` event and the :class:`FineTuneEvent`.
        """
        self.drift_detector.notify_finetuned(self.t, train_set)
        self.telemetry.count("finetunes")
        self.telemetry.event(
            "finetune",
            t=self.t,
            reason=self.drift_detector.name,
            train_set_size=len(train_set),
            loss_after=float(loss_after),
        )
        self.events.append(
            FineTuneEvent(
                t=self.t,
                reason=self.drift_detector.name,
                train_set_size=len(train_set),
                loss_after=loss_after,
            )
        )

    # ------------------------------------------------------------------
    @property
    def n_finetunes(self) -> int:
        """Fine-tuning sessions so far, excluding the initial fit."""
        return count_finetunes(self.events)

    def reset(self) -> None:
        """Reset all streaming state (model parameters are kept)."""
        self.t = -1
        self.buffer.reset()
        self.train_strategy.reset()
        self.drift_detector.reset()
        self.scorer.reset()
        self.events.clear()
        self.first_scored_step = None
        self._initial_buffer.clear()

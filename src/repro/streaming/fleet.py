"""Cross-session fused inference: step K same-spec detectors as one fleet.

An online service typically runs many sessions of the *same* algorithm
spec (model class + hyperparameters + measure + learning strategy), one
per monitored entity.  Stepping them one by one leaves most of the
per-step cost in Python/numpy dispatch overhead repeated K times.  The
:class:`FleetEngine` fuses the happy path across sessions:

- model weights live in a :class:`~repro.nn.arena.ParameterArena` —
  each session's parameters are row views of shared ``(K, ...)`` stacks,
  so one session-axis batched forward scores every session's block at
  once (``np.matmul`` maps stacked operands to per-slice GEMMs, bitwise
  identical to per-session calls);
- the drift machinery is previewed session-vectorized: for the fusable
  Task-2 strategies the fine-tune decisions are independent of the
  anomaly scores, so one drift-lane table (never, regular, μ/σ-Change,
  KSWIN) previews them before anything is committed — a
  :class:`~repro.learning.drift.MuSigmaLane` replays a whole round of
  observe / should-finetune as array ops along the time axis
  (cumulative sums over blocks of the ``(K, B, D)`` updates, seeded
  from ``(K, D)`` state *copies*), a
  :class:`~repro.learning.kswin.KswinLane` steps copies of the KSWIN
  rank counters one row at a time;
- sessions whose preview fires *stay on the fused path*: the round-based
  drain scores fused up to each session's previewed fire offset, groups
  the co-firing sessions and runs one session-axis fused fine-tune per
  group (``model.fleet_finetune`` — stacked minibatch forward/backward
  with per-session loss reduction and an :class:`~repro.nn.AdamLane`
  step), then resumes fused scoring on the remaining rows under the new
  parameters;
- the anomaly scorer runs session-axis too: each round folds every
  session's nonconformity span through one stacked
  :meth:`~repro.scoring.anomaly_score.AnomalyLikelihood.fleet_update_batch`
  window reduction instead of K separate scorer dispatches;
- sessions that fail an eligibility check (or whose group has no fused
  trainer) run the stock per-session engine — their state was never
  touched, so no rollback is needed — and rejoin the fleet at the next
  drain automatically;
- in a fleet below ``min_fleet`` sessions every member is ineligible:
  with nothing to batch over, the session-axis stacking only adds
  overhead, so the drain routes straight to the per-session engine;
- traced members stay fused: the engine records each member's
  per-session telemetry itself (``steps``, the framework stage spans,
  fine-tune counters and events), timing each stage once per round and
  crediting every member its share by rows (:meth:`FleetEngine._credit`).

Everything is gated on bitwise equivalence: a fused drain produces
exactly the scores, events, counters and checkpoint state that K
separate :meth:`~repro.core.detector.StreamingAnomalyDetector.step_chunk`
calls would have produced (pinned by ``tests/test_fleet.py``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.detector import StreamingAnomalyDetector
from repro.core.representation import WindowRepresentation
from repro.learning.drift import (
    MuSigmaChange,
    MuSigmaLane,
    NeverFineTune,
    RegularFineTuning,
)
from repro.learning.kswin import KSWIN, KswinLane
from repro.learning.sliding_window import SlidingWindow
from repro.nn.arena import FleetIncompatible, ParameterArena
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.scoring.anomaly_score import AnomalyLikelihood

#: Block results as returned by ``step_chunk``: (nonconformities,
#: scores, drift flags, fine-tune flags), each aligned with the block.
BlockResult = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# drift lanes: how each fusable Task-2 strategy previews and commits
# ----------------------------------------------------------------------
class _NeverPreview:
    """Drift lane of :class:`NeverFineTune`, and the lane interface.

    ``ready(det)`` says whether a member's drift state can join a fused
    drain, ``same(a, b)`` whether two members' detectors can share one
    lane.  An instance is one round's preview: ``fired_at`` holds each
    session's first previewed fire offset (-1 for none) and
    :meth:`commit` settles a session's committed span into its detector.
    """

    @staticmethod
    def ready(det: StreamingAnomalyDetector) -> bool:
        return True

    @staticmethod
    def same(a, b) -> bool:
        return True

    def __init__(
        self,
        detectors: list[StreamingAnomalyDetector],
        remaining: list[tuple[int, np.ndarray]],
    ) -> None:
        self.fired_at = np.full(len(remaining), -1, dtype=np.int64)

    def commit(self, i: int, det: StreamingAnomalyDetector, n: int) -> None:
        pass


class _RegularPreview(_NeverPreview):
    """Fires at every multiple of the interval: clock arithmetic."""

    @staticmethod
    def same(a: RegularFineTuning, b: RegularFineTuning) -> bool:
        return a.interval == b.interval

    def __init__(self, detectors, remaining) -> None:
        super().__init__(detectors, remaining)
        for i, (k, windows) in enumerate(remaining):
            det = detectors[k]
            interval = det.drift_detector.interval
            t_next = (det.t // interval + 1) * interval
            if t_next <= det.t + len(windows):
                self.fired_at[i] = t_next - det.t - 1

    def commit(self, i, det, n) -> None:
        det.drift_detector.ops.comparisons += n


class _ReplayPreview(_NeverPreview):
    """Replays each session's training-set updates on state copies to
    find its first fire.  The decisions depend on the updates only,
    never on the scores, so they can be previewed before anything is
    scored.  The round's updates are stacked into ``(K, B, ...)`` added
    and removed arrays and a ``(K, B)`` replaced mask, zero-padded past
    each session's row count; subclasses ``replay`` them through their
    lane and return the fire offsets.  The arrays are dropped once the
    preview is done."""

    def __init__(self, detectors, remaining) -> None:
        super().__init__(detectors, remaining)
        lengths = np.array([len(w) for _, w in remaining])
        shape = (len(remaining), int(lengths.max())) + remaining[0][1].shape[1:]
        added = np.zeros(shape, dtype=np.float64)
        removed = np.zeros(shape, dtype=np.float64)
        replaced = np.zeros(shape[:2], dtype=bool)
        for i, (k, windows) in enumerate(remaining):
            b = len(windows)
            added[i, :b] = windows
            rep, rem = detectors[k].train_strategy.preview_block(windows)
            replaced[i, :b] = rep
            removed[i, :b] = rem
        self.fired_at = self.replay(
            [detectors[k] for k, _ in remaining], added, removed, replaced, lengths
        )


class _MuSigmaPreview(_ReplayPreview):
    """The whole round in one :meth:`MuSigmaLane.step`: time-axis
    cumulative sums over the stacked updates."""

    @staticmethod
    def ready(det) -> bool:
        return det.drift_detector.fuse_ready

    @staticmethod
    def same(a: MuSigmaChange, b: MuSigmaChange) -> bool:
        return a.aggregate == b.aggregate and a.std_factor == b.std_factor

    def replay(self, detectors, added, removed, replaced, lengths) -> np.ndarray:
        self.lane = MuSigmaLane([det.drift_detector for det in detectors])
        return self.lane.step(added, removed, replaced, lengths)

    def commit(self, i, det, n) -> None:
        self.lane.commit(i, det.drift_detector)


class _KswinPreview(_ReplayPreview):
    """KSWIN over a full sliding window of stream windows: every update
    replaces one window, so the rank counters stack into one
    :class:`KswinLane`, stepped one row at a time (KSWIN tends to fire a
    few rows into a round, so a time-axis pass would mostly preview
    rows that are never committed)."""

    @staticmethod
    def ready(det) -> bool:
        drift, strategy = det.drift_detector, det.train_strategy
        return (
            type(det.buffer.representation) is WindowRepresentation
            and strategy.is_full
            and drift.fuse_ready
            and drift.tracks((len(strategy), det.window, det.n_channels))
        )

    @staticmethod
    def same(a: KSWIN, b: KSWIN) -> bool:
        return a._reference.shape == b._reference.shape

    def replay(self, detectors, added, removed, replaced, lengths) -> np.ndarray:
        self.lane = KswinLane(
            [det.drift_detector for det in detectors],
            [det.t for det in detectors],
            added,
            removed,
        )
        fired_at = np.full(len(lengths), -1, dtype=np.int64)
        alive = np.ones(len(lengths), dtype=bool)
        for j in range(added.shape[1]):
            active = alive & (j < lengths)
            if not active.any():
                break
            idx = np.flatnonzero(active)
            newly = idx[self.lane.step(idx, j)]
            fired_at[newly] = j
            alive[newly] = False
        return fired_at

    def commit(self, i, det, n) -> None:
        self.lane.commit(i, det.drift_detector, n)


#: The fusable Task-2 strategies, by exact type.
_DRIFT_LANES: dict[type, type[_NeverPreview]] = {
    NeverFineTune: _NeverPreview,
    RegularFineTuning: _RegularPreview,
    MuSigmaChange: _MuSigmaPreview,
    KSWIN: _KswinPreview,
}


class FleetEngine:
    """Step a fleet of same-spec detectors through fused kernels.

    Args:
        detectors: the member sessions.  They should share one algorithm
            spec; members that do not (or that are in a non-fusable
            state) are transparently stepped through their own
            per-session engine.
        min_fleet: in a fleet smaller than this every member is
            ineligible, so it drains per session (BENCH_fleet.json showed
            the fused path ~0.7x at K=1: stacking overhead with nothing
            to batch).  The serve scheduler drains a lone session through
            a one-member engine, so this is the only K=1 bypass.
        telemetry: engine-level sink; only used for the
            ``stage:finetune_fused`` span.  Member detectors keep their
            own telemetry: traced members fuse like untraced ones, and
            the engine records their per-session counters and stage
            spans (fleet-granular, credited by rows).

    The engine owns no session state: detectors can be stepped outside
    the fleet between drains, checkpointed, or removed at any time.  The
    weight arena attaches row views to the members' parameters lazily
    and survives in-place fine-tunes; it is rebuilt automatically if a
    member's parameters are rebound (e.g. ``load_state``).
    """

    def __init__(
        self,
        detectors: list[StreamingAnomalyDetector],
        min_fleet: int = 2,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not detectors:
            raise ValueError("fleet needs at least one detector")
        self.detectors = list(detectors)
        self.min_fleet = max(1, int(min_fleet))
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._arena: ParameterArena | None = None
        self._arena_unfusable = False
        #: cumulative step counters by lane, for manifests/stats.
        self.fused_steps = 0
        self.dirty_steps = 0
        self.stock_steps = 0
        self.drains = 0
        self.bypassed_drains = 0
        #: fused training counters (sessions fine-tuned through
        #: ``fleet_finetune`` and the training points they consumed).
        self.finetunes_fused = 0
        self.points_fused_training = 0
        #: per-drain breakdown of the last :meth:`step_chunk` call.
        self.last_drain: dict = {"fused": [], "dirty": [], "stock": []}

    # ------------------------------------------------------------------
    def step_chunk(self, blocks: list[np.ndarray]) -> list[BlockResult]:
        """Step detector ``k`` through ``blocks[k]``, fusing where possible.

        Bitwise equivalent to ``[det.step_chunk(b) for det, b in
        zip(self.detectors, blocks)]`` — including checkpoint state, drift
        events and op counters — for any mix of fused/dirty/stock lanes.
        """
        if len(blocks) != len(self.detectors):
            raise ValueError(
                f"expected {len(self.detectors)} blocks, got {len(blocks)}"
            )
        self.drains += 1
        results: list[BlockResult | None] = [None] * len(self.detectors)
        self.last_drain = {"fused": [], "dirty": [], "stock": []}

        # Pass 1: static eligibility + fleet uniformity (no state touched).
        # Below ``min_fleet`` every member is ineligible: with nothing to
        # batch over, the session-axis stacking only adds overhead.
        bypass = len(self.detectors) < self.min_fleet
        if bypass:
            self.bypassed_drains += 1
        candidates: list[tuple[int, np.ndarray]] = []
        reference: StreamingAnomalyDetector | None = None
        for k, raw in enumerate(blocks):
            block = np.atleast_2d(np.asarray(raw, dtype=np.float64))
            det = self.detectors[k]
            if bypass or not self._eligible(det, block) or (
                reference is not None and not self._uniform(reference, det)
            ):
                self.last_drain["stock"].append(k)
                self.stock_steps += len(block)
                results[k] = det.step_chunk(raw)
                continue
            if reference is None:
                reference = det
            candidates.append((k, block))
        if not candidates:
            return results  # type: ignore[return-value]

        # Pass 2: push windows once (shared with the stock path) and
        # preallocate each candidate's output arrays.  Traced members
        # record ``steps`` and ``represent`` here, as ``step_chunk`` does.
        active: list[list] = []  # mutable [k, windows, pos] per session
        for k, block in candidates:
            det = self.detectors[k]
            tel = det.telemetry
            if tel.enabled:
                tel.count("steps", len(block))
                t0 = perf_counter()
            windows, n_cold = det.buffer.push_block(block)
            if tel.enabled:
                tel.add_time("represent", perf_counter() - t0, calls=len(block))
            assert n_cold == 0  # guaranteed by the warm-buffer check
            n = len(windows)
            results[k] = (
                np.zeros(n, dtype=np.float64),
                np.zeros(n, dtype=np.float64),
                np.zeros(n, dtype=bool),
                np.zeros(n, dtype=bool),
            )
            active.append([k, windows, 0])

        # Pass 3: fused rounds.  Each round previews the next fine-tune
        # offset per session on state copies, scores fused up to it,
        # commits, runs the co-firing sessions' fine-tunes (fused when
        # the group allows), and re-enters with the remaining rows under
        # the new parameters — so fired sessions never leave the fused
        # path.  Every session advances by at least one row per round.
        while active:
            remaining = [(k, windows[pos:]) for k, windows, pos in active]
            t0 = perf_counter()
            fired_at = self._preview_drift(remaining)
            spans = [
                int(fired_at[i]) + 1 if fired_at[i] >= 0 else len(w)
                for i, (_, w) in enumerate(remaining)
            ]
            t1 = perf_counter()
            predictions = self._fused_predictions(
                {k: w[:span] for (k, w), span in zip(remaining, spans)}
            )
            if predictions is None:
                # Arena unavailable: finish every session on its own
                # segment loop (windows pushed, state current), writing
                # through views of its result arrays.
                for (k, w), (_, _, pos) in zip(remaining, active):
                    if pos == 0:
                        self.last_drain["stock"].append(k)
                        self.stock_steps += len(w)
                    else:
                        self.last_drain["dirty"].append(k)
                        self.dirty_steps += len(w)
                    self.detectors[k]._process_windows(
                        w, 0, len(w), *(out[pos:] for out in results[k])
                    )
                return results  # type: ignore[return-value]

            # Nonconformity per session, then one session-axis scorer
            # update over the whole round (sessions are independent, so
            # hoisting the scorer out of the per-session loop commutes).
            t2 = perf_counter()
            a_outs = [
                self._span_nonconformity(k, w[:span], predictions[k])
                for (k, w), span in zip(remaining, spans)
            ]
            t3 = perf_counter()
            f_outs = AnomalyLikelihood.fleet_update_batch(
                [self.detectors[k].scorer for k, _ in remaining], a_outs
            )
            t4 = perf_counter()
            fired: list[int] = []
            for i, ((k, w), span, entry) in enumerate(
                zip(remaining, spans, active)
            ):
                if entry[2] == 0:
                    self.last_drain["fused"].append(k)
                did_fire = fired_at[i] >= 0
                self._commit_span(
                    k, i, w[:span], a_outs[i], f_outs[i],
                    results[k], entry[2], did_fire,
                )
                self.fused_steps += span
                if did_fire:
                    fired.append(k)
            # The drift preview is the round's Task-2 check, the span
            # commit its Task-1 update (training set + drift state).
            self._credit(
                [k for k, _ in remaining],
                spans,
                (
                    ("task2-check", t1 - t0),
                    ("predict", t2 - t1),
                    ("nonconformity", t3 - t2),
                    ("score", t4 - t3),
                    ("task1-update", perf_counter() - t4),
                ),
            )
            if fired:
                self._finetune_fired(fired)
            still: list[list] = []
            for entry, span in zip(active, spans):
                entry[2] += span
                if entry[2] < len(entry[1]):
                    still.append(entry)
            active = still
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _eligible(self, det: StreamingAnomalyDetector, block: np.ndarray) -> bool:
        """Can this session's block take the fused happy path at all?"""
        if len(block) == 0:
            return False
        if not det.model.is_fitted or det.model.fleet_modules() is None:
            return False
        if det.n_channels is None or block.shape[1] != det.n_channels:
            return False
        if not det.buffer.is_warm:
            return False
        if type(det.train_strategy) is not SlidingWindow:
            return False
        if not det.nonconformity.supports_fused:
            return False
        lane = _DRIFT_LANES.get(type(det.drift_detector))
        if lane is None or not lane.ready(det):
            return False
        return bool(np.isfinite(block).all())

    @staticmethod
    def _uniform(
        ref: StreamingAnomalyDetector, det: StreamingAnomalyDetector
    ) -> bool:
        """Does ``det`` share the fleet spec of the reference session?"""
        if type(det.model) is not type(ref.model):
            return False
        if type(det.nonconformity) is not type(ref.nonconformity):
            return False
        # Same window geometry, or the session-axis stack won't line up.
        if det.buffer._ring.shape != ref.buffer._ring.shape:
            return False
        if type(det.buffer.representation) is not type(ref.buffer.representation):
            return False
        a, b = det.drift_detector, ref.drift_detector
        return type(a) is type(b) and _DRIFT_LANES[type(a)].same(a, b)

    # ------------------------------------------------------------------
    def _preview_drift(
        self, remaining: list[tuple[int, np.ndarray]]
    ) -> np.ndarray:
        """First previewed fine-tune offset per session, -1 when none.

        For the fusable Task-2 strategies the decision sequence is a
        function of the training-set updates (never the scores), so the
        round's drift lane computes it before any scoring — on copies, so
        the members' state stays untouched until the span is committed.
        ``remaining`` carries each session's not-yet-scored windows; the
        preview is rebuilt per round so a fine-tune's ``notify_finetuned``
        reference reset is picked up by the next round automatically.
        """
        drift0 = self.detectors[remaining[0][0]].drift_detector
        self._round = _DRIFT_LANES[type(drift0)](self.detectors, remaining)
        return self._round.fired_at

    # ------------------------------------------------------------------
    def _fused_predictions(
        self, windows_by_session: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray] | None:
        """One session-axis batched forward over every clean session.

        Returns per-session predictions bitwise identical to
        ``model.predict_batch`` per session, or ``None`` when no arena
        can be built (the caller then falls back to the stock path).
        """
        arena = self._ensure_arena()
        if arena is None:
            return None
        model_cls = type(self.detectors[0].model)
        models = [det.model for det in self.detectors]
        first = next(iter(windows_by_session.values()))
        empty = np.empty((0,) + first.shape[1:], dtype=np.float64)
        windows_list = [
            windows_by_session.get(k, empty)
            for k in range(len(self.detectors))
        ]
        outputs = model_cls.fleet_predict_batch(
            models, arena.mirror, windows_list
        )
        return {k: outputs[k] for k in windows_by_session}

    def _ensure_arena(self) -> ParameterArena | None:
        if self._arena_unfusable:
            return None
        if self._arena is None or not self._arena.synced():
            try:
                self._arena = ParameterArena(
                    [det.model.fleet_modules() for det in self.detectors]
                )
            except FleetIncompatible:
                self._arena_unfusable = True
                self._arena = None
        return self._arena

    # ------------------------------------------------------------------
    def _span_nonconformity(
        self, k: int, windows: np.ndarray, predictions: np.ndarray
    ) -> np.ndarray:
        """Fold one session's span of predictions through the measure."""
        det = self.detectors[k]
        measure = det.nonconformity
        precursors = measure.from_predictions(windows, predictions, det.model)
        if measure.stateless_consume:
            return np.asarray(precursors, dtype=np.float64)
        a_out = np.empty(len(windows), dtype=np.float64)
        for j in range(len(windows)):
            a_out[j] = measure.consume(precursors, j, windows[j], det.model)
        return a_out

    def _commit_span(
        self,
        k: int,
        i: int,
        windows: np.ndarray,
        a_out: np.ndarray,
        f_out: np.ndarray,
        result: BlockResult,
        pos: int,
        fired: bool,
    ) -> None:
        """Commit one session's scored fused span into its result.

        Replays exactly what the stock segment loop does for the rows up
        to (and including) a previewed fire: extend the training set,
        advance the drift state and the clock.  The nonconformities and
        scores were already computed (the scorer session-axis across the
        round); the fine-tune itself (when ``fired``) runs afterwards in
        :meth:`_finetune_fired`, grouped with the round's co-firing
        sessions.
        """
        det = self.detectors[k]
        n = len(windows)
        f_out = np.asarray(f_out, dtype=np.float64)
        if det.first_scored_step is None:
            det.first_scored_step = det.t + 1
        det.train_strategy.commit_block(windows)
        self._round.commit(i, det, n)
        det.t += n
        a_res, f_res, d_res, fi_res = result
        a_res[pos : pos + n] = a_out
        f_res[pos : pos + n] = f_out
        if fired:
            d_res[pos + n - 1] = True
            fi_res[pos + n - 1] = True
            det.telemetry.count("drift_fires")

    def _finetune_fired(self, fired: list[int]) -> None:
        """Fine-tune the round's fired sessions, fused where groupable.

        Sessions are grouped by ``(finetune_epochs, train-set size)`` —
        the only two quantities the training loop's structure depends on
        (spec uniformity is already guaranteed by pass 1).  Each group of
        two or more runs one session-axis ``fleet_finetune``; singletons
        and groups the model declines (``None``) take the per-session
        :meth:`~repro.core.detector.StreamingAnomalyDetector._finetune`,
        which is bitwise the same.
        """
        train_sets = {
            k: self.detectors[k].train_strategy.training_set() for k in fired
        }
        groups: dict[tuple[int, int], list[int]] = {}
        for k in fired:
            det = self.detectors[k]
            key = (det.finetune_epochs, len(train_sets[k]))
            groups.setdefault(key, []).append(k)
        for (epochs, _), members in groups.items():
            fused = None
            if len(members) >= 2:
                models = [self.detectors[k].model for k in members]
                t0 = perf_counter()
                fused = type(models[0]).fleet_finetune(
                    models, [train_sets[k] for k in members], epochs
                )
                elapsed = perf_counter() - t0
                self.telemetry.add_time("stage:finetune_fused", elapsed)
            if fused is None:
                for k in members:
                    self.detectors[k]._finetune(train_sets[k])
                continue
            # One fine-tune per member; the group shares one train-set
            # size, so an equal split is the split by rows.
            self._credit(members, [1] * len(members), (("fine-tune", elapsed),))
            for k, loss in zip(members, fused):
                self.detectors[k]._record_finetune(train_sets[k], loss)
            self.finetunes_fused += len(members)
            self.points_fused_training += sum(
                len(train_sets[k]) for k in members
            )

    def _credit(
        self,
        members: list[int],
        rows: list[int],
        stages: tuple[tuple[str, float], ...],
    ) -> None:
        """Credit fleet-granular stage times to the traced members.

        Each stage was timed once for the whole fleet; member ``k`` gets
        the share proportional to the ``rows`` it contributed, recorded
        with ``calls`` = its rows.  Only timings are attributed here;
        counters and events are recorded exactly once per member where
        the work happens, so no row is counted twice.
        """
        total = sum(rows)
        for k, n in zip(members, rows):
            tel = self.detectors[k].telemetry
            if tel.enabled:
                for name, seconds in stages:
                    tel.add_time(name, seconds * n / total, calls=n)

    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """JSON-safe summary of the fleet for stats endpoints and logs."""
        arena = self._arena
        arena_info: dict = {"built": arena is not None}
        if arena is not None:
            arena_info.update(
                synced=arena.synced(),
                stacks=len(arena._bindings),
                bytes=int(
                    sum(stack.nbytes for _, stack in arena._bindings)
                ),
            )
        total = self.fused_steps + self.dirty_steps + self.stock_steps
        return {
            "sessions": len(self.detectors),
            "min_fleet": self.min_fleet,
            "drains": self.drains,
            "bypassed_drains": self.bypassed_drains,
            "fused_steps": self.fused_steps,
            "dirty_steps": self.dirty_steps,
            "stock_steps": self.stock_steps,
            "fused_fraction": (self.fused_steps / total) if total else 0.0,
            "finetunes_fused": self.finetunes_fused,
            "points_fused_training": self.points_fused_training,
            "arena": arena_info,
            "last_drain": self.last_drain,
        }

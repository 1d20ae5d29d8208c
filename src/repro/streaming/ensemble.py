"""Score-fusion ensembles of streaming detectors.

FuseAD (related work §II) combines an ARIMA model with a CNN by fusing
their scores; this module generalises the idea to any set of framework
detectors.  Each member processes every stream vector independently (its
own training set, drift detection and fine-tuning), and the ensemble's
anomaly score fuses the members' per-step scores.

Fusion rules:

- ``"mean"`` — average member score (smooth, robust to one noisy member);
- ``"max"`` — most alarmed member wins (sensitive, unions the detectors'
  coverage);
- ``"median"`` — majority behaviour, robust to outlier members.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import ConfigurationError
from repro.core.types import StepResult, StreamVector

FUSION_RULES = ("mean", "max", "median")


class EnsembleDetector:
    """Run several detectors in lockstep and fuse their scores.

    Exposes the same ``step`` interface as a single
    :class:`~repro.core.detector.StreamingAnomalyDetector`, so it drops
    into :func:`~repro.streaming.runner.run_stream` unchanged.

    Args:
        members: detectors to run; each keeps its own learning strategy.
        fusion: one of ``"mean"``, ``"max"``, ``"median"``.
        postprocess: optional calibration chain applied to the *fused*
            anomaly scores — postprocessor names accepted by
            :func:`repro.select.postprocess.make_postprocessor` (e.g.
            ``["zscore"]`` or ``["minmax", "ewma:0.3"]``).  PySAD-style
            composition: each stage is a streaming transform updated
            point by point, so the calibrated scores remain a pure
            function of the score prefix (deterministic, replayable).
            Empty chain (the default) leaves scores untouched.
    """

    def __init__(
        self,
        members: list[StreamingAnomalyDetector],
        fusion: str = "mean",
        postprocess: list | None = None,
    ) -> None:
        if not members:
            raise ConfigurationError("ensemble needs at least one member")
        if fusion not in FUSION_RULES:
            raise ConfigurationError(
                f"fusion must be one of {FUSION_RULES}, got {fusion!r}"
            )
        self.members = list(members)
        self.fusion = fusion
        if postprocess:
            from repro.select.postprocess import make_postprocessor

            self.postprocess = [
                stage if hasattr(stage, "update") else make_postprocessor(stage)
                for stage in postprocess
            ]
        else:
            self.postprocess = []
        self.t = -1

    def _fuse(self, values: list[float]) -> float:
        if self.fusion == "mean":
            return float(np.mean(values))
        if self.fusion == "max":
            return float(np.max(values))
        return float(np.median(values))

    def _fuse_rows(self, rows: np.ndarray) -> np.ndarray:
        """Fuse a ``(B, n_members)`` block of per-step member values.

        Rows are C-contiguous, so the axis-1 reductions see each step's
        member values in the same memory order as :meth:`_fuse` sees its
        per-step list — the block path is bitwise identical to fusing
        step by step.
        """
        if self.fusion == "mean":
            return np.mean(rows, axis=1)
        if self.fusion == "max":
            return np.max(rows, axis=1)
        return np.median(rows, axis=1)

    def step(self, s: StreamVector) -> StepResult:
        """Feed one stream vector to every member; return the fused result.

        A one-row :meth:`step_chunk`, as
        :meth:`StreamingAnomalyDetector.step` is, so a ``step`` loop and
        one :meth:`step_chunk` call are the same computation — the
        ensemble has a single scoring path whichever way it is driven.
        """
        a, f, drift, fine = self.step_chunk(np.asarray(s, dtype=np.float64))
        return StepResult(
            t=self.t,
            nonconformity=float(a[0]),
            score=float(f[0]),
            drift_detected=bool(drift[0]),
            finetuned=bool(fine[0]),
        )

    def step_chunk(
        self, block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Process a ``(B, N)`` block through every member and fuse per step.

        Each member consumes the whole block through its own chunked
        engine (members are fully independent, so member order does not
        matter), then the per-step member scores are fused exactly as
        :meth:`step` fuses them — the result is bitwise identical to
        ``B`` sequential :meth:`step` calls for any block size, which is
        what lets ensembles ride the micro-batch scheduler in
        :mod:`repro.serve`.

        Returns four aligned length-``B`` arrays: fused nonconformities,
        fused anomaly scores, drift flags and fine-tune flags (a step's
        flag is set when *any* member drifted / fine-tuned there).
        """
        block = np.atleast_2d(np.asarray(block, dtype=np.float64))
        n_steps = len(block)
        drift_out = np.zeros(n_steps, dtype=bool)
        fine_out = np.zeros(n_steps, dtype=bool)
        if n_steps == 0:
            return (
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.float64),
                drift_out,
                fine_out,
            )
        member_a = np.empty((n_steps, len(self.members)), dtype=np.float64)
        member_f = np.empty((n_steps, len(self.members)), dtype=np.float64)
        for j, member in enumerate(self.members):
            a, f, drift, fine = member.step_chunk(block)
            member_a[:, j] = a
            member_f[:, j] = f
            drift_out |= drift
            fine_out |= fine
        self.t += n_steps
        fused_f = self._fuse_rows(member_f)
        if self.postprocess:
            # Point-by-point in stream order: each stage is a streaming
            # transform, so the block path stays bitwise identical to a
            # step loop for any chunking.
            for i in range(n_steps):
                value = float(fused_f[i])
                for stage in self.postprocess:
                    value = stage.update(value)
                fused_f[i] = value
        return (
            self._fuse_rows(member_a),
            fused_f,
            drift_out,
            fine_out,
        )

    # ------------------------------------------------------------------
    # run_stream compatibility
    # ------------------------------------------------------------------
    @property
    def first_scored_step(self) -> int | None:
        """First step at which *every* member produced a real score."""
        member_starts = [m.first_scored_step for m in self.members]
        if any(start is None for start in member_starts):
            return None
        return max(member_starts)  # type: ignore[arg-type]

    @property
    def events(self) -> list:
        """All members' fine-tune events, ordered by step."""
        merged = [event for member in self.members for event in member.events]
        return sorted(merged, key=lambda event: event.t)

    @property
    def model(self):
        """The first member's model (for result labelling)."""
        return self.members[0].model

    @property
    def n_finetunes(self) -> int:
        return sum(member.n_finetunes for member in self.members)

    def reset(self) -> None:
        self.t = -1
        for member in self.members:
            member.reset()
        for stage in self.postprocess:
            stage.reset()

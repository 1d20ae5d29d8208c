"""Challenger shadow lanes: race N specs against a live champion.

A :class:`SelectionRace` rides one serve session.  Every micro-batch
the champion scores, the race *observes*: each challenger lane steps
the same block through its own detector (the ordinary chunked engine —
the same code path the champion uses), folds the resulting losses into
its prequential :class:`~repro.select.policy.LaneStats`, and the
selection policy decides whether a challenger has durably won.  Lane
scores never reach the client — the champion's results are already in
the session's buffer (and its latency reservoir) before the race runs,
which is what keeps shadow cost out of the user-facing ingest-latency
percentiles.

Lanes are clock-aligned with the champion by construction: they are
built at the session's stream offset
(:meth:`Recipe.build(at=) <repro.core.registry.Recipe.build>`), so at any
instant ``lane.detector.t == champion.t`` and a promotion hands over the
stream with no offset arithmetic.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.registry import Recipe
from repro.select.policy import (
    LaneStats,
    SelectionConfig,
    SelectionPolicy,
    make_policy,
)


class ChallengerLane:
    """One challenger: its recipe and the shadow detector built from it.

    The recipe is what a promotion installs on the session — and what a
    demotion keeps, so the old champion can race on as a challenger.
    """

    def __init__(self, recipe: Recipe, detector: Any) -> None:
        self.recipe = recipe
        self.detector = detector
        self.stats = LaneStats()


class SelectionRace:
    """Champion/challenger racing state attached to one session.

    The champion is the session's detector and recipe; a swap installs
    the promoted lane's there, and a demotion keeps the old one racing.

    Args:
        lanes: the challenger lanes (clock-aligned with the champion).
        policy: the promote decider.
        config: shared policy knobs.
        demote: keep a promoted-over champion as a new challenger lane
            (enables swapping back on recurring drift).  ``False`` drops
            it.
    """

    def __init__(
        self,
        lanes: list[ChallengerLane],
        policy: SelectionPolicy,
        config: SelectionConfig,
        demote: bool = True,
    ) -> None:
        if not lanes:
            raise ConfigurationError("a selection race needs >= 1 challenger")
        self.lanes = list(lanes)
        self.policy = policy
        self.config = config
        self.demote = bool(demote)
        self.champion_stats = LaneStats()
        self.points_since_swap = 0
        self.promotions = 0
        #: promotion history (``{"t", "from", "to"}`` dicts, in order).
        self.events: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def observe(
        self,
        block: np.ndarray,
        champ_result: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        champ_detector: Any,
    ) -> ChallengerLane | None:
        """Shadow-score one block, update signals, ask the policy.

        Called after the champion's ``flush_finish`` with the same block
        and its ``step_chunk`` result.  Returns the lane to promote, or
        ``None``.  Caller holds the session lock.
        """
        a, _, drift, _ = champ_result
        alpha = self.config.ewma_alpha
        for lane in self.lanes:
            lane_a, _, lane_drift, _ = lane.detector.step_chunk(block)
            if getattr(lane.detector, "first_scored_step", 0) is not None:
                lane.stats.update(lane_a, lane_drift, alpha)
            else:
                lane.stats.skip(len(block))
        if getattr(champ_detector, "first_scored_step", 0) is not None:
            self.champion_stats.update(np.asarray(a), np.asarray(drift), alpha)
        else:
            self.champion_stats.skip(len(block))
        self.points_since_swap += len(block)
        index = self.policy.step(
            self.champion_stats,
            [lane.stats for lane in self.lanes],
            len(block),
            self.points_since_swap,
        )
        return None if index is None else self.lanes[index]

    # ------------------------------------------------------------------
    def describe(self, champion: str) -> dict[str, Any]:
        """JSON-safe selection block for ``stats`` / ``describe``;
        ``champion`` is the session's spec label."""
        fire_weight = self.config.fire_weight
        return {
            "policy": self.policy.name,
            "config": {
                "warmup": self.config.warmup,
                "margin": self.config.margin,
                "dwell": self.config.dwell,
                "min_dwell": self.config.min_dwell,
                "ewma_alpha": self.config.ewma_alpha,
                "fire_weight": fire_weight,
                "ucb_c": self.config.ucb_c,
            },
            "champion": {
                "spec": champion,
                **self.champion_stats.as_dict(fire_weight),
            },
            "challengers": [
                {
                    "spec": lane.recipe.label,
                    "t": int(getattr(lane.detector, "t", -1)),
                    **lane.stats.as_dict(fire_weight),
                }
                for lane in self.lanes
            ],
            "demote": self.demote,
            "points_since_swap": self.points_since_swap,
            "promotions": self.promotions,
            "events": [dict(event) for event in self.events],
        }


def build_race(
    select: dict[str, Any], champion: Recipe, at: int = 0
) -> SelectionRace:
    """Build a :class:`SelectionRace` from a ``select`` request dict.

    The dict shape (the ``create`` verb's ``select`` field)::

        {"challengers": ["usad+ares+kswin",
                         {"spec": "online_arima+sw+musigma",
                          "config": {...}, "scorer": "al"}],
         "policy": "ewma", "warmup": 64, "margin": 0.05, "dwell": 32,
         "min_dwell": 256, "ewma_alpha": 0.05, "fire_weight": 0.25,
         "ucb_c": 1.0, "demote": true}

    Challenger entries inherit the champion's channel count, detector
    config and scorer unless they override the last two.  ``at`` is the
    session's current stream offset — lanes are built there so their
    clocks track the champion's.
    """
    challengers = select.get("challengers")
    if not isinstance(challengers, (list, tuple)) or not challengers:
        raise ConfigurationError(
            "select needs a non-empty 'challengers' list of registry specs"
        )
    try:
        config = SelectionConfig(
            policy=str(select.get("policy", "ewma")),
            warmup=int(select.get("warmup", 64)),
            margin=float(select.get("margin", 0.05)),
            dwell=int(select.get("dwell", 32)),
            min_dwell=int(select.get("min_dwell", 256)),
            ewma_alpha=float(select.get("ewma_alpha", 0.05)),
            fire_weight=float(select.get("fire_weight", 0.25)),
            ucb_c=float(select.get("ucb_c", 1.0)),
        )
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"bad select config: {error}") from None
    lanes: list[ChallengerLane] = []
    for entry in challengers:
        if isinstance(entry, str):
            entry = {"spec": entry}
        if not isinstance(entry, dict) or "spec" not in entry:
            raise ConfigurationError(
                f"challenger entries are spec strings or "
                f"{{'spec': ...}} dicts, got {entry!r}"
            )
        if entry["spec"] == champion.label and not entry.get("config"):
            raise ConfigurationError(
                f"challenger {entry['spec']!r} is identical to the champion"
            )
        recipe = Recipe.parse(
            entry["spec"],
            champion.n_channels,
            entry.get("config") or champion.config,
            entry.get("scorer", champion.scorer),
        )
        lanes.append(ChallengerLane(recipe, recipe.build(at)))
    return SelectionRace(
        lanes,
        make_policy(config),
        config,
        demote=bool(select.get("demote", True)),
    )

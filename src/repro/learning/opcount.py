"""Analytic operation-count formulas from Table II of the paper.

The paper compares the per-step cost of the two drift-detection
strategies for a training set of ``m`` feature vectors, data
representation length ``w`` and channel count ``N``:

===============  ==============  =============================
operation        mu/sigma        KSWIN
===============  ==============  =============================
additions        ``6 N w``       ``2 N m w``
multiplications  ``2 N w``       ``2 N m w``
comparisons      ``3 N w``       ``(1 + 4m) N w log2(m w) + N``
===============  ==============  =============================

These functions evaluate the formulas so the Table II benchmark can print
them next to the measured counter values from the live detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OpCounts:
    """Operation counts for one drift-detection step."""

    additions: int
    multiplications: int
    comparisons: int

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.comparisons


def mu_sigma_ops(m: int, w: int, n_channels: int) -> OpCounts:
    """Table II column for the μ/σ-Change strategy.

    The cost is independent of ``m`` because the running statistics are
    updated incrementally: one replace touches each of the ``N*w`` feature
    dimensions a constant number of times.
    """
    _validate(m, w, n_channels)
    return OpCounts(
        additions=6 * n_channels * w,
        multiplications=2 * n_channels * w,
        comparisons=3 * n_channels * w,
    )


def kswin_ops(m: int, w: int, n_channels: int) -> OpCounts:
    """Table II column for the KSWIN strategy.

    The empirical CDF of one channel pools ``m*w`` samples, so the test is
    linear in ``m`` for arithmetic and ``O(m w log(m w))`` for the binary
    searches placing each element of both training sets into their merged
    order.
    """
    _validate(m, w, n_channels)
    log_term = math.log2(m * w) if m * w > 1 else 1.0
    return OpCounts(
        additions=2 * n_channels * m * w,
        multiplications=2 * n_channels * m * w,
        comparisons=int((1 + 4 * m) * n_channels * w * log_term) + n_channels,
    )


def kswin_incremental_ops(m: int, w: int, n_channels: int) -> OpCounts:
    """Per-step cost of the incremental KSWIN path.

    The detector keeps its samples' order incrementally (rank counters
    over the sorted reference), which removes the sorting unit from the
    check; the accounting keeps the sorted-sample KS test's merged binary
    searches, ``~4 m w log2(m w)`` comparisons per channel.  The upkeep
    (two ``O(w log(m w))`` binary searches when a vector enters/leaves
    the set) is paid per *update* in ``observe``, not per check, and is
    negligible against the ``4 m`` search term.  Additions and
    multiplications (CDF differences and normalisation) are unchanged
    from :func:`kswin_ops`.
    """
    _validate(m, w, n_channels)
    log_term = math.log2(m * w) if m * w > 1 else 1.0
    return OpCounts(
        additions=2 * n_channels * m * w,
        multiplications=2 * n_channels * m * w,
        comparisons=int(4 * m * n_channels * w * log_term) + n_channels,
    )


def _validate(m: int, w: int, n_channels: int) -> None:
    if m < 1 or w < 1 or n_channels < 1:
        raise ValueError(
            f"m, w and n_channels must be >= 1, got m={m}, w={w}, N={n_channels}"
        )

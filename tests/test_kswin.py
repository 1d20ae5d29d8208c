"""Tests for the KSWIN drift detector and the KS statistic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.learning import (
    KSWIN,
    AnomalyAwareReservoir,
    SlidingWindow,
    UniformReservoir,
    Update,
    UpdateKind,
    ks_critical_value,
    ks_statistic,
    ks_statistic_sorted,
    kswin_incremental_ops,
    kswin_ops,
)
from repro.learning.base import NO_TRAIN_SET

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
#: heavily tied values, signed zeros included.
tied = st.sampled_from([-1.5, -0.0, 0.0, 0.0, 1.0, 1.0, 2.5])


class TestKSStatistic:
    @given(
        st.lists(floats, min_size=1, max_size=100),
        st.lists(floats, min_size=1, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, a, b):
        ours = ks_statistic(np.asarray(a), np.asarray(b))
        scipy_stat = stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(scipy_stat, abs=1e-12)

    def test_identical_samples_zero(self):
        sample = np.arange(50.0)
        assert ks_statistic(sample, sample) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic(np.zeros(10), np.ones(10) * 5) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([1.0]))

    @given(
        st.lists(floats, min_size=1, max_size=50),
        st.lists(floats, min_size=1, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        d1 = ks_statistic(np.asarray(a), np.asarray(b))
        d2 = ks_statistic(np.asarray(b), np.asarray(a))
        assert d1 == pytest.approx(d2)
        assert 0.0 <= d1 <= 1.0


class TestCriticalValue:
    def test_decreases_with_sample_size(self):
        small = ks_critical_value(0.05, 20, 20)
        large = ks_critical_value(0.05, 2000, 2000)
        assert large < small

    def test_decreases_with_alpha(self):
        strict = ks_critical_value(0.001, 100, 100)
        loose = ks_critical_value(0.1, 100, 100)
        assert strict > loose

    def test_paper_form_more_conservative(self):
        standard = ks_critical_value(0.05, 100, 100, form="standard")
        paper = ks_critical_value(0.05, 100, 100, form="paper")
        assert paper == pytest.approx(standard * np.sqrt(2.0))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ks_critical_value(0.0, 10, 10)
        with pytest.raises(ValueError):
            ks_critical_value(0.05, 0, 10)
        with pytest.raises(ValueError):
            ks_critical_value(0.05, 10, 10, form="nonsense")

    def test_controls_false_positives(self):
        # Two same-distribution samples should rarely exceed the critical
        # value at alpha = 0.01.
        rng = np.random.default_rng(0)
        rejections = 0
        trials = 200
        for _ in range(trials):
            a = rng.normal(size=100)
            b = rng.normal(size=100)
            if ks_statistic(a, b) > ks_critical_value(0.01, 100, 100):
                rejections += 1
        assert rejections / trials < 0.05


class TestKSWINDetector:
    def _train_set(self, rng, m=20, w=8, n=3, shift=0.0):
        return rng.normal(loc=shift, size=(m, w, n))

    def test_first_call_installs_reference(self, rng):
        detector = KSWIN()
        train = self._train_set(rng)
        assert not detector.should_finetune(0, train)

    def test_no_drift_no_fire(self, rng):
        detector = KSWIN(alpha=0.005)
        reference = self._train_set(rng)
        detector.should_finetune(0, reference)
        fired = sum(
            detector.should_finetune(t, self._train_set(rng)) for t in range(1, 20)
        )
        assert fired == 0

    def test_fires_on_mean_shift(self, rng):
        detector = KSWIN()
        detector.should_finetune(0, self._train_set(rng))
        assert detector.should_finetune(1, self._train_set(rng, shift=5.0))

    def test_notify_updates_reference(self, rng):
        detector = KSWIN()
        detector.should_finetune(0, self._train_set(rng))
        shifted = self._train_set(rng, shift=5.0)
        assert detector.should_finetune(1, shifted)
        detector.notify_finetuned(1, shifted)
        assert not detector.should_finetune(2, self._train_set(rng, shift=5.0))

    def test_check_every_skips_steps(self, rng):
        detector = KSWIN(check_every=5)
        detector.should_finetune(0, self._train_set(rng))
        shifted = self._train_set(rng, shift=5.0)
        assert not detector.should_finetune(3, shifted)  # 3 % 5 != 0
        assert detector.should_finetune(5, shifted)

    def test_two_dimensional_training_set_supported(self, rng):
        detector = KSWIN()
        flat = rng.normal(size=(30, 4))
        detector.should_finetune(0, flat)
        assert detector.should_finetune(1, flat + 5.0)

    def test_channel_count_change_rejected(self, rng):
        detector = KSWIN()
        detector.should_finetune(0, self._train_set(rng, n=3))
        with pytest.raises(ValueError):
            detector.should_finetune(1, self._train_set(rng, n=4))

    def test_counts_operations(self, rng):
        detector = KSWIN()
        train = self._train_set(rng)
        detector.should_finetune(0, train)
        detector.should_finetune(1, train)
        assert detector.ops.comparisons > 0

    def test_reset_clears_reference(self, rng):
        detector = KSWIN()
        detector.should_finetune(0, self._train_set(rng))
        detector.reset()
        assert not detector.should_finetune(0, self._train_set(rng, shift=5.0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KSWIN(alpha=0.0)
        with pytest.raises(ValueError):
            KSWIN(check_every=0)

    def test_single_channel_drift_detected(self, rng):
        # Drift confined to one of several channels must still fire.
        detector = KSWIN()
        reference = self._train_set(rng, n=4)
        detector.should_finetune(0, reference)
        drifted = self._train_set(rng, n=4)
        drifted[:, :, 2] += 5.0
        assert detector.should_finetune(1, drifted)


class TestKSStatisticSorted:
    @given(
        st.lists(floats, min_size=1, max_size=80),
        st.lists(floats, min_size=1, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_unsorted(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        assert ks_statistic_sorted(np.sort(a), np.sort(b)) == ks_statistic(a, b)


def _drive(detector, strategy, stream):
    """Run one detector over a Task-1 update stream; return its decisions.

    Checks start once the training set is full, as in the real pipeline —
    a reference snapshotted from a near-empty set makes the corrected
    critical value exceed 1 and the detector can never fire.
    """
    decisions = []
    for t, x in enumerate(stream):
        update = strategy.update(x, score=float(abs(x).mean()))
        detector.observe(update, t)
        train_set = strategy.training_set()
        if not strategy.is_full:
            decisions.append(False)
            continue
        fired = detector.should_finetune(t, train_set)
        decisions.append(fired)
        if fired:
            detector.notify_finetuned(t, train_set)
    return decisions


def _make_strategy(name, capacity, seed):
    if name == "sw":
        return SlidingWindow(capacity)
    if name == "ur":
        return UniformReservoir(capacity, rng=np.random.default_rng(seed))
    return AnomalyAwareReservoir(capacity, rng=np.random.default_rng(seed))


class TestKSWINIncremental:
    """The incremental sorted-window path must make the exact decisions of
    the batch path on the same update stream — including through drift,
    fine-tuning resets, and the reservoirs' replace-by-random-slot churn."""

    @pytest.mark.parametrize("strategy_name", ["sw", "ur", "ar"])
    @pytest.mark.parametrize("shape", [(6, 3), (8,)])
    def test_decisions_identical_to_batch(self, strategy_name, shape):
        rng = np.random.default_rng(11)
        stream = [
            rng.normal(size=shape) + (3.0 if t > 120 else 0.0) for t in range(220)
        ]
        batch = _drive(
            KSWIN(incremental=False), _make_strategy(strategy_name, 24, 5), stream
        )
        incremental = _drive(
            KSWIN(incremental=True), _make_strategy(strategy_name, 24, 5), stream
        )
        assert incremental == batch
        if strategy_name == "sw":
            # The sliding window fully turns over after the shift, so the
            # drift/fire/notify branch is actually exercised; the
            # reservoirs dilute the drift and may legitimately stay quiet.
            assert sum(batch) > 0

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_random_insert_evict_sequences(self, value_stream):
        # Heavily tied integer values stress the delete-by-value slot
        # arithmetic (equal elements occupy consecutive sorted positions).
        stream = [
            np.asarray([float(v), float((v * 7) % 5)]) for v in value_stream
        ]
        batch = _drive(KSWIN(incremental=False), SlidingWindow(6), stream)
        incremental = _drive(KSWIN(incremental=True), SlidingWindow(6), stream)
        assert incremental == batch

    def test_rank_counters_mirror_training_set(self):
        rng = np.random.default_rng(2)
        strategy = SlidingWindow(10)
        detector = KSWIN(incremental=True)
        for t in range(40):
            update = strategy.update(rng.normal(size=(4, 2)))
            detector.observe(update, t)
            detector.should_finetune(t, strategy.training_set())
        assert not detector.needs_train_set
        _assert_counters_mirror(detector, strategy.training_set())

    def test_without_observe_falls_back_to_batch(self, rng):
        # Direct should_finetune calls (as the Table II benchmark makes)
        # never build incremental state, and keep working.
        detector = KSWIN(incremental=True)
        detector.should_finetune(0, rng.normal(size=(20, 8, 3)))
        assert detector._tracked is None and detector._ranks is None
        assert detector.needs_train_set
        assert detector.should_finetune(1, rng.normal(loc=5.0, size=(20, 8, 3)))

    def test_desync_falls_back_to_batch(self, rng):
        # If the training set the detector is asked about does not match
        # the observed stream (size mismatch), the batch path answers.
        strategy = SlidingWindow(8)
        detector = KSWIN(incremental=True)
        for t in range(12):
            detector.observe(strategy.update(rng.normal(size=(4, 2))), t)
        detector.should_finetune(0, rng.normal(size=(30, 4, 2)))
        assert detector.should_finetune(1, rng.normal(loc=5.0, size=(30, 4, 2)))

    def test_incremental_counts_fewer_comparisons(self, rng):
        stream = [rng.normal(size=(6, 2)) for _ in range(80)]
        batch_det = KSWIN(incremental=False)
        incr_det = KSWIN(incremental=True)
        _drive(batch_det, SlidingWindow(16), stream)
        _drive(incr_det, SlidingWindow(16), stream)
        assert incr_det.ops.comparisons < batch_det.ops.comparisons

    def test_reset_clears_incremental_state(self, rng):
        strategy = SlidingWindow(8)
        detector = KSWIN(incremental=True)
        for t in range(10):
            detector.observe(strategy.update(rng.normal(size=(4, 2))), t)
        detector.notify_finetuned(9, strategy.training_set())
        assert detector._tracked is not None and detector._ranks is not None
        detector.reset()
        assert detector._tracked is None and detector._ranks is None
        assert detector._reference is None
        assert detector.needs_train_set


def _assert_counters_mirror(detector, train_set):
    """The live counters hold, per channel and distinct reference value
    ``u``, the current values ``<= u`` and ``< u`` — ``searchsorted``
    counts against the pooled training set."""
    pooled = np.sort(KSWIN._per_channel(train_set), axis=1)
    assert detector._tracked == pooled.shape
    counts = np.cumsum(detector._ranks, axis=2)
    for channel, reference in enumerate(detector._reference):
        distinct = np.unique(reference)
        at_or_below, below = counts[channel, :, : distinct.size]
        current = pooled[channel]
        assert np.array_equal(
            at_or_below, np.searchsorted(current, distinct, side="right")
        )
        assert np.array_equal(below, np.searchsorted(current, distinct, side="left"))


def _counter_distances(reference, current):
    """Per-channel statistic read off the rank counters of a detector
    whose reference holds the ``(r_i, N)`` rows ``reference`` and whose
    observed set holds the ``(r_t, N)`` rows ``current`` (r_t >= r_i:
    replace every reference row, then append the rest)."""
    detector = KSWIN()
    for t, row in enumerate(reference):
        detector.observe(Update(UpdateKind.ADDED, added=row), t)
    detector.should_finetune(0, reference)  # adopts the reference
    for t, row in enumerate(current):
        if t < len(reference):
            update = Update(UpdateKind.REPLACED, added=row, removed=reference[t])
        else:
            update = Update(UpdateKind.ADDED, added=row)
        detector.observe(update, t)
    assert not detector.needs_train_set
    return detector._distances()


class TestRankCounters:
    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.one_of(tied, floats), min_size=1, max_size=120),
        st.lists(st.one_of(tied, floats), min_size=1, max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_statistic_bitwise_equal_to_sorted_ks(self, n_channels, a, b):
        """Ties, signed zeros and unequal sizes (a reference snapshotted
        in the growth phase) give the very float of the merged-sample
        statistic."""
        a = np.asarray(a[: len(a) // n_channels * n_channels])
        b = np.asarray(b[: len(b) // n_channels * n_channels])
        if a.size == 0 or b.size == 0:
            return
        a, b = a.reshape(-1, n_channels), b.reshape(-1, n_channels)
        if len(b) < len(a):
            a, b = b, a  # the training set never shrinks
        distances = _counter_distances(a, b)
        for channel in range(n_channels):
            want = ks_statistic_sorted(
                np.sort(a[:, channel]), np.sort(b[:, channel])
            )
            assert distances[channel].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("strategy_name", ["sw", "ur", "ar"])
    @pytest.mark.parametrize("shape", [(6, 3), (8,)])
    def test_counters_track_random_update_streams(self, strategy_name, shape):
        """After SW/uRES/ARES update streams (drift, fires, reference
        resets) the counters equal searchsorted counts of the pooled
        training set, and the detector never needed the stacked set."""
        rng = np.random.default_rng(7)
        strategy = _make_strategy(strategy_name, 24, 3)
        detector = KSWIN()
        fires = 0
        for t in range(260):
            x = np.round(rng.normal(size=shape), 1) + (3.0 if t > 140 else 0.0)
            detector.observe(strategy.update(x, score=float(abs(x).mean())), t)
            if not strategy.is_full:
                continue
            if detector._reference is None:
                detector.notify_finetuned(t, strategy.training_set())
            assert not detector.needs_train_set
            if detector.should_finetune(t, NO_TRAIN_SET):
                fires += 1
                detector.notify_finetuned(t, strategy.training_set())
            _assert_counters_mirror(detector, strategy.training_set())
        if strategy_name == "sw":
            assert fires > 0


class TestIncrementalOpFormula:
    def test_cheaper_than_batch_formula(self):
        batch = kswin_ops(m=100, w=50, n_channels=5)
        incremental = kswin_incremental_ops(m=100, w=50, n_channels=5)
        assert incremental.comparisons < batch.comparisons
        assert incremental.additions == batch.additions
        assert incremental.multiplications == batch.multiplications

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            kswin_incremental_ops(0, 10, 1)

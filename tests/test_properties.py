"""Cross-cutting property-based tests on framework invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.learning.drift import MuSigmaChange
from repro.metrics import (
    buffered_label_weights,
    nab_score,
    range_precision_recall,
    vus,
)
from repro.streaming import run_stream

bounded_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMetricInvariants:
    @given(
        st.lists(bounded_floats, min_size=10, max_size=120),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_pr_bounded(self, scores, n_windows, threshold):
        scores = np.asarray(scores)
        labels = np.zeros(scores.size, dtype=int)
        rng = np.random.default_rng(n_windows)
        for _ in range(n_windows):
            start = int(rng.integers(0, max(scores.size - 3, 1)))
            labels[start : start + 3] = 1
        precision, recall = range_precision_recall(scores, labels, threshold)
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0

    @given(st.lists(bounded_floats, min_size=20, max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_nab_upper_bound(self, scores):
        # No detector can beat the perfect score of 1.
        scores = np.asarray(scores)
        labels = np.zeros(scores.size, dtype=int)
        labels[5:10] = 1
        result = nab_score(scores, labels, threshold=0.5)
        assert result.score <= 1.0 + 1e-12

    @given(st.lists(bounded_floats, min_size=20, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_vus_bounded(self, scores):
        scores = np.asarray(scores)
        labels = np.zeros(scores.size, dtype=int)
        labels[8:14] = 1
        result = vus(scores, labels, max_buffer=8, n_buffers=3, n_thresholds=15)
        assert 0.0 <= result.vus_pr <= 1.0
        assert 0.0 <= result.vus_roc <= 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=10, max_size=80),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_buffer_monotone_in_length(self, bits, buffer):
        # A longer buffer never decreases any weight.
        labels = np.asarray(bits, dtype=np.int_)
        small = buffered_label_weights(labels, buffer)
        large = buffered_label_weights(labels, buffer + 4)
        assert np.all(large >= small - 1e-12)


class TestDetectorInvariants:
    @pytest.mark.parametrize("scorer", ["raw", "avg", "al", "conformal"])
    def test_scores_always_in_unit_interval(self, scorer, rng):
        n = 400
        values = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.05
        values += rng.normal(scale=0.1, size=(n, 2))
        series = TimeSeries(values=values, labels=np.zeros(n, dtype=np.int_))
        detector = build_detector(
            AlgorithmSpec("ae", "sw", "musigma"),
            2,
            DetectorConfig(window=6, train_capacity=24, fit_epochs=2, scorer=scorer),
        )
        result = run_stream(detector, series)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores <= 1.0)
        assert np.all(result.nonconformities >= 0.0)
        assert np.all(result.nonconformities <= 1.0)

    def test_constant_stream_does_not_crash(self):
        values = np.ones((200, 3))
        series = TimeSeries(values=values, labels=np.zeros(200, dtype=np.int_))
        detector = build_detector(
            AlgorithmSpec("ae", "sw", "musigma"),
            3,
            DetectorConfig(window=6, train_capacity=24, fit_epochs=2),
        )
        result = run_stream(detector, series)
        assert np.all(np.isfinite(result.scores))

    def test_single_channel_stream(self, rng):
        values = np.sin(np.arange(300) / 10.0)[:, None] + rng.normal(
            scale=0.05, size=(300, 1)
        )
        series = TimeSeries(values=values, labels=np.zeros(300, dtype=np.int_))
        detector = build_detector(
            AlgorithmSpec("online_arima", "sw", "musigma"),
            1,
            DetectorConfig(window=8, train_capacity=24, fit_epochs=2),
        )
        result = run_stream(detector, series)
        assert np.all(np.isfinite(result.scores))

    def test_extreme_scale_stream(self, rng):
        values = rng.normal(scale=1e7, size=(300, 2)) + 1e9
        series = TimeSeries(values=values, labels=np.zeros(300, dtype=np.int_))
        detector = build_detector(
            AlgorithmSpec("usad", "sw", "musigma"),
            2,
            DetectorConfig(window=6, train_capacity=24, fit_epochs=2),
        )
        result = run_stream(detector, series)
        assert np.all(np.isfinite(result.scores))


class TestRingBufferMatchesStackSemantics:
    """The mirrored-ring RollingBuffer must reproduce the old deque +
    ``np.stack`` window semantics exactly, for every (window, stream
    length, channel count)."""

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_windows_match_reference(self, window, n_steps, n_channels, seed):
        import collections

        from repro.core.representation import RollingBuffer, WindowRepresentation

        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n_steps, n_channels))
        buffer = RollingBuffer(WindowRepresentation(window))
        reference = collections.deque(maxlen=window)
        for vector in vectors:
            emitted = buffer.push(vector)
            reference.append(vector)
            if len(reference) < window:
                assert emitted is None
                assert not buffer.is_warm
            else:
                assert buffer.is_warm
                np.testing.assert_array_equal(emitted, np.stack(list(reference)))

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_emitted_window_never_aliases_the_ring(self, window, seed):
        from repro.core.representation import RollingBuffer, WindowRepresentation

        rng = np.random.default_rng(seed)
        buffer = RollingBuffer(WindowRepresentation(window))
        emitted = None
        for vector in rng.normal(size=(window, 3)):
            emitted = buffer.push(vector)
        snapshot = emitted.copy()
        # Later pushes must not mutate a window already handed out
        # (training strategies store emitted windows verbatim).
        for vector in rng.normal(size=(window, 3)):
            buffer.push(vector)
        np.testing.assert_array_equal(emitted, snapshot)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_reset_restarts_warmup(self, window):
        from repro.core.representation import RollingBuffer, WindowRepresentation

        buffer = RollingBuffer(WindowRepresentation(window))
        for step in range(window):
            buffer.push(np.full(2, float(step)))
        assert buffer.is_warm
        buffer.reset()
        assert not buffer.is_warm
        for step in range(window - 1):
            assert buffer.push(np.full(2, float(step))) is None


class TestFlatTreeMatchesRecursive:
    """The arena traversal must agree with the recursive node walk in
    ``_oracles``: identical branch decisions, identical depths, for
    single points, batches and whole forests."""

    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_depths_match(self, n_samples, dim, seed):
        from repro.models.isolation import ExtendedIsolationForest, ExtendedIsolationTree

        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_samples, dim))
        tree = ExtendedIsolationTree(data, np.random.default_rng(seed + 1))
        forest = ExtendedIsolationForest(n_trees=1)
        forest.trees = [tree]
        queries = rng.normal(size=(16, dim))
        recursive = np.array([_oracles.path_length(tree, q) for q in queries])
        single = np.array([forest.depths(q)[0] for q in queries])
        batch = forest.depths_batch(queries)[:, 0]
        np.testing.assert_array_equal(single, recursive)
        np.testing.assert_array_equal(batch, recursive)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_forest_arena_matches_recursive(self, n_trees, seed):
        from repro.models.isolation import ExtendedIsolationForest

        rng = np.random.default_rng(seed)
        data = rng.normal(size=(80, 3))
        forest = ExtendedIsolationForest(n_trees=n_trees, subsample=32, seed=seed)
        forest.fit(data)
        queries = rng.normal(size=(8, 3))
        arena_batch = forest.depths_batch(queries)
        for i, query in enumerate(queries):
            recursive = _oracles.forest_depths(forest, query)
            np.testing.assert_array_equal(forest.depths(query), recursive)
            np.testing.assert_array_equal(arena_batch[i], recursive)

    def test_arena_invalidated_when_trees_replaced(self, rng):
        from repro.models.isolation import ExtendedIsolationForest

        data = rng.normal(size=(100, 2))
        forest = ExtendedIsolationForest(n_trees=4, subsample=32, seed=0).fit(data)
        before = forest.depths(data[0])
        forest.trees = forest.trees[:2] + [
            forest.build_tree(data) for _ in range(2)
        ]
        after = forest.depths(data[0])
        assert after.shape == before.shape
        recursive = _oracles.forest_depths(forest, data[0])
        np.testing.assert_array_equal(after, recursive)


class _MuSigmaOracle(MuSigmaChange):
    """μ/σ-Change with the uncached formulas, inline: moments, every
    threshold and every feature mean recomputed on every check."""

    def _inline_moments(self):
        if self._sum is None or self._count == 0:
            return None, None
        mean = self._shift + self._sum / self._count
        variance = self._sumsq / self._count - (self._sum / self._count) ** 2
        return mean, np.sqrt(np.maximum(variance, 0.0))

    def _inline_snapshot(self, mean, std):
        self._ref_mean = mean.copy()
        self._ref_std = np.maximum(std.copy(), 1e-12)

    def notify_finetuned(self, t, train_set):
        mean, std = self._inline_moments()
        if mean is not None and std is not None:
            self._inline_snapshot(mean, std)

    def should_finetune(self, t, train_set):
        mean, std = self._inline_moments()
        if mean is None or std is None:
            return False
        if self._ref_mean is None:
            self._inline_snapshot(mean, std)
            return False
        dim = mean.size
        self.ops.additions += dim
        self.ops.comparisons += 3 * dim
        mean_shift = np.abs(mean - self._ref_mean)
        mean_trigger = mean_shift > self._ref_std
        upper = self._ref_std * self.std_factor
        lower = self._ref_std / self.std_factor
        std_trigger = (std > upper) | (std < lower)
        if self.aggregate == "any":
            return bool(np.any(mean_trigger) or np.any(std_trigger))
        return bool(
            mean_shift.mean() > self._ref_std.mean()
            or std.mean() > upper.mean()
            or std.mean() < lower.mean()
        )


class TestMuSigmaCachedThresholds:
    """The cached reference means decide exactly as the formula that
    recomputes them per check, across fine-tune snapshots, ``reset`` and
    a checkpoint round trip."""

    @given(
        st.sampled_from(["mean", "any"]),
        st.sampled_from([1.5, 2.0, 3.0]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=20, max_value=160),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decisions_and_ops_match_oracle(
        self, aggregate, std_factor, dim, capacity, n_steps, pickle_frac, seed
    ):
        import collections
        import pickle

        from repro.learning.base import Update, UpdateKind

        rng = np.random.default_rng(seed)
        # Regime shifts in mean and spread, so both criteria fire.
        scale = np.where(np.arange(n_steps) < n_steps // 2, 1.0, 4.0)
        values = rng.normal(size=(n_steps, dim)) * scale[:, None]
        values[2 * n_steps // 3 :] += 3.0
        detector = MuSigmaChange(aggregate=aggregate, std_factor=std_factor)
        oracle = _MuSigmaOracle(aggregate=aggregate, std_factor=std_factor)
        pickle_at = int(pickle_frac * n_steps)
        reset_at = int(rng.integers(0, 2 * n_steps))  # past the end: never
        train_set = collections.deque()
        for t, vector in enumerate(values):
            if t == pickle_at:
                detector = pickle.loads(pickle.dumps(detector))
            if t == reset_at:
                detector.reset()
                oracle.reset()
                train_set.clear()
            if rng.random() < 0.1:
                update = Update(UpdateKind.UNCHANGED)
            elif len(train_set) < capacity:
                train_set.append(vector)
                update = Update(UpdateKind.ADDED, vector)
            else:
                removed = train_set.popleft()
                train_set.append(vector)
                update = Update(UpdateKind.REPLACED, vector, removed)
            detector.observe(update, t)
            oracle.observe(update, t)
            fired = detector.should_finetune(t, None)
            assert fired == oracle.should_finetune(t, None), t
            if fired or rng.random() < 0.05:
                detector.notify_finetuned(t, None)
                oracle.notify_finetuned(t, None)
            assert detector.ops == oracle.ops, t
        for name in ("_ref_mean", "_ref_std"):
            mine, theirs = getattr(detector, name), getattr(oracle, name)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.tobytes() == theirs.tobytes()


class TestMuSigmaLaneMatchesSequential:
    """One time-axis :meth:`MuSigmaLane.step` per round decides, commits
    and counts exactly as per-session ``observe`` / ``should_finetune``
    loops, with the round spanning at least three of the lane's blocks."""

    @given(
        st.sampled_from(["mean", "any"]),
        st.sampled_from([1.5, 2.0, 3.0]),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=600, max_value=1100),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fires_state_and_ops_match_sequential(
        self, aggregate, std_factor, k, dim, seed
    ):
        import copy

        from repro.learning.base import Update, UpdateKind
        from repro.learning.drift import _BLOCK_ELEMENTS, MuSigmaLane

        rng = np.random.default_rng(seed)
        rows = _BLOCK_ELEMENTS // (k * dim)
        b = 3 * rows + int(rng.integers(0, rows + 1))
        lengths = rng.integers(1, b + 1, size=k)
        lengths[rng.integers(k)] = b
        added = np.zeros((k, b, dim))
        removed = np.zeros((k, b, dim))
        replaced = np.zeros((k, b), dtype=bool)
        detectors = []
        for i in range(k):
            detector = MuSigmaChange(aggregate=aggregate, std_factor=std_factor)
            # Far from zero, so the shifted sums matter.
            warm = 50.0 + rng.normal(size=(int(rng.integers(4, 41)), dim))
            for t, vector in enumerate(warm):
                detector.observe(Update(UpdateKind.ADDED, vector), t)
            detector.should_finetune(len(warm), None)  # adopts the snapshot
            detectors.append(detector)
            # A level shift somewhere in (or past) the round, a random
            # append/replace schedule, evicting earlier vectors.
            round_values = 50.0 + rng.normal(size=(b, dim))
            round_values[int(rng.integers(0, 2 * b)) :] += rng.choice([0.3, 1.0, 4.0])
            pool = np.concatenate((warm, round_values))
            added[i, : lengths[i]] = round_values[: lengths[i]]
            replaced[i, : lengths[i]] = rng.random(lengths[i]) < rng.random()
            for j in np.flatnonzero(replaced[i]):
                removed[i, j] = pool[rng.integers(0, len(warm) + j)]
        oracles = copy.deepcopy(detectors)

        lane = MuSigmaLane(detectors)
        fired_at = lane.step(added, removed, replaced, lengths)
        for i, (detector, oracle) in enumerate(zip(detectors, oracles)):
            want = -1
            for j in range(lengths[i]):
                if replaced[i, j]:
                    update = Update(UpdateKind.REPLACED, added[i, j], removed[i, j])
                else:
                    update = Update(UpdateKind.ADDED, added[i, j])
                oracle.observe(update, 100 + j)
                if oracle.should_finetune(100 + j, None):
                    want = j
                    break
            assert fired_at[i] == want, i
            lane.commit(i, detector)
            assert detector._sum.tobytes() == oracle._sum.tobytes(), i
            assert detector._sumsq.tobytes() == oracle._sumsq.tobytes(), i
            assert detector._count == oracle._count, i
            assert detector.ops == oracle.ops, i

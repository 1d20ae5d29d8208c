"""Unit tests for the online detection service's building blocks.

Covers the wire protocol (envelope validation, float round-trip
exactness), the micro-batch scheduler's backpressure and fairness
contracts, the LRU session store's eviction machinery, and the protocol
dispatch of :class:`DetectionService` — the end-to-end bitwise
equivalence claims live in ``tests/test_serve_e2e.py``.
"""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.exceptions import StreamError
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.serve import (
    DetectionService,
    ProtocolError,
    ServeClient,
    ServeConfig,
    SchedulerConfig,
    decode_line,
    encode,
    parse_request,
    spill_filename,
)
from repro.streaming import EnsembleDetector, FleetEngine, run_stream

CONFIG = dict(window=6, train_capacity=24, fit_epochs=2, kswin_check_every=4)


def make_service(**overrides):
    defaults = dict(
        default_spec="ae+sw+musigma",
        max_sessions=4,
        max_batch=8,
        queue_limit=32,
        result_limit=64,
        detector=DetectorConfig(**CONFIG),
    )
    defaults.update(overrides)
    service = DetectionService(ServeConfig(**defaults), autostart=False)
    return service, ServeClient(service)


def points(n, n_channels=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n_channels))


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"v": 1, "op": "ingest", "stream": "s", "points": [[0.1, 0.2]]}
        assert decode_line(encode(message)) == message

    def test_float_roundtrip_is_exact(self):
        # The bitwise-equivalence guarantee must survive the JSON layer.
        rng = np.random.default_rng(1)
        values = rng.normal(size=257) * 10.0 ** rng.integers(-200, 200, size=257)
        decoded = decode_line(encode({"v": 1, "op": "x", "scores": values.tolist()}))
        assert np.array_equal(np.array(decoded["scores"]), values)

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]")

    def test_parse_rejects_bad_version(self):
        with pytest.raises(ProtocolError):
            parse_request({"v": 99, "op": "ping"})

    def test_parse_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            parse_request({"v": 1, "op": "frobnicate"})

    def test_parse_requires_stream_for_session_ops(self):
        for op in ("create", "ingest", "score", "close", "evict"):
            with pytest.raises(ProtocolError):
                parse_request({"v": 1, "op": op})

    def test_stats_and_ping_are_streamless(self):
        assert parse_request({"v": 1, "op": "ping"})["op"] == "ping"
        assert parse_request({"v": 1, "op": "stats"})["op"] == "stats"

    def test_correlation_id_is_echoed(self):
        service, _ = make_service()
        reply = service.handle({"v": 1, "op": "ping", "id": "req-42"})
        assert reply["ok"] and reply["id"] == "req-42"

    def test_error_reply_envelope(self):
        service, _ = make_service()
        reply = service.handle({"v": 1, "op": "score", "stream": "ghost"})
        assert reply["ok"] is False
        assert reply["error"]["type"] == "unknown_stream"


# ----------------------------------------------------------------------
# service dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_create_ingest_score_close(self):
        _, client = make_service()
        assert client.create("s1", n_channels=2)["ok"]
        reply = client.ingest("s1", points(10))
        assert reply["ok"] and reply["accepted"] == 10
        assert (reply["seq_from"], reply["seq_to"]) == (0, 9)
        scored = client.score("s1")
        assert scored["ok"] and len(scored["results"]) == 10
        assert [r["seq"] for r in scored["results"]] == list(range(10))
        summary = client.close("s1")
        assert summary["ok"] and summary["n_points"] == 10

    def test_duplicate_stream_rejected(self):
        _, client = make_service()
        client.create("dup", n_channels=2)
        reply = client.create("dup", n_channels=2)
        assert reply["error"]["type"] == "duplicate_stream"

    def test_create_without_spec_needs_server_default(self):
        _, client = make_service(default_spec=None)
        reply = client.create("s", n_channels=2)
        assert reply["error"]["type"] == "bad_config"

    def test_create_rejects_unknown_spec(self):
        _, client = make_service()
        reply = client.create("s", spec="no_such+sw+kswin", n_channels=2)
        assert reply["error"]["type"] == "bad_config"

    def test_create_rejects_bad_config_key(self):
        _, client = make_service()
        reply = client.create("s", n_channels=2, config={"wibble": 3})
        assert reply["error"]["type"] == "bad_config"

    def test_ingest_rejects_wrong_width(self):
        _, client = make_service()
        client.create("s", n_channels=2)
        reply = client.ingest("s", points(4, n_channels=3))
        assert reply["error"]["type"] == "bad_points"

    def test_ingest_rejects_non_finite(self):
        service, client = make_service()
        client.create("s", n_channels=2)
        # NaN cannot cross the strict-JSON wire as a float; a null in its
        # place is rejected as bad points before anything is enqueued.
        reply = client.service.handle(
            {"v": 1, "op": "ingest", "stream": "s",
             "points": [[1.0, 2.0], [None, 2.0]]}
        )
        assert reply["error"]["type"] == "bad_points"
        block = points(4)
        block[2, 1] = np.nan
        with pytest.raises(StreamError):
            service.ingest("s", block)  # direct in-process API
        assert service.store.get("s").queue_depth == 0

    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_empty_ingest_is_a_no_op(self, n_channels):
        service, client = make_service()
        client.create("s", n_channels=n_channels)
        reply = client.ingest("s", [])
        assert reply["ok"], reply
        assert (reply["accepted"], reply["seq_from"], reply["seq_to"]) == (0, None, None)
        assert service.store.get("s").queue_depth == 0
        reply = client.ingest("s", points(2, n_channels=n_channels))
        assert (reply["seq_from"], reply["seq_to"]) == (0, 1)

    def test_unknown_stream_everywhere(self):
        _, client = make_service()
        for verb in ("ingest", "score", "evict", "close"):
            reply = getattr(client, verb)("ghost", *([[[0.0, 0.0]]] if verb == "ingest" else []))
            assert reply["error"]["type"] == "unknown_stream", verb

    def test_stats_shape(self):
        _, client = make_service()
        client.create("a", n_channels=2)
        client.ingest("a", points(5))
        client.score("a")
        stats = client.stats()
        assert stats["ok"]
        assert stats["n_sessions"] == 1
        block = stats["sessions"]["a"]
        assert block["seq"] == 5 and block["scored"] == 5
        assert block["hydrated"] is True
        rollup = stats["rollup"]["counters"]
        assert rollup["points_ingested"] == 5
        assert rollup["points_scored"] == 5
        assert rollup["steps"] == 5  # per-session detector telemetry merged


class TestCountFields:
    """``ingest.expect`` and ``score.max`` are non-negative integers,
    checked in :func:`parse_request` — the edge both the service and the
    router parse every request with — before anything is enqueued or
    popped."""

    @pytest.mark.parametrize("op, field", [("ingest", "expect"), ("score", "max")])
    @pytest.mark.parametrize("value", [4.9, 2.0, True, "2", -1, [2]])
    def test_parse_refuses_non_integers(self, op, field, value):
        with pytest.raises(ProtocolError, match=field):
            parse_request({"v": 1, "op": op, "stream": "s", field: value})

    @pytest.mark.parametrize("value", [0, 7, np.int64(7), None])
    def test_parse_keeps_integers(self, value):
        for op, field in (("ingest", "expect"), ("score", "max")):
            request = {"v": 1, "op": op, "stream": "s", field: value}
            assert parse_request(request)[field] is value

    @pytest.mark.parametrize("expect", [4.9, True, "4", -1])
    def test_ingest_refuses_non_integer_expect(self, expect):
        # Truncating 4.9 to 4 would re-acknowledge the new point as a
        # duplicate of seq 4, and it would never be scored.
        service, client = make_service()
        client.create("s", n_channels=1)
        assert client.ingest("s", points(5, n_channels=1))["seq_to"] == 4
        reply = client.ingest("s", [[0.2]], expect=expect)
        assert reply["error"]["type"] == "bad_request", reply
        session = service.store.get("s")
        assert (session.seq, session.queue_depth) == (5, 5)
        reply = client.ingest("s", [[0.2]], expect=5)
        assert (reply["seq_from"], reply.get("duplicate")) == (5, None)

    @pytest.mark.parametrize("max_results", ["2", 2.5, True, -1])
    def test_score_refuses_non_integer_max(self, max_results):
        _, client = make_service()
        client.create("s", n_channels=2)
        client.ingest("s", points(3))
        assert client.score("s", max_results=0)["results"] == []  # flushed
        reply = client.request("score", stream="s", max=max_results)
        assert reply["error"]["type"] == "bad_request", reply
        results = client.score("s")["results"]
        assert [r["seq"] for r in results] == [0, 1, 2]


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_is_all_or_nothing(self):
        service, client = make_service(queue_limit=16)
        client.create("s", n_channels=2)
        assert client.ingest("s", points(16))["ok"]
        reply = client.ingest("s", points(1))
        assert reply["ok"] is False
        error = reply["error"]
        assert error["type"] == "queue_full"
        assert error["retry_after"] > 0
        assert error["depth"] == 16 and error["limit"] == 16
        # Nothing from the rejected batch was enqueued.
        assert service.store.get("s").queue_depth == 16

    def test_slow_drain_caps_queue_depth(self):
        """A client that never collects cannot grow server memory: the
        ingest queue is capped at queue_limit and rejections are counted."""
        service, client = make_service(queue_limit=24, max_batch=8)
        client.create("s", n_channels=2)
        rejected = 0
        for _ in range(20):
            reply = client.ingest("s", points(8))
            if not reply["ok"]:
                assert reply["error"]["type"] == "queue_full"
                rejected += 1
        assert service.store.get("s").queue_depth <= 24
        assert rejected == 17  # 3 batches fit, 17 bounced
        stats = client.stats()
        assert stats["rollup"]["counters"]["ingest_rejected"] == 17

    def test_result_buffer_blocks_draining(self):
        service, client = make_service(
            queue_limit=64, result_limit=16, max_batch=8
        )
        client.create("s", n_channels=2)
        client.ingest("s", points(40))
        # Flush stops once 16 results are buffered (2 micro-batches).
        session = service.store.get("s")
        service.scheduler.flush_session(session)
        assert session.n_results == 16
        assert session.queue_depth == 24
        assert client.stats()["rollup"]["counters"]["drain_blocked"] >= 1
        # Collecting frees the buffer and draining resumes.
        assert len(client.score("s")["results"]) == 16
        service.scheduler.flush_session(session)
        assert session.queue_depth == 8  # one more result_limit's worth

    def test_retry_after_loop_recovers(self):
        _, client = make_service(queue_limit=8, max_batch=4)
        client.create("s", n_channels=2)
        values = points(64)
        scores, _ = client.score_series("s", values, ingest_size=8)
        assert scores.shape == (64,)


# ----------------------------------------------------------------------
# fairness
# ----------------------------------------------------------------------
class TestFairness:
    def test_round_robin_drain_no_starvation(self):
        """A backlogged session must not starve others: one pump pass
        gives every due session exactly one micro-batch."""
        service, client = make_service(
            queue_limit=256, max_batch=4, max_delay_ms=0.0
        )
        client.create("big", n_channels=2)
        client.create("small", n_channels=2)
        client.ingest("big", points(200))
        client.ingest("small", points(4, seed=1))
        service.pump()
        big, small = service.store.get("big"), service.store.get("small")
        assert big.scored == 4 and small.scored == 4
        # Further passes keep draining the backlog without favoring it.
        service.pump()
        assert big.scored == 8 and small.scored == 4

    def test_pump_respects_max_delay(self):
        service, client = make_service(max_batch=8, max_delay_ms=10_000.0)
        client.create("s", n_channels=2)
        client.ingest("s", points(3))
        # 3 < max_batch and nothing has waited 10s: not due yet.
        assert service.pump() == 0
        # A full batch is due immediately.
        client.ingest("s", points(5))
        assert service.pump() == 8


# ----------------------------------------------------------------------
# fused drains at the default config
# ----------------------------------------------------------------------
def pump_rounds(client, streams, values, block=64):
    """Ingest ``block`` points per session per round, drain every due
    group with ``pump()`` (no synchronous flush), then collect."""
    service = client.service
    results = {stream: {} for stream in streams}
    for start in range(0, len(values[0]), block):
        for stream, series in zip(streams, values):
            assert client.ingest(stream, series[start : start + block])["ok"]
        while service.pump():
            pass
        for stream in streams:
            for row in client.score(stream, flush=False)["results"]:
                results[stream][row["seq"]] = row
    return results


class TestFusedDrain:
    def test_default_config_fuses_traced_sessions(self):
        """A default ``ServeConfig`` (per-session telemetry on) fuses
        same-spec groups, counts each fused row once and stays bitwise
        equal to offline ``run_stream``."""
        service = DetectionService(ServeConfig(), autostart=False)
        client = ServeClient(service)
        streams = ["a", "b", "c"]
        values = [points(320, seed=10 + k) for k in range(len(streams))]
        for stream in streams:
            reply = client.create(
                stream, spec="ae+sw+musigma", n_channels=2, config=CONFIG
            )
            assert reply["ok"], reply
        results = pump_rounds(client, streams, values)

        stats = client.stats()
        counters = stats["fleet"]["counters"]
        assert counters["points_fused"] > 0
        assert counters["fused_drains"] > 0
        rollup = stats["rollup"]["counters"]
        assert rollup["steps"] == rollup["points_scored"] == 3 * 320
        for stream, series in zip(streams, values):
            offline = run_stream(
                build_detector(
                    AlgorithmSpec("ae", "sw", "musigma"), 2,
                    DetectorConfig(**CONFIG),
                ),
                TimeSeries(values=series, labels=np.zeros(len(series), dtype=int)),
                batch_size=1,
            )
            served = np.array([results[stream][i]["score"] for i in range(320)])
            assert served.tobytes() == offline.scores.tobytes(), stream

    def test_unfusable_group_counts_no_fused_drains(self):
        """uRES groups drain through the fleet engine's stock lane (the
        fused path needs a sliding window), so no drain may be reported
        as fused."""
        service = DetectionService(ServeConfig(), autostart=False)
        client = ServeClient(service)
        streams = ["k0", "k1"]
        for stream in streams:
            assert client.create(
                stream, spec="ae+ures+kswin", n_channels=2, config=CONFIG
            )["ok"]
        values = [points(192, seed=20 + k) for k in range(len(streams))]
        results = pump_rounds(client, streams, values)
        assert all(len(results[stream]) == 192 for stream in streams)
        stats = client.stats()
        counters = stats["fleet"]["counters"]
        assert counters.get("fused_drains", 0) == 0
        assert counters.get("points_fused", 0) == 0
        # The group did go through the fleet engine, all on its stock lane.
        (manifest,) = stats["fleets"].values()
        assert manifest["drains"] > 0 and manifest["fused_steps"] == 0

    def test_default_config_fuses_kswin_group(self):
        """At a default ``ServeConfig`` an ``ae+sw+kswin`` group takes the
        KSWIN lane: it fuses, fine-tunes fused through drift, and stays
        bitwise equal to offline ``run_stream``."""
        service = DetectionService(ServeConfig(), autostart=False)
        client = ServeClient(service)
        streams = ["k0", "k1", "k2"]
        values = [points(320, seed=30 + k) for k in range(len(streams))]
        for series in values:
            series[200:] = series[200:] * 3.0 + 2.0  # a drift all sessions see
        config = dict(CONFIG, kswin_check_every=1)
        for stream in streams:
            assert client.create(
                stream, spec="ae+sw+kswin", n_channels=2, config=config
            )["ok"]
        results = pump_rounds(client, streams, values)

        counters = client.stats()["fleet"]["counters"]
        assert counters["fused_drains"] > 0
        assert counters["points_fused"] > 0
        assert counters["finetunes_fused"] > 0
        for stream, series in zip(streams, values):
            offline = run_stream(
                build_detector(
                    AlgorithmSpec("ae", "sw", "kswin"), 2,
                    DetectorConfig(**config),
                ),
                TimeSeries(values=series, labels=np.zeros(len(series), dtype=int)),
                batch_size=1,
            )
            served = np.array([results[stream][i]["score"] for i in range(320)])
            assert served.tobytes() == offline.scores.tobytes(), stream


def offline_scores(spec, series, config=CONFIG):
    """Scores of offline ``run_stream(batch_size=1)`` over ``series``."""
    return run_stream(
        build_detector(AlgorithmSpec(*spec.split("+")), 2, DetectorConfig(**config)),
        TimeSeries(values=series, labels=np.zeros(len(series), dtype=int)),
        batch_size=1,
    ).scores


class TestOneDrain:
    """Groups, lone due sessions and ``flush_session`` share one drain."""

    def test_lone_flush_keeps_group_engine(self):
        """A ``score(flush=True)`` on one group member between pumps
        drains it alone without evicting the group's cached engine, and
        its scores stay bitwise equal to offline ``run_stream``."""
        service = DetectionService(
            ServeConfig(max_batch=16, max_delay_ms=10_000.0), autostart=False
        )
        client = ServeClient(service)
        streams = ["a", "b", "c"]
        values = [points(240, seed=40 + k) for k in range(len(streams))]
        for stream in streams:
            assert client.create(
                stream, spec="ae+sw+musigma", n_channels=2, config=CONFIG
            )["ok"]
        key = service.store.get("a").fleet_key
        scores = {stream: [] for stream in streams}
        sent = {stream: 0 for stream in streams}

        def feed(stream, n):
            series = values[streams.index(stream)]
            assert client.ingest(stream, series[sent[stream] : sent[stream] + n])["ok"]
            sent[stream] += n

        engine = None
        for _ in range(10):
            for stream in streams:
                feed(stream, 16)
            while service.pump():
                pass
            cached = service.scheduler._fleets[key][1]
            assert engine is None or cached is engine
            engine = cached
            for stream in streams:
                rows = client.score(stream, flush=False)["results"]
                scores[stream] += [row["score"] for row in rows]
            # 8 < max_batch queued points: not due, only the flush drains them.
            feed("a", 8)
            rows = client.score("a", flush=True)["results"]
            assert len(rows) == 8
            scores["a"] += [row["score"] for row in rows]
            assert service.scheduler._fleets[key][1] is engine
        assert client.stats()["fleet"]["counters"]["points_fused"] > 0
        for stream, series in zip(streams, values):
            served = np.array(scores[stream])
            assert len(served) == sent[stream]
            expected = offline_scores("ae+sw+musigma", series[: sent[stream]])
            assert served.tobytes() == expected.tobytes(), stream

    def test_prebuilt_session_drains_through_fleet_engine(self, monkeypatch):
        """A prebuilt-detector session (no fleet key) drains through the
        same routine — a one-member :class:`FleetEngine` call per
        micro-batch, for a flush and for a pump alike — and counts
        ``points_scored`` and ``batches_flushed`` per micro-batch."""
        members = []
        step_chunk = FleetEngine.step_chunk

        def spy(engine, blocks):
            members.append([id(det) for det in engine.detectors])
            return step_chunk(engine, blocks)

        monkeypatch.setattr(FleetEngine, "step_chunk", spy)
        service, client = make_service(queue_limit=64, result_limit=128)
        detector = build_detector(
            AlgorithmSpec("ae", "sw", "musigma"), 2, DetectorConfig(**CONFIG)
        )
        session = service.create_session("p", detector=detector, n_channels=2)
        assert session.fleet_key is None
        values = points(64, seed=5)
        client.ingest("p", values[:40])
        scores = [row["score"] for row in client.score("p")["results"]]
        client.ingest("p", values[40:])
        while service.pump():
            pass
        scores += [row["score"] for row in client.score("p", flush=False)["results"]]

        assert members == [[id(detector)]] * 8  # 5 flushed + 3 pumped batches
        counters = client.stats()["fleet"]["counters"]
        assert counters["points_scored"] == 64
        assert counters["batches_flushed"] == 8
        expected = offline_scores("ae+sw+musigma", values)
        assert np.array(scores).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# store / eviction units (bitwise equivalence is in test_serve_e2e)
# ----------------------------------------------------------------------
class TestStore:
    def test_capacity_evicts_lru(self, tmp_path):
        service, client = make_service(
            max_sessions=2, spill_dir=str(tmp_path / "spill")
        )
        for name in ("a", "b", "c"):
            client.create(name, n_channels=2)
            client.ingest(name, points(4))
            client.score(name)
        store = service.store
        assert store.hydrated_count() == 2
        # "a" was least recently active -> spilled to disk.
        session_a = store.get("a")
        assert not session_a.hydrated
        assert session_a.spill_path is not None and session_a.spill_path.exists()
        assert session_a.spill_path.name == spill_filename("a")

    def test_rehydration_is_transparent_and_cleans_spill(self, tmp_path):
        service, client = make_service(
            max_sessions=1, spill_dir=str(tmp_path / "spill")
        )
        client.create("a", n_channels=2)
        client.ingest("a", points(4))
        client.score("a")
        client.create("b", n_channels=2)  # evicts "a"
        session_a = service.store.get("a")
        assert not session_a.hydrated
        spill = session_a.spill_path
        client.ingest("a", points(4, seed=2))
        reply = client.score("a")  # rehydrates under the hood
        assert len(reply["results"]) == 4
        assert session_a.hydrated
        assert session_a.spill_path is None and not spill.exists()
        assert session_a.n_rehydrations == 1

    def test_forced_evict_flushes_first(self, tmp_path):
        service, client = make_service(spill_dir=str(tmp_path / "spill"))
        client.create("s", n_channels=2)
        client.ingest("s", points(10))
        reply = client.evict("s")
        assert reply["ok"] and reply["hydrated"] is False
        session = service.store.get("s")
        assert session.queue_depth == 0 and session.n_results == 10

    def test_close_removes_spill_file(self, tmp_path):
        service, client = make_service(
            max_sessions=4, spill_dir=str(tmp_path / "spill")
        )
        client.create("s", n_channels=2)
        client.ingest("s", points(4))
        client.evict("s")
        spill = service.store.get("s").spill_path
        assert spill.exists()
        client.close("s")
        assert not spill.exists()
        assert client.score("s")["error"]["type"] == "unknown_stream"

    def test_busy_sessions_are_skipped(self, tmp_path):
        """Sessions with queued points are not eviction candidates."""
        service, client = make_service(
            max_sessions=1, spill_dir=str(tmp_path / "spill")
        )
        client.create("a", n_channels=2)
        client.ingest("a", points(4))  # pending work pins "a"
        client.create("b", n_channels=2)
        assert service.store.get("a").hydrated
        counters = client.stats()["rollup"]["counters"]
        assert counters.get("evictions_skipped", 0) >= 1

    def test_idle_sweep(self, tmp_path):
        service, client = make_service(
            max_sessions=8, spill_dir=str(tmp_path / "spill")
        )
        client.create("s", n_channels=2)
        client.ingest("s", points(4))
        client.score("s")
        assert service.store.evict_idle(max_idle_seconds=0.0) == 1
        assert not service.store.get("s").hydrated


# ----------------------------------------------------------------------
# ensembles through the service
# ----------------------------------------------------------------------
class TestEnsembleSession:
    def test_ensemble_is_servable(self):
        config = DetectorConfig(**CONFIG)
        specs = (("ae", "sw", "musigma"), ("online_arima", "sw", "musigma"))
        served = EnsembleDetector(
            [build_detector(AlgorithmSpec(*s), 2, config) for s in specs],
            fusion="mean",
        )
        reference = EnsembleDetector(
            [build_detector(AlgorithmSpec(*s), 2, config) for s in specs],
            fusion="mean",
        )
        service, client = make_service(max_batch=16)
        service.create_session("ens", detector=served, n_channels=2)
        values = points(120, seed=3)
        scores, nonconformities = client.score_series("ens", values, ingest_size=30)
        expected = [reference.step(v) for v in values]
        assert np.array_equal(scores, [r.score for r in expected])
        assert np.array_equal(nonconformities, [r.nonconformity for r in expected])
        # Ensembles cannot checkpoint -> they are pinned in memory.
        session = service.store.get("ens")
        assert session.evictable is False
        assert client.evict("ens")["error"]["type"] == "bad_config"

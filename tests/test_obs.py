"""Unit tests for the repro.obs subsystem: spans, metrics, exporters,
and critical-path analysis."""

import json

import pytest

from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.obs.critical_path import attribution_rows, critical_path
from repro.obs.export import (
    dumps_perfetto,
    perfetto_payload,
    to_trace_events,
    validate_trace_events,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.span import Obs, Span, context_lane
from repro.sim.engine import Engine
from repro.sim.trace import (
    BUCKET_ANCHOR,
    NUM_BUCKETS,
    Histogram,
    Trace,
    bucket_index,
    bucket_upper_edge,
)


class FakeEngine:
    """Just enough engine for Obs: a settable clock."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def obs():
    return Obs(FakeEngine(), Trace())


class TestSpans:
    def test_begin_end_and_ambient_stack(self, obs):
        outer = obs.begin(0, "main", "op", "put")
        assert obs.current(0) == outer
        obs.engine.now = 1.0
        inner = obs.begin(0, "main", "backoff", "retry_sleep")
        assert obs.current(0) == inner
        obs.engine.now = 2.0
        obs.end(inner)
        assert obs.current(0) == outer
        obs.end(outer)
        assert obs.current(0) is None
        spans = obs.finished()
        assert [s.name for s in spans] == ["put", "retry_sleep"]
        assert obs.get(inner).parent_id == outer
        assert obs.get(outer).parent_id is None
        assert obs.get(inner).duration == pytest.approx(1.0)

    def test_per_rank_stacks_are_independent(self, obs):
        a = obs.begin(0, "main", "op", "put")
        b = obs.begin(1, "main", "op", "get")
        assert obs.current(0) == a
        assert obs.current(1) == b

    def test_explicit_parent_and_root(self, obs):
        ambient = obs.begin(0, "main", "op", "put")
        root = obs.begin(0, "main", "op", "detached", parent_id=None)
        child = obs.begin(0, "main", "op", "linked", parent_id=ambient)
        assert obs.get(root).parent_id is None
        assert obs.get(child).parent_id == ambient

    def test_record_skips_the_stack(self, obs):
        ambient = obs.begin(0, "main", "op", "put")
        sid = obs.record(0, "net", "rdma", "rdma_put", 0.5, 1.5, nbytes=64)
        assert obs.current(0) == ambient  # no push
        span = obs.get(sid)
        assert span.end == 1.5
        assert span.parent_id == ambient
        assert span.attrs["nbytes"] == 64

    def test_retroactive_start_and_attrs_on_end(self, obs):
        obs.engine.now = 3.0
        sid = obs.begin(0, "main", "am_service", "svc", start=2.0, src=1)
        obs.engine.now = 4.0
        obs.end(sid, category="amo_service", queue_wait=0.5)
        span = obs.get(sid)
        assert span.start == 2.0 and span.end == 4.0
        assert span.category == "amo_service"
        assert span.attrs == {"src": 1, "queue_wait": 0.5}

    def test_double_end_is_idempotent(self, obs):
        sid = obs.begin(0, "main", "op", "put")
        obs.engine.now = 1.0
        obs.end(sid)
        obs.engine.now = 2.0
        obs.end(sid)
        assert obs.get(sid).end == 1.0

    def test_out_of_order_close_keeps_stack_sane(self, obs):
        outer = obs.begin(0, "main", "op", "outer")
        inner = obs.begin(0, "main", "op", "inner")
        obs.end(outer)  # not the top: removed from mid-stack
        assert obs.current(0) == inner
        obs.end(inner)
        assert obs.current(0) is None

    def test_context_manager(self, obs):
        with obs.span(0, "main", "op", "block") as sid:
            assert obs.current(0) == sid
        assert obs.current(0) is None
        assert obs.get(sid).end is not None

    def test_finalize_truncates_open_spans(self, obs):
        done = obs.begin(0, "main", "op", "done")
        obs.end(done)
        obs.begin(0, "main", "op", "hung")
        obs.engine.now = 5.0
        obs.finalize()
        assert obs.truncated_spans == 1
        hung = [s for s in obs.spans if s.name == "hung"][0]
        assert hung.end == 5.0
        assert hung.attrs["truncated"] is True
        assert obs.current(0) is None

    def test_timeline_labels_emit_trace_intervals(self):
        # Spans never write timeline intervals; each blocking op records
        # its own, labelled by the op, whether obs is on or off.
        trace = Trace(record_intervals=True)
        obs = Obs(FakeEngine(), trace)
        sid = obs.begin(0, "main", "op", "put")
        obs.engine.now = 1.0
        obs.end(sid)
        assert trace.intervals == []

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                yield from rt.put(1, src, alloc.addr(1), 64)
                yield from rt.compute(10e-6)
            yield from rt.barrier()

        runs = []
        for enabled in (True, False):
            config = ArmciConfig(obs=ObsConfig(enabled=enabled))
            job = ArmciJob(2, procs_per_node=1, config=config)
            job.trace.record_intervals = True
            job.init()
            job.run(body)
            runs.append(job.trace.intervals)
        on, off = runs
        assert {"put", "compute", "barrier"} <= {iv.label for iv in on}
        assert sum(iv.label == "put" for iv in on) == 1
        assert on == off

    def test_span_durations_feed_metrics(self):
        # One registry per job: span durations go to the job's Trace as
        # obs.span.<category> histograms, and add no counters.
        trace = Trace()
        obs = Obs(FakeEngine(), trace)
        sid = obs.begin(1, "main", "fence", "fence")
        obs.engine.now = 2e-6
        obs.end(sid)
        h = trace.histograms["obs.span.fence"]
        assert h.count == 1
        assert h.total == pytest.approx(2e-6)
        assert set(h.per_rank()) == {1}
        assert not trace.counters


class TestCausality:
    def test_event_registration(self, obs):
        engine = Engine()
        ev = engine.event("done")
        sid = obs.record(0, "net", "rdma", "rdma_put", 0.0, 1.0)
        assert obs.span_for_event(ev) is None
        obs.register_event(ev, sid)
        assert obs.span_for_event(ev) == sid
        # Unregistered objects (and None ids) stay invisible.
        obs.register_event(engine.event("other"), None)
        assert obs.span_for_event(engine.event("third")) is None

    def test_add_edge_rejects_degenerate(self, obs):
        a = obs.record(0, "net", "rdma", "x", 0.0, 1.0)
        b = obs.record(1, "main", "rdma_wait", "y", 0.0, 1.0)
        obs.add_edge(a, b)
        obs.add_edge(None, b)
        obs.add_edge(a, None)
        obs.add_edge(a, a)
        assert obs.edges == [(a, b)]

    def test_barrier_edge_from_last_arriver(self, obs):
        key = 7
        obs.engine.now = 1.0
        s0 = obs.begin(0, "main", "barrier", "barrier")
        obs.barrier_arrive(key, 0, s0)
        obs.engine.now = 3.0
        s1 = obs.begin(1, "main", "barrier", "barrier")
        obs.barrier_arrive(key, 1, s1)
        obs.engine.now = 3.1
        obs.end(s0)
        obs.barrier_exit(key, 0, s0)
        obs.end(s1)
        obs.barrier_exit(key, 1, s1)
        # Rank 0 waited on rank 1 (the last arriver); rank 1 waited on
        # nobody, so no self-edge is recorded.
        assert obs.edges == [(s1, s0)]

    def test_barrier_rounds_match_by_arrival_count(self, obs):
        key = 7
        sids = {}
        for rnd in range(2):
            for rank in (0, 1):
                obs.engine.now = rnd * 10.0 + rank
                sid = obs.begin(rank, "main", "barrier", "barrier")
                sids[(rnd, rank)] = sid
                obs.barrier_arrive(key, rank, sid)
            for rank in (0, 1):
                obs.end(sids[(rnd, rank)])
                obs.barrier_exit(key, rank, sids[(rnd, rank)])
        assert obs.edges == [
            (sids[(0, 1)], sids[(0, 0)]),
            (sids[(1, 1)], sids[(1, 0)]),
        ]


class TestContextLane:
    def test_lane_assignment(self):
        class Ctx:
            def __init__(self, index, num):
                self.index = index
                self.client = type("C", (), {"num_contexts": num})()

        assert context_lane(Ctx(0, 1)) == "main"
        assert context_lane(Ctx(0, 2)) == "main"
        assert context_lane(Ctx(1, 2)) == "async"


class TestMetrics:
    def test_bucket_scheme(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(BUCKET_ANCHOR) == 0
        assert bucket_index(1.5e-9) == 1
        assert bucket_index(2e-9) == 1  # (1, 2] ns
        assert bucket_index(2.1e-9) == 2
        assert bucket_index(1e30) == NUM_BUCKETS - 1
        assert bucket_upper_edge(0) == BUCKET_ANCHOR
        assert bucket_upper_edge(10) == pytest.approx(1024e-9)
        # Every value lands in the bucket whose upper edge bounds it.
        for v in (3e-9, 1e-6, 0.5, 7.0):
            i = bucket_index(v)
            assert v <= bucket_upper_edge(i)
            assert v > bucket_upper_edge(i - 1)

    def test_histogram_summary_and_bucket_percentiles(self):
        h = Histogram()
        for v in (1e-6, 2e-6, 3e-6, 100e-6):
            h.record(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == 1e-6 and s["max"] == 100e-6
        assert s["mean"] == pytest.approx(26.5e-6)
        # Bucketed percentiles are deterministic upper edges.
        assert s["p50"] == bucket_upper_edge(bucket_index(2e-6))
        assert s["p99"] == bucket_upper_edge(bucket_index(100e-6))

    def test_merge_and_per_rank(self):
        a = Histogram()
        b = Histogram()
        a.record(1e-6, rank=0)
        b.record(3e-6, rank=1)
        a.merge(b)
        assert a.count == 2
        assert a.max == 3e-6
        # merge folds per-rank sub-histograms too (shard-merge support)
        assert set(a.per_rank()) == {0, 1}
        assert a.per_rank()[1].count == 1

    def test_registry_merge(self):
        a = Trace()
        b = Trace()
        a.incr("ops", 2)
        b.incr("ops", 3)
        b.incr("only_b", 7)
        a.add_time("wait", 1.5)
        b.add_time("wait", 2.0)
        a.histogram("lat").record(1e-6, rank=0)
        b.histogram("lat").record(2e-6, rank=5)
        b.histogram("only_b").record(3e-6)
        a.merge(b)
        assert a.count("ops") == 5
        assert a.count("only_b") == 7
        assert a.time("wait") == pytest.approx(3.5)
        assert a.histogram("lat").count == 2
        assert set(a.histogram("lat").per_rank()) == {0, 5}
        assert a.histogram("only_b").count == 1
        # The source trace is left untouched.
        assert b.count("ops") == 3 and b.histogram("lat").count == 1

    def test_registry_snapshot_is_json_stable(self, tmp_path):
        trace = Trace()
        trace.incr("b", 2)
        trace.incr("a")
        trace.histogram("lat").record(5e-6, rank=1)
        # snapshot() is the counter dict the benchmark harness reads.
        assert trace.snapshot() == {"a": 1, "b": 2}
        assert json.loads(json.dumps(trace.snapshot())) == trace.snapshot()
        path = tmp_path / "metrics.json"
        write_metrics_json(path, trace)
        text = path.read_text()
        snap = json.loads(text)
        assert list(snap) == ["counters", "durations", "histograms"]
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["lat"]["count"] == 1
        # Recording order does not change the bytes.
        other = Trace()
        other.histogram("lat").record(5e-6, rank=1)
        other.incr("a")
        other.incr("b", 2)
        write_metrics_json(path, other)
        assert path.read_text() == text


class TestHistogramShardMerge:
    """Merge-then-percentile round trips — the serving dashboards fold
    one histogram per shard/rank and quote p50/p99/p999 off the result,
    so the merged view must agree with a single histogram that saw every
    observation directly."""

    def test_record_many_equals_record_loop(self):
        import numpy as np

        rng = np.random.default_rng(9)
        values = rng.lognormal(mean=-12.0, sigma=2.0, size=4000)
        one = Histogram()
        many = Histogram()
        for v in values:
            one.record(float(v), rank=int(v * 1e9) % 3)
        many.record_many(values[:1000], rank=0)
        many.record_many(values[1000:2000], rank=1)
        many.record_many(values[2000:], rank=2)
        # Different rank attribution, identical aggregate view.
        assert many.counts == one.counts
        assert many.count == one.count
        assert many.total == pytest.approx(one.total)
        assert many.min == one.min and many.max == one.max
        for p in (50, 95, 99, 99.9):
            assert many.percentile(p) == one.percentile(p)

    def test_record_many_hits_exact_bucket_edges(self):
        # Edge values must land in the same bucket whether recorded
        # scalar or vectorized (the frexp half-open boundary case).
        edges = [BUCKET_ANCHOR, 2e-9, 2.0000001e-9, 1024e-9, 0.5, 1e30, 0.0]
        scalar = Histogram()
        vector = Histogram()
        for v in edges:
            scalar.record(v)
        vector.record_many(edges)
        assert vector.counts == scalar.counts

    def test_merged_shards_match_global_percentiles(self):
        import numpy as np

        rng = np.random.default_rng(17)
        values = rng.gamma(2.0, 40e-6, size=9000)
        whole = Histogram()
        whole.record_many(values)
        merged = Histogram()
        for shard in np.array_split(values, 7):  # uneven shard sizes
            h = Histogram()
            h.record_many(shard)
            merged.merge(h)
        assert merged.counts == whole.counts
        assert merged.summary() == whole.summary()

    def test_summary_includes_p999(self):
        h = Histogram()
        h.record_many([float(i) * 1e-6 for i in range(1, 1001)])
        s = h.summary()
        assert s["p999"] == bucket_upper_edge(bucket_index(1000e-6))
        assert s["p999"] >= s["p99"] >= s["p95"] >= s["p50"]


def _sample_spans():
    return [
        Span(1, None, 0, "main", "op", "put", 0.0, 3.0),
        Span(2, 1, 0, "net", "rdma", "rdma_put", 0.5, 2.0, {"nbytes": 8}),
        Span(3, 1, 1, "async", "progress", "drain", 1.0, 1.5),
    ]


class TestExport:
    def test_tracks_and_events(self):
        events = to_trace_events(_sample_spans(), [(2, 1)])
        meta = [e for e in events if e["ph"] == "M"]
        # One process per rank + one thread per (rank, lane) pair.
        assert {(e["name"], e["pid"]) for e in meta} == {
            ("process_name", 0),
            ("process_name", 1),
            ("thread_name", 0),
            ("thread_name", 1),
        }
        lanes = {
            (e["pid"], e["args"]["name"])
            for e in meta
            if e["name"] == "thread_name"
        }
        assert lanes == {(0, "main"), (0, "net"), (1, "async")}
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["put", "rdma_put", "drain"]
        assert xs[0]["ts"] == 0.0 and xs[0]["dur"] == pytest.approx(3e6)
        assert xs[1]["args"] == {"span_id": 2, "parent_id": 1, "nbytes": 8}
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        assert flows[0]["id"] == flows[1]["id"]

    def test_payload_validates_and_is_byte_stable(self):
        spans = _sample_spans()
        payload = perfetto_payload(spans, [(2, 1)])
        assert validate_trace_events(payload) == []
        assert dumps_perfetto(spans, [(2, 1)]) == dumps_perfetto(
            list(spans), [(2, 1)]
        )

    def test_open_spans_are_dropped(self):
        spans = _sample_spans() + [Span(4, None, 0, "main", "op", "open", 9.0)]
        names = [e["name"] for e in to_trace_events(spans) if e["ph"] == "X"]
        assert "open" not in names

    def test_validator_flags_bad_events(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": 3}) != []
        bad = {
            "traceEvents": [
                {"ph": "Z", "pid": 0, "tid": 0},
                {"ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": -2.0,
                 "name": "x"},
                {"ph": "s", "pid": 0, "tid": 0, "ts": 1.0},
            ]
        }
        problems = validate_trace_events(bad)
        assert len(problems) == 3

    def test_file_writers(self, tmp_path):
        spans = _sample_spans()
        jsonl = tmp_path / "spans.jsonl"
        write_spans_jsonl(jsonl, spans)
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert [d["span_id"] for d in lines] == [1, 2, 3]
        trace = Trace()
        trace.incr("ops", 3)
        trace.add_time("wait", 2e-6)
        trace.histogram("lat").record(5e-6, rank=1)
        mpath = tmp_path / "metrics.json"
        write_metrics_json(mpath, trace)
        text = mpath.read_text()
        snap = json.loads(text)
        assert snap["counters"] == {"ops": 3}
        assert snap["durations"] == {"wait": 2e-6}
        assert snap["histograms"]["lat"] == trace.histogram("lat").summary()
        # Byte-stable: a second write of the same trace is identical.
        write_metrics_json(mpath, trace)
        assert mpath.read_text() == text


class TestCriticalPath:
    def test_coverage_is_exact_and_waits_attribute_in_place(self):
        spans = [
            Span(1, None, 0, "main", "op", "get", 0.0, 10.0),
            Span(2, 1, 0, "main", "counter_wait", "rmw.wait", 2.0, 8.0),
            # Remote service work: stays out of the sweep.
            Span(3, None, 1, "main", "amo_service", "rmw", 7.0, 8.0),
        ]
        report = critical_path(spans, [(3, 2)])
        assert report.window == pytest.approx(10.0)
        assert report.coverage == pytest.approx(1.0)
        assert report.attribution["counter_wait"] == pytest.approx(6.0)
        assert report.attribution["op"] == pytest.approx(4.0)
        assert "amo_service" not in report.attribution

    def test_barrier_hop_crosses_ranks(self):
        spans = [
            # Rank 0 computes 1s then dwells at the barrier until t=9.
            Span(1, None, 0, "main", "compute", "work", 0.0, 1.0),
            Span(2, None, 0, "main", "barrier", "barrier", 1.0, 9.0),
            # Rank 1 computes until t=8.9 and sails through the barrier.
            Span(3, None, 1, "main", "compute", "work", 0.0, 8.9),
            Span(4, None, 1, "main", "barrier", "barrier", 8.9, 9.0),
        ]
        report = critical_path(spans, [(4, 2)], start_rank=0)
        # The path hops to rank 1 at its barrier arrival: the window is
        # rank 1's compute plus a sliver of true barrier dwell — not
        # rank 0's full 8-second dwell.
        assert report.coverage == pytest.approx(1.0)
        assert report.attribution["compute"] == pytest.approx(8.9)
        assert report.attribution["barrier"] == pytest.approx(0.1)
        ranks = {seg.rank for seg in report.segments}
        assert ranks == {0, 1}

    def test_idle_gaps_are_attributed(self):
        spans = [
            Span(1, None, 0, "main", "op", "a", 0.0, 2.0),
            Span(2, None, 0, "main", "op", "b", 5.0, 6.0),
        ]
        report = critical_path(spans, [])
        assert report.attribution["idle"] == pytest.approx(3.0)
        assert report.coverage == pytest.approx(1.0)

    def test_attribution_rows_render(self):
        spans = [Span(1, None, 0, "main", "op", "a", 0.0, 2.0)]
        rows = attribution_rows(critical_path(spans, []))
        assert rows == [["op", "2000.000 ms", "100.0%"]]

    def test_empty_input(self):
        report = critical_path([], [])
        assert report.segments == []
        assert report.coverage == pytest.approx(1.0)


class TestJobIntegration:
    def _body(self, rt):
        alloc = yield from rt.malloc(64)
        if rt.rank == 0:
            src = rt.world.space(0).allocate(64)
            yield from rt.put(1, src, alloc.addr(1), 64)
            yield from rt.fence(1)
            yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
        yield from rt.barrier()

    def test_disabled_by_default(self):
        job = ArmciJob(2, procs_per_node=2, config=ArmciConfig())
        job.init()
        assert job.obs is None
        job.run(self._body)

    def test_enabled_records_clean_span_tree(self):
        config = ArmciConfig(obs=ObsConfig(enabled=True))
        job = ArmciJob(2, procs_per_node=2, config=config)
        job.init()
        assert job.obs is not None
        job.run(self._body)
        obs = job.obs
        assert obs.truncated_spans == 0
        spans = obs.finished()
        assert len(spans) == len(obs.spans)  # everything closed
        cats = {s.category for s in spans}
        assert {"op", "rdma", "fence", "barrier", "counter_wait"} <= cats
        assert validate_trace_events(perfetto_payload(spans, obs.edges)) == []
        report = job.report()
        assert "spans recorded" in report
        assert "critical path" in report

    def test_same_seed_runs_export_identical_bytes(self):
        payloads = []
        for _ in range(2):
            config = ArmciConfig(obs=ObsConfig(enabled=True))
            job = ArmciJob(2, procs_per_node=2, config=config)
            job.init()
            job.run(self._body)
            payloads.append(
                dumps_perfetto(job.obs.finished(), job.obs.edges)
            )
        assert payloads[0] == payloads[1]

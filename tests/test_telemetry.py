"""The unified telemetry layer: metrics, spans, provenance, merging.

The load-bearing property is *inertness*: telemetry observes, it never
steers. Plans must be byte-identical with provenance on or off, and a
disabled registry/tracer must record nothing.
"""

import json
import threading

import pytest

from repro import telemetry
from repro.core.cost_model import CostModelOptions
from repro.core.planner import PlannerOptions, TsplitPlanner
from repro.pipeline.cache import CompileCache
from repro.pipeline.compile import compile_run
from repro.runtime.engine import Engine
from repro.runtime.observers import ChromeTraceObserver
from repro.telemetry.metrics import NULL_METRIC, MetricsRegistry
from repro.telemetry.spans import SpanTracer
from tests.conftest import BIG_GPU, build_tiny_cnn


def tight_gpu(graph, fraction=0.7):
    baseline = TsplitPlanner(BIG_GPU).plan(graph).baseline_peak
    return BIG_GPU.with_memory(int(baseline * fraction))


def tight_options() -> PlannerOptions:
    return PlannerOptions(
        cost=CostModelOptions(min_split_bytes=0, min_evict_bytes=0),
    )


class TestMetricsRegistry:
    def test_counter_gauge_histogram_timer(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(4.5)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        with registry.timer("t").time():
            pass
        snap = registry.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 3}
        assert snap["g"]["value"] == 4.5
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == 2.0
        assert snap["t"]["count"] == 1
        assert snap["t"]["total"] >= 0

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        metric = registry.counter("c")
        assert metric is NULL_METRIC
        metric.inc()
        with registry.timer("t").time():
            pass
        assert len(registry) == 0
        assert registry.snapshot() == {}

    def test_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(7)
        path = tmp_path / "metrics.jsonl"
        registry.write_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"name": "a.b", "kind": "counter", "value": 7}]


class TestSpanTracer:
    def test_nesting_depth_and_monotonic_clock(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0
        # Children close before parents; all bounds are well ordered and
        # relative to the tracer's zero epoch.
        inner, outer = by_name["inner"], by_name["outer"]
        assert 0 <= outer.start <= inner.start
        assert inner.start <= inner.end <= outer.end
        assert inner.duration >= 0 and outer.duration >= 0

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("x"):
            pass
        assert tracer.spans == []

    def test_chrome_export_shape(self):
        tracer = SpanTracer()
        with tracer.span("plan", model="m"):
            pass
        events = tracer.to_chrome_events(pid=3)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["name"] == "plan"
        assert slices[0]["pid"] == 3
        assert slices[0]["args"] == {"model": "m"}
        assert any(e["name"] == "process_name" for e in events)


class TestConcurrentSpans:
    """Regression: span nesting state is context-local, not shared.

    Pre-fix, one tracer kept a single mutable span stack; two threads
    recording through it interleaved, inflating depths and producing
    malformed Chrome flames. Now depth lives in a context variable and
    every span carries the track (``tid``) it was opened on.
    """

    def test_threads_get_distinct_tracks_with_local_depth(self):
        tracer = SpanTracer()
        barrier = threading.Barrier(4)

        def one_request(n):
            barrier.wait()  # maximise overlap across threads
            with tracer.span(f"outer-{n}"):
                with tracer.span(f"inner-{n}"):
                    pass

        threads = [
            threading.Thread(target=one_request, args=(n,))
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.spans) == 8
        # Depth never exceeds each thread's true nesting (a shared stack
        # would have climbed towards 8 under full overlap).
        assert max(s.depth for s in tracer.spans) == 1
        by_tid = {}
        for span in tracer.spans:
            by_tid.setdefault(span.tid, []).append(span)
        assert sorted(by_tid) == [0, 1, 2, 3]
        for spans in by_tid.values():
            by_depth = {s.depth: s for s in spans}
            assert set(by_depth) == {0, 1}
            # Each track holds exactly one request's pair.
            assert by_depth[0].name.split("-")[1] == \
                by_depth[1].name.split("-")[1]
            assert by_depth[0].start <= by_depth[1].start
            assert by_depth[1].end <= by_depth[0].end

    def test_chrome_export_names_every_track(self):
        tracer = SpanTracer()

        def record(name):
            with tracer.span(name):
                pass

        record("main")
        worker = threading.Thread(target=record, args=("worker",))
        worker.start()
        worker.join()
        events = tracer.to_chrome_events()
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events if e.get("name") == "thread_name"
        }
        assert thread_names == {0: "pipeline", 1: "pipeline-1"}
        slices = {e["name"]: e["tid"] for e in events if e["ph"] == "X"}
        assert slices == {"main": 0, "worker": 1}

    def test_concurrent_counters_do_not_tear(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h")

        def spin():
            for _ in range(5000):
                counter.inc()
                histogram.observe(1.0)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        assert snap["c"]["value"] == 40_000
        assert snap["h"]["count"] == 40_000
        assert snap["h"]["mean"] == 1.0


class TestProvenanceInert:
    """Plans are byte-identical with provenance on or off."""

    def test_identical_plans(self):
        graph = build_tiny_cnn(batch=64, image=32)
        gpu = tight_gpu(graph)
        options = tight_options()
        plain = TsplitPlanner(gpu, options).plan(graph, explain=False)
        explained = TsplitPlanner(gpu, options).plan(graph, explain=True)
        assert explained.plan.configs == plain.plan.configs
        assert explained.plan == plain.plan  # explanation excluded
        assert [d.key for d in explained.decisions] == \
            [d.key for d in plain.decisions]
        assert explained.peak_memory == plain.peak_memory
        assert explained.estimated_time == plain.estimated_time
        assert plain.explanation is None
        assert explained.explanation is not None

    def test_explanation_contents(self):
        graph = build_tiny_cnn(batch=64, image=32)
        gpu = tight_gpu(graph)
        result = TsplitPlanner(gpu, tight_options()).plan(
            graph, explain=True,
        )
        explanation = result.explanation
        assert explanation.graph == graph.name
        assert explanation.baseline_peak == result.baseline_peak
        assert explanation.final_peak == result.peak_memory
        assert len(explanation.decisions) == len(result.decisions)
        for decision, candidate in zip(
            explanation.decisions, result.decisions,
        ):
            assert decision.tensor_id == candidate.tensor_id
            assert decision.delta_t == candidate.delta_t
            assert decision.kind == candidate.kind
            assert decision.tensor  # named, not just an id
            assert decision.peak_before >= decision.peak_after >= 0
        # The last decision lands the peak on the final value.
        assert explanation.decisions[-1].peak_after == result.peak_memory
        assert sum(explanation.kind_counts().values()) == \
            len(explanation.decisions)

    def test_follows_telemetry_session(self):
        graph = build_tiny_cnn(batch=64, image=32)
        gpu = tight_gpu(graph)
        planner = TsplitPlanner(gpu, tight_options())
        assert planner.plan(graph).explanation is None
        with telemetry.session():
            assert planner.plan(graph).explanation is not None
        assert planner.plan(graph).explanation is None

    def test_explanation_serializes(self):
        graph = build_tiny_cnn(batch=64, image=32)
        result = TsplitPlanner(
            tight_gpu(graph), tight_options(),
        ).plan(graph, explain=True)
        payload = json.loads(result.explanation.to_json())
        assert payload["graph"] == graph.name
        assert len(payload["decisions"]) == len(result.decisions)


class TestCacheStats:
    def test_per_kind_counts(self):
        cache = CompileCache()
        cache.get("k1", kind="profile")           # miss
        cache.put("k1", "v", kind="profile")
        cache.get("k1", kind="profile")           # hit
        cache.get("k2", kind="plan")              # miss
        stats = cache.cache_stats()
        assert stats["kinds"]["profile"] == \
            {"hits": 1, "misses": 1, "evictions": 0}
        assert stats["kinds"]["plan"]["misses"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_evictions_attributed_to_kind(self):
        cache = CompileCache(max_entries=1)
        cache.put("k1", "v1", kind="profile")
        cache.put("k2", "v2", kind="plan")        # evicts k1
        stats = cache.cache_stats()
        assert stats["evictions"] == 1
        assert stats["kinds"]["profile"]["evictions"] == 1

    def test_pipeline_populates_kind_stats(self):
        graph = build_tiny_cnn(batch=8)
        cache = CompileCache()
        compile_run(graph, "base", BIG_GPU, cache=cache)
        compile_run(graph, "base", BIG_GPU, cache=cache)
        stats = cache.cache_stats()
        assert stats["kinds"]["profile"]["misses"] == 1
        assert stats["kinds"]["profile"]["hits"] == 1
        assert stats["kinds"]["plan"]["hits"] == 1

    def test_telemetry_counters_mirror_cache_events(self):
        graph = build_tiny_cnn(batch=8)
        cache = CompileCache()
        with telemetry.session() as tel:
            compile_run(graph, "base", BIG_GPU, cache=cache)
            compile_run(graph, "base", BIG_GPU, cache=cache)
            snap = tel.metrics.snapshot()
        assert snap["compile_cache.profile.misses"]["value"] == 1
        assert snap["compile_cache.profile.hits"]["value"] == 1
        assert snap["compile_cache.profile.key_seconds"]["count"] == 2
        assert snap["pipeline.profile.cached"]["value"] == 1


class TestPipelineSpans:
    def test_compile_run_emits_stage_spans(self):
        graph = build_tiny_cnn(batch=8)
        with telemetry.session() as tel:
            compile_run(graph, "base", BIG_GPU)
            names = [s.name for s in tel.tracer.spans]
        assert names == ["profile", "plan", "lower", "execute"]
        assert all(s.depth == 0 for s in tel.tracer.spans)

    def test_disabled_session_emits_nothing(self):
        graph = build_tiny_cnn(batch=8)
        compile_run(graph, "base", BIG_GPU)
        assert telemetry.get_telemetry().tracer.spans == []


class TestMergeTraces:
    def _engine_trace(self):
        from tests.test_observers import SLOW_PCIE_GPU, _stall_program

        observer = ChromeTraceObserver()
        Engine(SLOW_PCIE_GPU).execute(
            _stall_program(), observers=(observer,),
        )
        return observer

    def test_sources_get_distinct_pids(self):
        tracer = SpanTracer()
        with tracer.span("plan"):
            pass
        observer = self._engine_trace()
        merged = telemetry.merge_traces(tracer, observer)
        events = merged["traceEvents"]
        tracer_pids = {e["pid"] for e in events if e.get("name") == "plan"}
        engine_pids = {
            e["pid"] for e in events
            if e["ph"] == "X" and e.get("cat") == "stall"
        }
        assert tracer_pids and engine_pids
        assert tracer_pids.isdisjoint(engine_pids)

    def test_names_override_process_metadata(self):
        tracer = SpanTracer()
        with tracer.span("plan"):
            pass
        merged = telemetry.merge_traces(
            tracer, self._engine_trace(),
            names=["compile", "runtime"],
        )
        names = {
            e["args"]["name"] for e in merged["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert {"compile", "runtime"} <= names

    def test_round_trips_through_write(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("plan"):
            pass
        path = tmp_path / "merged.json"
        telemetry.write_trace(path, telemetry.merge_traces(tracer))
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

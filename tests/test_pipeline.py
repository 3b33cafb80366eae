"""The staged compilation pipeline and its content-addressed cache."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.analysis.parallel import parallel_map, resolve_workers
from repro.analysis.runner import run_policy
from repro.analysis.throughput import throughput_sweep
from repro.hardware.gpu import GPU_PRESETS
from repro.models.registry import build_model
from repro.pipeline import (
    CompileCache,
    PlanStage,
    ProfileStage,
    compile_run,
    fingerprint,
    graph_signature,
)
from repro.pipeline.stages import resolve_policy
from repro.core.profiler import Profiler

GPU = GPU_PRESETS["gtx_1080ti"]


@pytest.fixture(scope="module")
def graph():
    return build_model("vgg16", 128)


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sets_are_canonical(self):
        assert fingerprint({3, 1, 2}) == fingerprint({1, 2, 3})

    def test_rebuilt_graph_has_same_signature(self, graph):
        again = build_model("vgg16", 128)
        assert graph_signature(graph) == graph_signature(again)

    def test_different_batch_changes_signature(self, graph):
        other = build_model("vgg16", 64)
        assert graph_signature(graph) != graph_signature(other)


class TestProfileCache:
    def test_second_run_hits(self, graph):
        cache = CompileCache()
        stage = ProfileStage(Profiler(GPU))
        first = stage.run(graph, GPU, cache=cache)
        second = stage.run(graph, GPU, cache=cache)
        assert not first.cached and second.cached
        assert second.profile is first.profile

    def test_capacity_change_shares_profile(self, graph):
        """Over-subscription sweeps shrink only the capacity; the
        profile key must not change."""
        cache = CompileCache()
        stage = ProfileStage(Profiler(GPU))
        stage.run(graph, GPU, cache=cache)
        shrunk = GPU.with_memory(GPU.memory_bytes // 2)
        again = stage.run(graph, shrunk, cache=cache)
        assert again.cached

    def test_concurrent_misses_profile_once(self, graph, monkeypatch):
        """Two threads missing on one profile key profile it once."""
        calls = []
        real_profile = Profiler.profile

        def slow_profile(self, g):
            calls.append(threading.get_ident())
            time.sleep(0.2)  # both threads are inside run() by now
            return real_profile(self, g)

        monkeypatch.setattr(Profiler, "profile", slow_profile)
        cache = CompileCache()
        stage = ProfileStage(Profiler(GPU))
        barrier = threading.Barrier(2)
        results = []

        def run():
            barrier.wait()
            results.append(stage.run(graph, GPU, cache=cache))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert sorted(r.cached for r in results) == [False, True]
        assert cache.cache_stats()["kinds"]["profile"]["misses"] == 1

    def test_plan_key_sees_capacity(self, graph):
        """Plans, unlike profiles, must re-key when capacity changes."""
        cache = CompileCache()
        profile = ProfileStage(Profiler(GPU)).run(graph, GPU, cache=cache)
        stage = PlanStage(resolve_policy("tsplit"))
        shrunk = GPU.with_memory(GPU.memory_bytes // 2)
        assert stage.key(profile, GPU) != stage.key(profile, shrunk)


class TestCompileRun:
    def test_matches_run_policy(self, graph):
        direct = run_policy(graph, "tsplit", GPU)
        compiled = compile_run(graph, "tsplit", GPU).result
        assert direct.feasible == compiled.feasible
        assert direct.throughput == compiled.throughput
        assert direct.plan.configs == compiled.plan.configs

    def test_cached_recompilation_is_identical(self, graph):
        cache = CompileCache()
        first = compile_run(graph, "tsplit", GPU, cache=cache)
        second = compile_run(graph, "tsplit", GPU, cache=cache)
        assert second.profile.cached and second.plan.cached
        assert second.result.throughput == first.result.throughput

    def test_planning_failure_is_cached(self, graph):
        cache = CompileCache()
        tiny = GPU.with_memory(64 * 2**20)
        first = compile_run(graph, "tsplit", tiny, cache=cache)
        second = compile_run(graph, "tsplit", tiny, cache=cache)
        assert not first.result.feasible
        assert second.plan.cached
        assert second.result.failure == first.result.failure
        assert first.lowered is None and first.executed is None

    def test_lowering_failure_is_infeasible(self):
        # The plan swaps dec6/ffn1/weight to host; lowering frees it after
        # a recompute chain reads it, and its next consumer then tries to
        # recompute a tensor with no producer.
        graph = build_model("transformer", 16)
        gpu = GPU_PRESETS["gtx_1080ti"]
        gpu = gpu.with_memory(int(gpu.memory_bytes * 0.05))
        compiled = compile_run(graph, "tsplit", gpu)
        assert compiled.plan.feasible
        assert not compiled.result.feasible
        assert "has no producer; cannot recompute" in compiled.result.failure
        assert compiled.result.plan is compiled.plan.plan
        assert compiled.lowered is None and compiled.executed is None


class TestParallelSweep:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(True, 100) == min(os.cpu_count() or 4, 100)

    def test_map_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(20), 4) == [
            x * x for x in range(20)
        ]

    def test_parallel_sweep_equals_serial(self):
        policies = ["base", "tsplit"]
        batches = [32, 128]
        serial = throughput_sweep("vgg16", policies, batches, GPU)
        threaded = throughput_sweep(
            "vgg16", policies, batches, GPU, parallel=4,
        )
        assert serial == threaded

    def test_shared_cache_profiles_once(self):
        cache = CompileCache()
        throughput_sweep(
            "vgg16", ["base", "vdnn_all", "tsplit"], [64], GPU,
            cache=cache,
        )
        stats = cache.stats()
        # Three policies, one batch: one profile miss, two profile hits
        # (plans never hit — each policy keys its own).
        assert stats["hits"] >= 2


class TestCacheEviction:
    def test_lru_bound(self):
        cache = CompileCache(max_entries=2)
        for i in range(5):
            cache.put(f"k{i}", i)
        assert len(cache) == 2
        assert cache.get("k4") == 4
        assert cache.get("k0") is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            CompileCache(max_entries=0)


class TestCacheStats:
    def test_kind_breakdown_tracks_stage_traffic(self, graph):
        cache = CompileCache()
        compile_run(graph, "base", GPU, cache=cache)
        compile_run(graph, "base", GPU, cache=cache)
        stats = cache.cache_stats()
        assert stats["hits"] == cache.stats()["hits"]
        assert stats["kinds"]["profile"] == \
            {"hits": 1, "misses": 1, "evictions": 0}
        assert stats["kinds"]["plan"] == \
            {"hits": 1, "misses": 1, "evictions": 0}

    def test_eviction_counted_against_evicted_kind(self):
        cache = CompileCache(max_entries=1)
        cache.put("a", 1, kind="profile")
        cache.put("b", 2, kind="plan")
        assert cache.cache_stats()["kinds"]["profile"]["evictions"] == 1
        assert cache.stats()["evictions"] == 1

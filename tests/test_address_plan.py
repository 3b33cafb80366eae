"""The spatio-temporal address planner: the property suite IS the spec.

Covers the tentpole contracts of ``repro.planner.address_plan``:

* hypothesis-generated allocation streams and random nets x policies x
  capacities: no two placements overlap in address x event-time,
  alignment and the pinned persistent region are respected, and a
  planned replay never exceeds the capacity it was admitted against;
* ``packed_peak <= baseline_extent`` (the online best-fit replay) by
  construction — the suite deliberately does NOT require the packed
  peak to be at least the ledger's chronological peak;
* cross-check: replaying the planned strategy through the *real*
  :class:`MemoryPool` reproduces the packer's predicted peak
  byte-for-byte on every registry model, and the memscope shadow pool
  agrees at every event;
* plan invalidation: replan hot-swaps and fault-triggered emergency
  evictions mark the artifact stale, and a planned pool fed a deviated
  stream falls back to best-fit loudly without corrupting itself;
* ``address_plan=True`` is purely additive — plans and traces are
  byte-identical with the stage off.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.allocator_replay import (
    chronological_peak,
    replay_allocations,
)
from repro.analysis.memscope import AddressSpaceTimeline, MemscopeObserver
from repro.core.augment import AugmentOptions
from repro.faults.model import FaultConfig
from repro.hardware.gpu import GPU_PRESETS, GPUSpec
from repro.hardware.memory_pool import (
    ALIGNMENT,
    PERSISTENT_LABEL,
    _align,
)
from repro.models.random_net import build_random_cnn
from repro.models.registry import build_model, model_names
from repro.pipeline.cache import CompileCache
from repro.pipeline.compile import compile_run
from repro.planner.address_plan import (
    best_fit_extent,
    extract_intervals,
    packed_feasible,
    plan_addresses,
    plan_stale_reasons,
)
from repro.runtime.engine import Engine, EngineOptions
from repro.runtime.trace import ExecutionTrace
from repro.units import MB, TFLOPS
from tests.conftest import BIG_GPU, build_tiny_cnn

POLICIES = ("base", "vdnn_all", "checkpoints", "zero_offload", "tsplit")

#: The replan-win configuration from test_replan.py: a capacity squeeze
#: plus a deterministically degraded link makes the dynamic loop
#: hot-swap plans mid-run — exactly the deviation that must invalidate
#: an address plan.
WIN_GPU = GPUSpec(
    name="replan-win-gpu",
    memory_bytes=28 * MB,
    peak_flops=0.2 * TFLOPS,
    mem_bandwidth=100e9,
    pcie_bandwidth=12e9,
)
DEGRADED = FaultConfig(seed=3, pcie_degradation=0.6)


def synthetic_trace(events, persistent=0):
    """A minimal trace carrying only an allocation event stream."""
    return ExecutionTrace(
        name="synthetic", batch=1, iteration_time=1.0, compute_busy=1.0,
        cpu_busy=0.0, d2h_busy=0.0, h2d_busy=0.0, memory_stall=0.0,
        peak_memory=0, persistent_bytes=persistent, swapped_out_bytes=0,
        swapped_in_bytes=0, recompute_time=0.0, recompute_ops=0,
        split_kernels=0, alloc_events=list(events),
    )


@st.composite
def alloc_streams(draw):
    """A random well-formed alloc/free stream plus a persistent region.

    Timestamps deliberately collide (several events at the same
    instant) — interference must be decided by *event order*, not time,
    or same-instant placements overlap.
    """
    count = draw(st.integers(min_value=1, max_value=40))
    events = []
    live = []
    time = 0.0
    for _ in range(count):
        time += draw(st.sampled_from([0.0, 0.0, 0.5]))
        if live and not draw(st.booleans()):
            index = draw(st.integers(min_value=0, max_value=len(live) - 1))
            label, nbytes = live.pop(index)
            events.append((time, label, -nbytes))
        else:
            nbytes = draw(st.integers(min_value=1, max_value=64 * 1024))
            label = f"t{draw(st.integers(min_value=0, max_value=7))}"
            events.append((time, label, nbytes))
            live.append((label, nbytes))
    persistent = draw(st.sampled_from([0, 1, 4096, 100_000]))
    return events, persistent


def assert_plan_invariants(trace, plan):
    """The packing's safety contract, checked exhaustively (O(n^2))."""
    intervals, _ = extract_intervals(trace)
    assert len(plan.entries) == len(intervals)
    for entry in plan.entries:
        assert entry.offset % ALIGNMENT == 0
        assert entry.size == _align(entry.nbytes)
    if trace.persistent_bytes:
        assert plan.entries[0].label == PERSISTENT_LABEL
        assert plan.entries[0].offset == 0
        assert plan.persistent_size == _align(trace.persistent_bytes)
        assert plan.loop_start == 1
    # No two allocations whose event-index lifetimes overlap may share
    # addresses — the spatio-temporal exclusion property.
    for i, a in enumerate(intervals):
        ea = plan.entries[i]
        for j in range(i + 1, len(intervals)):
            b = intervals[j]
            if a.start < b.end and b.start < a.end:
                eb = plan.entries[j]
                assert (ea.offset + ea.size <= eb.offset
                        or eb.offset + eb.size <= ea.offset), (i, j)
    peak = max(
        (entry.offset + entry.size for entry in plan.entries), default=0,
    )
    assert plan.packed_peak == peak


class TestSyntheticStreams:
    @settings(max_examples=60, deadline=None)
    @given(stream=alloc_streams())
    def test_packing_is_safe_and_never_worse_than_best_fit(self, stream):
        events, persistent = stream
        trace = synthetic_trace(events, persistent=persistent)
        plan = plan_addresses(trace)
        assert_plan_invariants(trace, plan)
        # The admission contract: packed never needs more address space
        # than the online best-fit replay. (The suite does NOT require
        # packed_peak >= the ledger's chronological peak — alignment
        # aside, packing is free to beat byte accounting's assumptions.)
        assert plan.baseline_extent == best_fit_extent(trace)
        assert plan.packed_peak <= plan.baseline_extent
        assert plan.feasible(plan.packed_peak)
        assert not plan.feasible(plan.packed_peak - 1)

    @settings(max_examples=40, deadline=None)
    @given(stream=alloc_streams())
    def test_planned_replay_reproduces_packed_peak(self, stream):
        events, persistent = stream
        trace = synthetic_trace(events, persistent=persistent)
        plan = plan_addresses(trace)
        result = replay_allocations(
            trace, plan.packed_peak, strategy="planned", plan=plan,
        )
        assert result.succeeded, result.failed_at
        assert result.plan_misses == 0
        assert result.peak_extent == plan.packed_peak
        # Never exceed capacity: the pool's high-watermark is bounded
        # by exactly the capacity the plan was admitted against.
        assert result.peak_extent <= plan.packed_peak

    @settings(max_examples=20, deadline=None)
    @given(stream=alloc_streams())
    def test_planning_is_deterministic(self, stream):
        events, persistent = stream
        trace = synthetic_trace(events, persistent=persistent)
        again = synthetic_trace(list(events), persistent=persistent)
        assert plan_addresses(trace).digest() == \
            plan_addresses(again).digest()


class TestRandomNets:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        policy=st.sampled_from(POLICIES),
        frac=st.sampled_from([1.0, 0.6, 0.3]),
    )
    def test_random_pipelines_pack_safely(self, seed, policy, frac):
        """Random nets x policies x capacities: every feasible run's
        stream packs without overlap and replays to the packed peak."""
        graph = build_random_cnn(seed, batch=4, max_blocks=3)
        gpu = dataclasses.replace(
            BIG_GPU, name="fuzz-gpu",
            memory_bytes=int(BIG_GPU.memory_bytes * frac),
        )
        run = compile_run(graph, policy, gpu, address_plan=True)
        if not run.result.feasible:
            assert run.result.failure
            return
        artifact = run.address_plan
        assert artifact is not None and artifact.feasible, artifact.error
        plan = artifact.plan
        trace = run.result.trace
        assert_plan_invariants(trace, plan)
        assert plan.packed_peak <= plan.baseline_extent
        assert packed_feasible(trace, gpu.memory_bytes, plan=plan)
        result = replay_allocations(
            trace, plan.packed_peak, strategy="planned", plan=plan,
        )
        assert result.succeeded, result.failed_at
        assert result.plan_misses == 0
        assert result.peak_extent == plan.packed_peak


#: Model-specific shrink knobs keep the registry sweep fast without
#: changing any allocator-relevant semantics.
MODEL_KWARGS = {
    "bert_large": {"layers": 2},
    "transformer": {"seq_len": 16, "layers": 2},
    "gpt": {"layers": 2, "seq_len": 32},
}


class TestRegistryCrossCheck:
    @pytest.mark.parametrize("name", model_names())
    def test_planned_replay_matches_prediction(self, name):
        """The packer's predicted peak is exact: the real pool under
        the planned strategy reproduces it byte-for-byte."""
        graph = build_model(name, 2, **MODEL_KWARGS.get(name, {}))
        run = compile_run(graph, "base", BIG_GPU, address_plan=True)
        assert run.result.feasible, run.result.failure
        artifact = run.address_plan
        assert artifact is not None and artifact.feasible, artifact.error
        plan = artifact.plan
        trace = run.result.trace
        result = replay_allocations(
            trace, plan.packed_peak, strategy="planned", plan=plan,
        )
        assert result.succeeded, (name, result.failed_at)
        assert result.plan_misses == 0
        assert result.peak_extent == plan.packed_peak
        # Peak-used (byte accounting) still agrees with the ledger.
        assert result.peak_used >= chronological_peak(trace) \
            - trace.persistent_bytes + _align(trace.persistent_bytes)

    def test_memscope_shadow_pool_agrees_at_every_event(self):
        cache = CompileCache()
        graph = build_tiny_cnn()
        run = compile_run(
            graph, "tsplit", BIG_GPU, cache=cache, address_plan=True,
        )
        assert run.result.feasible
        plan = run.address_plan.plan
        trace = run.result.trace
        timeline = AddressSpaceTimeline.from_trace(
            trace, plan.packed_peak, strategy="planned", plan=plan,
        )
        assert len(timeline.records) == len(plan.entries)
        for record, entry in zip(timeline.records, plan.entries):
            assert record.offset == entry.offset, record.label
            assert record.size == entry.size, record.label

    def test_memscope_observer_audits_live_run(self):
        cache = CompileCache()
        first = compile_run(
            build_tiny_cnn(), "tsplit", BIG_GPU,
            cache=cache, address_plan=True,
        )
        plan = first.address_plan.plan
        observer = MemscopeObserver(
            capacity=plan.packed_peak, strategy="planned", plan=plan,
        )
        audited = compile_run(
            build_tiny_cnn(), "tsplit", BIG_GPU,
            cache=cache, address_plan=True, observers=(observer,),
        )
        assert audited.result.feasible
        assert audited.address_plan.cached
        assert observer.placement_failures == []
        assert observer.pool.stats.plan_misses == 0
        assert observer.pool.stats.peak_extent == plan.packed_peak


class TestPlanInvalidation:
    def clean_run(self, cache=None):
        return compile_run(
            build_tiny_cnn(), "base", BIG_GPU,
            cache=cache, address_plan=True,
        )

    def shrunk(self, peak, frac):
        return dataclasses.replace(
            BIG_GPU, name="shrunk-gpu", memory_bytes=int(peak * frac),
        )

    def test_clean_artifact_is_not_stale(self):
        run = self.clean_run()
        assert run.address_plan.feasible
        assert not run.address_plan.stale
        assert run.address_plan.stale_reason == ""
        assert plan_stale_reasons(run.result.trace) == []

    def test_emergency_eviction_marks_artifact_stale(self):
        clean = self.clean_run()
        gpu = self.shrunk(clean.result.trace.peak_memory, 0.9)
        run = compile_run(
            build_tiny_cnn(), "base", gpu,
            faults=FaultConfig(seed=0), address_plan=True,
        )
        assert run.result.feasible, run.result.failure
        assert run.result.trace.emergency_evictions > 0
        assert run.address_plan is not None
        assert run.address_plan.stale
        assert "emergency eviction" in run.address_plan.stale_reason

    def test_replan_hot_swap_marks_artifact_stale(self):
        cache = CompileCache()
        graph = build_tiny_cnn(32, image=64)
        run = compile_run(
            graph, "tsplit", WIN_GPU, cache=cache,
            iterations=5, faults=DEGRADED, replan=True,
            address_plan=True,
        )
        assert run.result.feasible, run.result.failure
        assert run.result.trace.plan_swaps >= 1
        artifact = run.address_plan
        assert artifact is not None and artifact.feasible
        assert artifact.stale
        assert "hot-swap" in artifact.stale_reason

    def test_static_clean_replan_stays_fresh(self):
        cache = CompileCache()
        graph = build_tiny_cnn(32, image=64)
        run = compile_run(
            graph, "tsplit", WIN_GPU, cache=cache,
            iterations=4, replan=True, address_plan=True,
        )
        assert run.result.feasible
        assert run.result.trace.plan_swaps == 0
        assert run.address_plan is not None
        assert not run.address_plan.stale

    @pytest.mark.filterwarnings("ignore:planned pool falling back")
    def test_timing_faults_mark_artifact_stale(self):
        """Link jitter reorders the allocation stream without any
        recovery count; the planned replay's misses must mark the plan
        stale."""
        run = compile_run(
            build_model("vgg16", 64), "vdnn_all", GPU_PRESETS["gtx_1080ti"],
            faults=FaultConfig(seed=1, pcie_jitter=0.3), address_plan=True,
        )
        assert run.result.feasible, run.result.failure
        assert plan_stale_reasons(run.result.trace) == []
        assert run.address_plan.feasible
        assert run.address_plan.stale
        assert "plan miss(es)" in run.address_plan.stale_reason

    def test_unrecorded_stream_of_faulted_run_is_stale(self):
        """Without a recorded allocation stream the planned replay has
        nothing to miss, so a run that may deviate cannot be shown to
        match its plan."""
        run = compile_run(
            build_model("vgg16", 64), "vdnn_all", GPU_PRESETS["gtx_1080ti"],
            engine_options=EngineOptions(record_trace=False),
            faults=FaultConfig(seed=1, pcie_jitter=0.3), address_plan=True,
        )
        assert run.result.feasible, run.result.failure
        assert not run.result.trace.alloc_events
        assert run.address_plan.feasible
        assert run.address_plan.stale
        assert run.address_plan.stale_reason == "allocation stream not recorded"

    def test_deviated_stream_falls_back_without_corruption(self):
        """A stale plan fed the faulty (evicted) stream must degrade to
        best-fit loudly — extra frees and refetch allocs miss the plan —
        and the pool must stay consistent to the end of the replay."""
        clean = self.clean_run()
        plan = clean.address_plan.plan
        gpu = self.shrunk(clean.result.trace.peak_memory, 0.9)
        faulty = compile_run(
            build_tiny_cnn(), "base", gpu, faults=FaultConfig(seed=0),
        )
        assert faulty.result.feasible
        trace = faulty.result.trace
        assert plan_stale_reasons(trace)
        generous = 2 * clean.result.trace.peak_memory
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = replay_allocations(
                trace, generous, strategy="planned", plan=plan,
            )
        assert result.succeeded, result.failed_at
        assert result.plan_misses > 0
        assert result.alloc_count == result.plan_hits + result.plan_misses
        assert any(
            issubclass(w.category, RuntimeWarning) and "falling back"
            in str(w.message) for w in caught
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_seeds_never_corrupt_planned_replay(self, seed):
        """Chaos-seed fallback: whatever a seeded fault run did to the
        stream, a planned replay of it either succeeds or fails as a
        clean OOM — never an internal pool error."""
        clean = self.clean_run()
        plan = clean.address_plan.plan
        gpu = self.shrunk(clean.result.trace.peak_memory, 0.9)
        faulty = compile_run(
            build_tiny_cnn(), "base", gpu,
            faults=FaultConfig(seed=seed, transfer_failure_rate=0.2),
        )
        if not faulty.result.feasible:
            return
        trace = faulty.result.trace
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for capacity in (plan.packed_peak, 2 * plan.baseline_extent):
                result = replay_allocations(
                    trace, capacity, strategy="planned", plan=plan,
                )
                if result.succeeded:
                    assert result.peak_extent <= capacity
                else:
                    assert result.failed_at


class TestByteIdentity:
    def test_stage_off_yields_no_artifact_and_same_trace(self):
        on = compile_run(
            build_tiny_cnn(), "tsplit", BIG_GPU, address_plan=True,
        )
        off = compile_run(build_tiny_cnn(), "tsplit", BIG_GPU)
        assert off.address_plan is None
        assert on.address_plan is not None and on.address_plan.feasible
        assert dataclasses.asdict(on.result.trace) == \
            dataclasses.asdict(off.result.trace)

    def test_engine_oom_artifact_carries_engine_error(self):
        run = compile_run(
            build_model("vgg16", 256), "vdnn_all", GPU_PRESETS["gtx_1080ti"],
            address_plan=True,
        )
        assert run.plan.feasible and not run.executed.feasible
        assert not run.address_plan.feasible
        assert run.address_plan.error == run.executed.error

    def test_key_covers_gpu_performance(self):
        """Two devices of equal capacity but different link speeds
        allocate in different orders; one must never be served the
        other's plan."""
        fast = GPU_PRESETS["gtx_1080ti"]
        slow = dataclasses.replace(
            fast, pcie_bandwidth=fast.pcie_bandwidth / 8,
        )
        cache = CompileCache()
        compile_run(
            build_model("vgg16", 64), "vdnn_all", fast,
            cache=cache, address_plan=True,
        )
        shared = compile_run(
            build_model("vgg16", 64), "vdnn_all", slow,
            cache=cache, address_plan=True,
        )
        fresh = compile_run(
            build_model("vgg16", 64), "vdnn_all", slow, address_plan=True,
        )
        assert not shared.address_plan.cached
        assert shared.address_plan.plan.entries == \
            fresh.address_plan.plan.entries

    def test_key_tracks_lowering_options_and_capacity(self):
        def key(gpu=BIG_GPU, options=None):
            return compile_run(
                build_tiny_cnn(), "vdnn_all", gpu, cache=CompileCache(),
                augment_options=options, address_plan=True,
            ).address_plan.key

        base = key()
        assert key() == base
        assert key(options=AugmentOptions(prefetch_ops=1)) != base
        assert key(gpu=dataclasses.replace(
            BIG_GPU, memory_bytes=BIG_GPU.memory_bytes // 2,
        )) != base

    def test_artifact_is_content_cached(self):
        cache = CompileCache()
        first = compile_run(
            build_tiny_cnn(), "tsplit", BIG_GPU,
            cache=cache, address_plan=True,
        )
        second = compile_run(
            build_tiny_cnn(), "tsplit", BIG_GPU,
            cache=cache, address_plan=True,
        )
        assert not first.address_plan.cached
        assert second.address_plan.cached
        assert first.address_plan.key == second.address_plan.key
        assert first.address_plan.plan.digest() == \
            second.address_plan.plan.digest()


class TestEnginePasses:
    """The stage packs the execute run when it is the clean pass, and
    runs its own pass only when it is not."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]

        def counted(method):
            def wrapper(*args, **kwargs):
                count[0] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Engine, "execute", counted(Engine.execute))
        monkeypatch.setattr(
            Engine, "execute_iterations", counted(Engine.execute_iterations),
        )
        return count

    def run(self, cache=None, **kwargs):
        return compile_run(
            build_tiny_cnn(), "tsplit", BIG_GPU, cache=cache,
            address_plan=True, **kwargs,
        )

    def test_clean_miss_runs_one_pass_and_hit_adds_none(self, passes):
        cache = CompileCache()
        assert not self.run(cache).address_plan.cached
        assert passes[0] == 1
        assert self.run(cache).address_plan.cached
        assert passes[0] == 2

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 2},
        {"faults": FaultConfig(seed=0)},
        {"engine_options": EngineOptions(record_trace=False)},
    ], ids=["iterations", "faults", "no_trace"])
    def test_non_clean_run_adds_own_pass(self, passes, kwargs):
        run = self.run(CompileCache(), **kwargs)
        assert run.address_plan.feasible
        assert passes[0] == 2

"""Memscope: shadow-pool provenance, timelines, and OOM forensics.

Covers the core contracts: the occupancy counter track agrees with the
engine's ledger at every event, plans/traces are byte-identical with
memscope attached or not, the postmortem classifies capacity vs
fragmentation and proposes a minimal eviction set that provably admits
the failed request, and digests are identical across sweep backends and
around mid-run attach/detach.
"""

import dataclasses
import functools
import json

from repro.analysis.memscope import (
    PERSISTENT_LABEL,
    AddressSpaceTimeline,
    MemscopeObserver,
    analyze_failed_alloc,
    eviction_admits,
    memscope_point,
    minimal_eviction_set,
    run_memscope,
    run_memscope_cluster,
    tensor_residency,
)
from repro.analysis.parallel import sweep
from repro.analysis.runner import run_policy
from repro.faults import FaultConfig
from repro.hardware.cluster import ClusterSpec
from repro.hardware.memory_pool import ALIGNMENT, MemoryPool, PoolRecorder
from repro.pipeline.compile import compile_run
from repro.runtime.engine import Engine, EngineOptions
from repro.runtime.observers import MemoryTimelineObserver
from repro.units import MB
from tests.conftest import BIG_GPU, build_tiny_cnn


def trace_bytes(trace) -> bytes:
    """Canonical byte encoding of every trace field."""
    return json.dumps(
        dataclasses.asdict(trace), sort_keys=True, default=str,
    ).encode()


def shrunk(gpu, capacity: int):
    return dataclasses.replace(
        gpu, name="shrunk-gpu", memory_bytes=int(capacity),
    )


def recorded_pool(capacity: int, strategy: str = "best_fit"):
    pool = MemoryPool(capacity=capacity, strategy=strategy)
    pool.recorder = PoolRecorder()
    return pool


class TestLedgerAgreement:
    """The exported counter track is the ledger, sample for sample."""

    def setup_method(self):
        self.graph = build_tiny_cnn(batch=32, image=32)
        self.scope = MemscopeObserver()
        self.timeline_obs = MemoryTimelineObserver()
        self.result = run_policy(
            self.graph, "vdnn_all", BIG_GPU,
            observers=(self.scope, self.timeline_obs),
        )
        assert self.result.feasible

    def test_occupancy_equals_memory_timeline_at_every_event(self):
        assert self.scope.occupancy == self.timeline_obs.points

    def test_peak_occupancy_equals_ledger_peak(self):
        timeline = self.scope.timeline()
        assert timeline.peak_occupancy == self.result.trace.peak_memory

    def test_chrome_counter_track_carries_ledger_values(self):
        events = self.scope.timeline().to_chrome_events()
        counter = [
            e for e in events
            if e["ph"] == "C" and e["name"] == "device memory (ledger)"
        ]
        assert [
            (e["ts"], e["args"]["value"]) for e in counter
        ] == [(t * 1e6, used) for t, used in self.scope.occupancy]

    def test_every_alloc_has_an_address_range(self):
        timeline = self.scope.timeline()
        assert not self.scope.placement_failures
        for record in timeline.records:
            assert 0 <= record.offset
            assert record.offset + record.size <= timeline.capacity

    def test_instruction_attribution(self):
        """Records name the instruction that requested them."""
        instrs = {
            r.instr for r in self.scope.timeline().records
            if r.label != PERSISTENT_LABEL
        }
        assert instrs and all(instrs)


class TestByteIdentity:
    """Memscope watches; it never steers the execution."""

    def test_trace_identical_with_and_without_observer(self):
        graph = build_tiny_cnn(batch=32, image=32)
        bare = run_policy(graph, "vdnn_all", BIG_GPU)
        scoped = run_policy(
            graph, "vdnn_all", BIG_GPU, observers=(MemscopeObserver(),),
        )
        assert trace_bytes(bare.trace) == trace_bytes(scoped.trace)

    def test_plan_identical_with_and_without_observer(self):
        from repro.pipeline.cache import fingerprint

        graph = build_tiny_cnn(batch=32, image=32)
        bare = compile_run(graph, "tsplit", BIG_GPU)
        scoped = compile_run(
            graph, "tsplit", BIG_GPU, observers=(MemscopeObserver(),),
        )
        assert fingerprint(bare.lowered.program) == \
            fingerprint(scoped.lowered.program)


class TestTimeline:
    def setup_method(self):
        graph = build_tiny_cnn(batch=16, image=32)
        self.scope = MemscopeObserver()
        self.result = run_policy(
            graph, "vdnn_all", BIG_GPU, observers=(self.scope,),
        )
        assert self.result.feasible
        self.timeline = self.scope.timeline()

    def test_heatmap_shape_and_bounds(self):
        grid = self.timeline.heatmap(time_bins=16, addr_bins=8)
        assert len(grid["cells"]) == 8
        assert all(len(row) == 16 for row in grid["cells"])
        assert all(
            0.0 <= cell <= 1.0 for row in grid["cells"] for cell in row
        )
        # The persistent region keeps the bottom band occupied all run.
        assert min(grid["cells"][0]) > 0.0

    def test_from_trace_rebuilds_the_same_rectangles(self):
        rebuilt = AddressSpaceTimeline.from_trace(
            self.result.trace, BIG_GPU.memory_bytes,
        )
        live = [
            (r.label, r.offset, r.size, r.birth, r.death)
            for r in self.timeline.records
        ]
        offline = [
            (r.label, r.offset, r.size, r.birth, r.death)
            for r in rebuilt.records
        ]
        assert live == offline

    def test_from_trace_matches_observer_after_placement_failure(self):
        # x's 512 B allocation fails to place; its free must release
        # nothing, so x@0 stays and z lands in the hole at 768 on both
        # the live and the offline path.
        events = [
            (0.0, "x", 256), (1.0, "y", 512), (2.0, "x", 512),
            (3.0, "x", -512), (4.0, "z", 256),
        ]
        trace = dataclasses.replace(
            self.result.trace, persistent_bytes=0, alloc_events=events,
        )
        scope = MemscopeObserver(capacity=1024)
        used = 0
        for time, label, nbytes in events:
            used += nbytes
            notify = scope.on_alloc if nbytes > 0 else scope.on_free
            notify(time, label, abs(nbytes), used)
        assert len(scope.placement_failures) == 1
        rectangles = [
            (r.label, r.offset, r.death) for r in scope.recorder.records
        ]
        assert rectangles == [("x", 0, None), ("y", 256, None),
                              ("z", 768, None)]
        rebuilt = AddressSpaceTimeline.from_trace(trace, 1024)
        assert [
            (r.label, r.offset, r.death) for r in rebuilt.records
        ] == rectangles

    def test_digest_is_deterministic(self):
        assert self.timeline.digest() == self.scope.timeline().digest()

    def test_merged_trace_has_both_sources(self):
        from repro.telemetry.chrome import merge_traces

        merged = merge_traces(
            self.timeline.to_chrome_events(),
            names=["memscope address space"],
        )
        names = {
            e["args"]["name"] for e in merged["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert "memscope address space" in names


class TestResidency:
    def test_swap_counts_and_pcie_bytes(self):
        graph = build_tiny_cnn(batch=32, image=32)
        scope = MemscopeObserver()
        result = run_policy(graph, "vdnn_all", BIG_GPU, observers=(scope,))
        assert result.feasible
        rows = {row.label: row for row in scope.residency()}
        assert PERSISTENT_LABEL in rows
        swapped = [r for r in rows.values() if r.evictions > 0]
        assert swapped, "vdnn_all must swap activations"
        for row in swapped:
            assert row.pcie_bytes > 0
        # Not every evicted tensor comes back (some die on the host),
        # but backward needs most activations re-materialised.
        assert any(row.prefetches >= 1 for row in swapped)

    def test_stall_attribution_sums_to_total_stall(self):
        graph = build_tiny_cnn(batch=32, image=32)
        scope = MemscopeObserver()
        trace = None
        # Shrink until swaps stall: capacity a little over the vdnn peak.
        clean = run_policy(graph, "vdnn_all", BIG_GPU)
        for frac in (0.9, 0.8, 0.7):
            gpu = shrunk(BIG_GPU, clean.trace.peak_memory * frac)
            scope = MemscopeObserver()
            result = run_policy(graph, "vdnn_all", gpu, observers=(scope,))
            if result.feasible and result.trace.memory_stall > 0:
                trace = result.trace
                break
        if trace is None:  # pragma: no cover - model-dependent guard
            import pytest

            pytest.skip("could not provoke a memory stall")
        total = sum(scope.stall_by_label.values())
        assert abs(total - scope.stall_time) < 1e-9
        assert abs(scope.stall_time - trace.memory_stall) < 1e-9

    def test_residency_time_bounded_by_run(self):
        rows = tensor_residency(
            [], 1.0,
        )
        assert rows == []


class TestPostmortem:
    """Pool-level OOM forensics with constructed address spaces."""

    def _fragmented_pool(self):
        """5x 2MB allocs fill 10MB; freeing slots 0 and 2 leaves two
        2MB holes fenced by live neighbours."""
        pool = recorded_pool(10 * MB)
        handles = [
            pool.alloc(2 * MB, label=name)
            for name in ("a", "b", "c", "d", "e")
        ]
        pool.free(handles[0])
        pool.free(handles[2])
        return pool, handles

    def test_fragmentation_classified_and_blamed(self):
        pool, _ = self._fragmented_pool()
        post = analyze_failed_alloc(
            pool, 3 * MB, label="victim", recorder=pool.recorder,
        )
        assert post.classification == "fragmentation"
        assert post.free_bytes == 4 * MB
        assert post.largest_free_block == 2 * MB
        # Both holes are fenced by b and d (and the end hole doesn't
        # exist; e runs to capacity).
        assert "b" in post.blockers and "d" in post.blockers

    def test_capacity_classified_when_free_is_short(self):
        pool, _ = self._fragmented_pool()
        post = analyze_failed_alloc(pool, 5 * MB, label="victim")
        assert post.classification == "capacity"

    def test_over_capacity_request_has_no_eviction_set(self):
        pool, _ = self._fragmented_pool()
        post = analyze_failed_alloc(pool, 20 * MB, label="victim")
        assert post.classification == "capacity"
        assert post.eviction_set == ()

    def test_minimal_eviction_set_admits_the_request(self):
        pool, _ = self._fragmented_pool()
        victims = minimal_eviction_set(
            pool, 3 * MB, recorder=pool.recorder,
        )
        # One eviction suffices: freeing b merges [0,6MB).
        assert len(victims) == 1
        assert victims[0].label == "b"
        assert eviction_admits(pool, victims, 3 * MB)
        # Replay it for real: free the set, and the alloc succeeds.
        for victim in victims:
            pool.free(victim.handle)
        assert pool.alloc(3 * MB, label="victim") >= 0

    def test_protected_labels_are_never_evicted(self):
        pool = recorded_pool(12 * MB)
        pool.alloc(6 * MB, label=PERSISTENT_LABEL)
        x = pool.alloc(2 * MB, label="x")
        pool.alloc(2 * MB, label="y")
        z = pool.alloc(2 * MB, label="z")
        pool.free(x)
        pool.free(z)
        post = analyze_failed_alloc(
            pool, 4 * MB, label="victim", recorder=pool.recorder,
        )
        assert post.classification == "fragmentation"
        assert [c.label for c in post.eviction_set] == ["y"]

    def test_eviction_set_deterministic(self):
        pool, _ = self._fragmented_pool()
        a = minimal_eviction_set(pool, 3 * MB, recorder=pool.recorder)
        b = minimal_eviction_set(pool, 3 * MB, recorder=pool.recorder)
        assert a == b

    def test_alignment_rounds_requests_up(self):
        pool = recorded_pool(10 * ALIGNMENT)
        pool.alloc(ALIGNMENT * 9 + 1, label="big")  # rounds to 10 blocks
        post = analyze_failed_alloc(pool, 1, label="one-byte")
        assert post.aligned == ALIGNMENT
        assert post.classification == "capacity"


class TestEngineOOM:
    """Postmortems for engine-terminal (ledger) OOMs."""

    def setup_method(self):
        self.graph = build_tiny_cnn(batch=32, image=32)
        clean = run_policy(self.graph, "base", BIG_GPU)
        assert clean.feasible
        self.peak = clean.trace.peak_memory
        self.persistent = clean.trace.persistent_bytes

    def test_capacity_oom_is_classified_capacity(self):
        gpu = shrunk(BIG_GPU, (self.peak + self.persistent) // 2)
        scope = MemscopeObserver()
        result = run_policy(self.graph, "base", gpu, observers=(scope,))
        assert not result.feasible
        assert scope.postmortem is not None
        assert scope.placement_failures == []
        assert scope.postmortem.classification == "capacity"
        assert scope.postmortem.requested > 0

    def test_fault_induced_oom_with_eviction_disabled(self):
        gpu = shrunk(BIG_GPU, int(self.peak * 0.9))
        scope = MemscopeObserver()
        run = compile_run(
            self.graph, "base", gpu,
            faults=FaultConfig(seed=0, emergency_eviction=False),
            observers=(scope,),
        )
        assert not run.result.feasible
        assert scope.postmortem is not None
        assert scope.postmortem.classification in (
            "capacity", "fragmentation",
        )
        # The report survives the failed run and carries the forensics.
        report = scope.report(feasible=False, failure=run.result.failure)
        assert report.postmortem is scope.postmortem
        assert "OOM postmortem" in report.to_markdown()

    def test_infeasible_run_report_through_driver(self):
        run = run_memscope(
            self.graph, "base", shrunk(BIG_GPU, int(self.peak * 0.9)),
            batch=32,
        )
        assert not run.report.feasible
        assert run.report.postmortem is not None


class TestMidRunAttachDetach:
    """Attaching/detaching memscope mid-run neither perturbs the run
    nor breaks the observer."""

    def _compiled_program(self):
        run = compile_run(self.graph, "base", BIG_GPU)
        assert run.result.feasible
        return run.lowered.program.program

    def setup_method(self):
        self.graph = build_tiny_cnn(batch=8, image=16)
        self.program = self._compiled_program()

    def test_windowed_observation_is_nonperturbing(self):
        engine = Engine(BIG_GPU, EngineOptions(record_trace=True))
        _, bare = engine.execute_iterations(self.program, 3)

        scope = MemscopeObserver(capacity=BIG_GPU.memory_bytes)
        hooks: list[int] = []

        def boundary(index, run):
            hooks.append(index)
            if index == 0:
                run.attach_observer(scope)
            elif index == 1:
                run.detach_observer(scope)
            return None

        engine = Engine(BIG_GPU, EngineOptions(record_trace=True))
        _, windowed = engine.execute_iterations(
            self.program, 3, boundary_hook=boundary,
        )
        assert hooks == [0, 1]
        assert trace_bytes(bare) == trace_bytes(windowed)
        # The observer saw exactly the middle iteration's events.
        assert scope.occupancy
        times = [t for t, _ in scope.occupancy]
        assert min(times) > 0.0
        assert max(times) <= windowed.iteration_time
        # And its products still render.
        assert scope.timeline().digest()
        assert scope.report().to_markdown()

    def test_mid_run_attach_sizes_a_lazy_pool(self):
        scope = MemscopeObserver()  # no capacity override

        def boundary(index, run):
            if index == 0:
                run.attach_observer(scope)
            return None

        engine = Engine(BIG_GPU, EngineOptions(record_trace=True))
        engine.execute_iterations(self.program, 2, boundary_hook=boundary)
        assert scope.pool is not None
        assert scope.capacity > 0


class TestBackendDeterminism:
    """Identical digests across serial, thread, and process backends."""

    def test_digests_agree_across_backends(self):
        # Two points, so the thread and process pools really run; the
        # second OOMs, so a postmortem crosses the process boundary too.
        points = [
            functools.partial(
                memscope_point, "vgg16", "base", BIG_GPU, 4,
                param_scale=0.25, capacity_frac=frac,
            )
            for frac in (1.0, 0.1)
        ]
        references = [point() for point in points]
        reference = references[0]
        assert reference["timeline_digest"]
        assert reference["report_digest"]
        oom = references[1]
        assert not oom["feasible"]
        assert oom["classification"]
        for backend in ("serial", "thread", "process"):
            results = sweep(points, parallel=2, backend=backend)
            for got, want in zip(results, references):
                assert got["timeline_digest"] == \
                    want["timeline_digest"], backend
                assert got["report_digest"] == \
                    want["report_digest"], backend


class TestClusterMemscope:
    def test_per_rank_timelines(self):
        cluster = ClusterSpec.homogeneous(BIG_GPU, 2)
        runs, trace = run_memscope_cluster(
            "vgg16", 8, "base", cluster, param_scale=0.25,
        )
        assert len(runs) == 2
        for rank, run in enumerate(runs):
            assert f"rank{rank}" in run.report.name
            assert run.report.peak_memory == trace.ranks[rank].peak_memory
            assert run.report.timeline.records
        assert "rank 0" in trace.describe()
        assert "rank 1" in trace.describe()


class TestReportIntegration:
    def test_explain_embeds_memscope_sections(self):
        graph = build_tiny_cnn(batch=32, image=32)
        from repro import telemetry
        from repro.analysis.report import explain_json, explain_markdown

        scope = MemscopeObserver()
        with telemetry.session():
            run = compile_run(graph, "tsplit", BIG_GPU, observers=(scope,))
        assert run.result.feasible
        explanation = run.plan.plan.explanation
        assert explanation is not None
        report = scope.report(policy="tsplit")
        payload = explain_json(
            explanation, graph=graph, plan=run.plan.plan,
            trace=run.result.trace, memscope=report,
        )
        assert payload["memscope"]["peak_memory"] == report.peak_memory
        text = explain_markdown(
            explanation, graph=graph, plan=run.plan.plan,
            trace=run.result.trace, memscope=report,
        )
        assert "## Memscope:" in text
        assert "### Tensor residency" in text

    def test_report_json_roundtrips(self):
        graph = build_tiny_cnn(batch=8, image=16)
        run = run_memscope(graph, "base", BIG_GPU, batch=8)
        payload = run.report.to_json(full_timeline=True)
        encoded = json.dumps(payload, sort_keys=True)
        assert json.loads(encoded)["timeline"]["records"]


class TestCLI:
    def test_memscope_markdown_and_artifacts(self, capsys, tmp_path):
        from repro.__main__ import main

        trace_path = tmp_path / "ms.json"
        heatmap_path = tmp_path / "hm.json"
        main([
            "memscope", "vgg16", "--policy", "base", "--batch", "2",
            "--trace", str(trace_path), "--heatmap", str(heatmap_path),
        ])
        out = capsys.readouterr().out
        assert "# Memscope:" in out
        assert "Tensor residency" in out
        merged = json.loads(trace_path.read_text())
        names = {
            e["name"] for e in merged["traceEvents"] if e.get("ph") == "C"
        }
        assert "device memory (ledger)" in names
        grid = json.loads(heatmap_path.read_text())
        assert grid["cells"]

    def test_memscope_json_postmortem_on_oom(self, capsys):
        from repro.__main__ import main

        main([
            "memscope", "vgg16", "--policy", "base", "--batch", "64",
            "--capacity-frac", "0.2", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["postmortem"]["classification"] in (
            "capacity", "fragmentation",
        )

    def test_memscope_cluster(self, capsys):
        from repro.__main__ import main

        main([
            "memscope", "vgg16", "--policy", "base", "--batch", "4",
            "--world", "2", "--param-scale", "0.25",
        ])
        out = capsys.readouterr().out
        assert "rank0" in out and "rank1" in out

    def test_explain_memscope_flag(self, capsys):
        from repro.__main__ import main

        main([
            "explain", "vgg16", "--batch", "2", "--gpu", "gtx_1080ti",
            "--policy", "base", "--memscope",
        ])
        out = capsys.readouterr().out
        assert "# Memscope:" in out
        assert "Tensor residency" in out

"""The dynamic-replanning feedback loop: acting on pressure signals.

Covers the acting half of the DELTA-style loop built on top of the
:mod:`repro.runtime.pressure` monitor:

* ``ReplanConfig.coerce`` semantics and program digests;
* ``swap_program`` validation (persistent region / batch pinned);
* the never-loses machinery: clean runs byte-identical to static,
  degraded runs that win, the scratch pre-screen rejecting marginal
  plans, and the last-boundary guard;
* cross-backend determinism of replanned instruction streams;
* the cluster plumbing (rank-local hooks, single-rank parity).
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.errors import RuntimeExecutionError
from repro.faults.model import FaultConfig
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GPU_PRESETS, GPUSpec
from repro.pipeline.cache import CompileCache
from repro.pipeline.compile import compile_run
from repro.pipeline.replan import (
    BASE_CONDITION,
    ClusterReplanController,
    ReplanConfig,
    program_digest,
)
from repro.runtime.cluster_engine import ClusterEngine
from repro.runtime.engine import Engine
from repro.runtime.pressure import PressureMonitor
from repro.units import MB, TFLOPS
from tests.conftest import build_tiny_cnn

#: Slow-ish compute and a capacity squeeze expose the swap traffic, so
#: a 60%-degraded link leaves real time on the table for a replan to
#: recover (validated: dynamic beats static by ~2% here).
WIN_GPU = GPUSpec(
    name="replan-win-gpu",
    memory_bytes=28 * MB,
    peak_flops=0.2 * TFLOPS,
    mem_bandwidth=100e9,
    pcie_bandwidth=12e9,
)

#: Faster compute hides the degraded transfers again: the replanned
#: plan is predicted no better, so the pre-screen rejects the swap.
NOGAIN_GPU = GPUSpec(
    name="replan-nogain-gpu",
    memory_bytes=56 * MB,
    peak_flops=0.5 * TFLOPS,
    mem_bandwidth=100e9,
    pcie_bandwidth=12e9,
)

#: Deterministic persistent degradation (no jitter): the monitor sees
#: exactly 40% of nominal bandwidth every window.
DEGRADED = FaultConfig(seed=3, pcie_degradation=0.6)


def win_graph():
    return build_tiny_cnn(32, image=64)


def nogain_graph():
    return build_tiny_cnn(32, image=96)


def run_pair(graph_builder, gpu, *, iterations, faults=None, replan=True):
    """The same configuration compiled statically and with the loop."""
    cache = CompileCache()
    static = compile_run(
        graph_builder(), "tsplit", gpu, cache=cache,
        iterations=iterations, faults=faults,
    )
    dynamic = compile_run(
        graph_builder(), "tsplit", gpu, cache=cache,
        iterations=iterations, faults=faults, replan=replan,
    )
    assert static.result.feasible, static.result.failure
    assert dynamic.result.feasible, dynamic.result.failure
    return static, dynamic


class TestReplanConfig:
    def test_coerce_none_and_false_disable(self):
        assert ReplanConfig.coerce(None) is None
        assert ReplanConfig.coerce(False) is None

    def test_coerce_true_yields_defaults(self):
        config = ReplanConfig.coerce(True)
        assert isinstance(config, ReplanConfig)
        assert config.enabled and config.max_replans == 8

    def test_coerce_passes_instances_through(self):
        config = ReplanConfig(max_replans=2)
        assert ReplanConfig.coerce(config) is config

    def test_coerce_disabled_instance_is_none(self):
        assert ReplanConfig.coerce(ReplanConfig(enabled=False)) is None


class TestProgramDigest:
    def test_digest_is_stable_and_discriminating(self):
        cache = CompileCache()
        a = compile_run(win_graph(), "tsplit", WIN_GPU, cache=cache)
        b = compile_run(win_graph(), "tsplit", WIN_GPU, cache=cache)
        other = compile_run(win_graph(), "vdnn_all", WIN_GPU, cache=cache)
        digest = program_digest(a.lowered.program.program)
        assert digest == program_digest(b.lowered.program.program)
        assert digest != program_digest(other.lowered.program.program)


class TestSwapProgramValidation:
    def lowered(self, graph, gpu=WIN_GPU):
        run = compile_run(graph, "tsplit", gpu, cache=CompileCache())
        assert run.result.feasible, run.result.failure
        return run.lowered.program.program

    def swap_at_first_boundary(self, base, replacement):
        def hook(index, run):
            run.swap_program(replacement)
            return None

        Engine(WIN_GPU).execute_iterations(base, 2, boundary_hook=hook)

    def test_batch_change_rejected(self):
        base = self.lowered(win_graph())
        other = dataclasses.replace(base, batch=base.batch * 2)
        with pytest.raises(RuntimeExecutionError, match="batch"):
            self.swap_at_first_boundary(base, other)

    def test_persistent_region_change_rejected(self):
        base = self.lowered(win_graph())
        other = dataclasses.replace(
            base, persistent_bytes=base.persistent_bytes + 1024,
        )
        with pytest.raises(RuntimeExecutionError, match="persistent"):
            self.swap_at_first_boundary(base, other)

    def test_swapping_identical_program_is_allowed(self):
        base = self.lowered(win_graph())
        durations, trace = Engine(WIN_GPU).execute_iterations(
            base, 3,
            boundary_hook=lambda index, run: (
                run.swap_program(base) if index == 0 else None
            ),
        )
        plain, _ = Engine(WIN_GPU).execute_iterations(base, 3)
        assert trace.plan_swaps == 1
        assert durations == plain


class TestCleanByteIdentity:
    """Faults off ⇒ the loop is attached but provably inert."""

    def test_dynamic_equals_static_without_pressure(self):
        static, dynamic = run_pair(win_graph, WIN_GPU, iterations=4)
        assert dynamic.executed.durations == static.executed.durations
        assert dynamic.result.trace.records == static.result.trace.records
        assert dynamic.result.trace.plan_swaps == 0

    def test_clean_replan_report_is_empty(self):
        _, dynamic = run_pair(win_graph, WIN_GPU, iterations=4)
        report = dynamic.replan
        assert report is not None and report.enabled
        assert report.replans == 0 and report.reverts == 0
        assert report.records == [] and not report.triggered
        assert len(report.segments) == 1
        assert report.events == []

    def test_static_run_carries_no_report(self):
        static, _ = run_pair(win_graph, WIN_GPU, iterations=4)
        assert static.replan is None


class TestDegradedReplanWins:
    def test_dynamic_beats_static_under_degraded_link(self):
        static, dynamic = run_pair(
            win_graph, WIN_GPU, iterations=5, faults=DEGRADED,
        )
        static_time = sum(static.executed.durations)
        dynamic_time = sum(dynamic.executed.durations)
        assert dynamic_time < static_time
        report = dynamic.replan
        assert report.replans >= 1 and report.reverts == 0
        assert "swap" in {record.action for record in report.records}
        assert len(report.segments) >= 2
        assert dynamic.result.trace.plan_swaps >= 1

    def test_swap_condition_reflects_observed_bandwidth(self):
        _, dynamic = run_pair(
            win_graph, WIN_GPU, iterations=5, faults=DEGRADED,
        )
        swaps = [
            record for record in dynamic.replan.records
            if record.action == "swap"
        ]
        # 60% degradation quantised on the 0.05 grid: exactly 0.4, not
        # the 0.35 float dust would give.
        assert swaps[0].condition == (0.4, 0.0)

    def test_trace_describe_mentions_replans(self):
        _, dynamic = run_pair(
            win_graph, WIN_GPU, iterations=5, faults=DEGRADED,
        )
        assert "replans" in dynamic.result.trace.describe()

    def test_report_to_dict_round_trips(self):
        _, dynamic = run_pair(
            win_graph, WIN_GPU, iterations=5, faults=DEGRADED,
        )
        payload = dynamic.replan.to_dict()
        assert payload["replans"] == dynamic.replan.replans
        assert payload["stream_digest"] == dynamic.replan.stream_digest()
        assert len(payload["segments"]) == len(dynamic.replan.segments)
        assert payload["records"][0]["action"] in {
            "swap", "no_change", "no_gain", "infeasible", "incompatible",
        }
        assert payload["pressure_events"]

    def test_replanning_is_deterministic_across_runs(self):
        _, first = run_pair(
            win_graph, WIN_GPU, iterations=5, faults=DEGRADED,
        )
        _, second = run_pair(
            win_graph, WIN_GPU, iterations=5, faults=DEGRADED,
        )
        assert first.replan.stream_digest() == second.replan.stream_digest()
        assert first.executed.durations == second.executed.durations


class TestPrescreenGuard:
    """The scratch simulation rejects swaps the cost model oversells."""

    def test_no_gain_keeps_dynamic_equal_to_static(self):
        static, dynamic = run_pair(
            nogain_graph, NOGAIN_GPU, iterations=5, faults=DEGRADED,
        )
        assert dynamic.executed.durations == static.executed.durations
        report = dynamic.replan
        actions = [record.action for record in report.records]
        assert "no_gain" in actions and "swap" not in actions
        assert report.replans == 0 and report.reverts == 0
        assert dynamic.result.trace.plan_swaps == 0

    def test_no_gain_records_the_prediction(self):
        _, dynamic = run_pair(
            nogain_graph, NOGAIN_GPU, iterations=5, faults=DEGRADED,
        )
        record = next(
            r for r in dynamic.replan.records if r.action == "no_gain"
        )
        assert "pre-screen" in record.detail
        assert record.condition != BASE_CONDITION

    def test_rejected_condition_is_not_retried(self):
        _, dynamic = run_pair(
            nogain_graph, NOGAIN_GPU, iterations=6, faults=DEGRADED,
        )
        no_gains = [
            r for r in dynamic.replan.records if r.action == "no_gain"
        ]
        # Pressure persists every window, but the blacklisted condition
        # is decided exactly once.
        assert len(no_gains) == 1


class TestLastBoundaryGuard:
    """No swap whose measured trial could not be reverted."""

    def test_two_iterations_never_swap(self):
        static, dynamic = run_pair(
            win_graph, WIN_GPU, iterations=2, faults=DEGRADED,
        )
        assert dynamic.replan.replans == 0
        assert dynamic.replan.records == []
        assert dynamic.executed.durations == static.executed.durations

    def test_three_iterations_can_swap(self):
        _, dynamic = run_pair(
            win_graph, WIN_GPU, iterations=3, faults=DEGRADED,
        )
        assert dynamic.replan.replans == 1


class TestBackendDeterminism:
    """The same points replanned on any backend are byte-identical."""

    def points(self):
        from repro.faults.chaos import replan_point
        from repro.models.registry import build_model

        gpu = GPU_PRESETS["gtx_1080ti"]
        gpu = gpu.with_memory(int(gpu.memory_bytes * 0.5))
        graph = build_model("resnet152", 64)
        return [
            functools.partial(
                replan_point, graph, "tsplit", gpu, intensity, 0,
                fault_class="degraded_pcie", iterations=4,
            )
            for intensity in (0.0, 1.0)
        ]

    def test_serial_thread_process_agree(self, tmp_path):
        from repro.analysis.parallel import sweep

        points = self.points()
        results = {
            backend: sweep(
                points, 2, backend=backend, cache_dir=str(tmp_path),
            )
            for backend in ("serial", "thread", "process")
        }
        assert results["serial"] == results["thread"]
        assert results["serial"] == results["process"]
        degraded = results["serial"][1]
        assert degraded.replans >= 1
        assert degraded.dynamic_time < degraded.static_time
        assert degraded.stream_digest


class _StubController:
    """Boundary-hook plumbing double for cluster tests."""

    def __init__(self, program=None):
        self.monitor = PressureMonitor()
        self.program = program
        self.calls = []

    def boundary_hook(self, index, run):
        self.calls.append(index)
        return self.program

    def finalize(self):
        return f"report@{len(self.calls)}"


class TestClusterReplanController:
    def test_rank_bounds_validated(self):
        with pytest.raises(ValueError, match="rank"):
            ClusterReplanController(2, {2: _StubController()})

    def test_every_rank_gets_a_monitor(self):
        controller = _StubController()
        cluster = ClusterReplanController(3, {1: controller})
        assert len(cluster.monitors) == 3
        assert cluster.monitors[1] is controller.monitor
        assert all(
            isinstance(monitor, PressureMonitor)
            for monitor in cluster.monitors
        )
        assert cluster.observers == [[m] for m in cluster.monitors]

    def test_boundary_hook_collects_rank_local_swaps(self):
        swapping = _StubController(program="program-1")
        quiet = _StubController(program=None)
        cluster = ClusterReplanController(2, {0: swapping, 1: quiet})
        swaps = cluster.boundary_hook(0, ["run-0", "run-1"])
        assert swaps == {0: "program-1"}
        assert swapping.calls == [0] and quiet.calls == [0]

    def test_finalize_reports_per_controlled_rank(self):
        cluster = ClusterReplanController(2, {1: _StubController()})
        cluster.boundary_hook(0, ["run-0", "run-1"])
        assert cluster.finalize() == {1: "report@1"}


class TestClusterSingleRankParity:
    def test_cluster_iterations_match_single_engine(self):
        run = compile_run(win_graph(), "tsplit", WIN_GPU, cache=CompileCache())
        program = run.lowered.program.program
        single_durations, single_trace = Engine(WIN_GPU).execute_iterations(
            program, 3,
        )
        cluster = ClusterSpec.homogeneous(WIN_GPU, 1)
        cluster_durations, cluster_trace = ClusterEngine(
            cluster,
        ).execute_iterations([program], 3)
        assert cluster_durations == [single_durations]
        assert cluster_trace.ranks[0].records == single_trace.records
        assert cluster_trace.makespan == sum(single_durations)
        rank0 = cluster_trace.ranks[0]
        for field in dataclasses.fields(type(single_trace)):
            assert getattr(rank0, field.name) == getattr(
                single_trace, field.name,
            ), f"field {field.name} diverged"

    def test_cluster_boundary_swap_is_rank_local_noop_for_identity(self):
        run = compile_run(win_graph(), "tsplit", WIN_GPU, cache=CompileCache())
        program = run.lowered.program.program
        cluster = ClusterSpec.homogeneous(WIN_GPU, 1)
        monitor = PressureMonitor()
        durations, trace = ClusterEngine(cluster).execute_iterations(
            [program], 3, observers=[[monitor]],
            boundary_hook=lambda index, runs: {},
        )
        plain, _ = ClusterEngine(cluster).execute_iterations([program], 3)
        assert durations == plain
        assert len(monitor.history) == 3

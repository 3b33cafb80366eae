"""Cluster engine: N=1 byte-identity, rendezvous, wedging, DP runs."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import compile_cluster
from repro.core.profiler import Profiler
from repro.errors import RuntimeExecutionError
from repro.hardware.cluster import ClusterSpec, all_reduce_time
from repro.hardware.gpu import GPU_PRESETS, GPUSpec
from repro.pipeline.stages import (
    LowerStage,
    PlanStage,
    ProfileStage,
    default_augment_options,
    resolve_policy,
)
from repro.runtime.cluster_engine import ClusterEngine
from repro.runtime.engine import Engine
from repro.runtime.instructions import (
    CollectiveInstr,
    ComputeInstr,
    Program,
    TensorRef,
)
from repro.runtime.observers import TraceObserver
from repro.units import MB, TFLOPS

from tests.conftest import build_tiny_cnn

#: Sized so ``build_tiny_cnn(64, channels=16, image=32)`` OOMs under the
#: base policy but fits once TSPLIT splits and swaps — the single-rank
#: identity check below then covers real planner output, not a no-op plan.
NANO_GPU = GPUSpec(
    name="nano-24mb",
    memory_bytes=24 * MB,
    peak_flops=1.0 * TFLOPS,
    mem_bandwidth=100e9,
    pcie_bandwidth=4e9,
)

V100 = GPU_PRESETS["v100_16gb"]


def _single_gpu_program(graph, gpu, policy_name="tsplit"):
    """The seed pipeline's Profile → Plan → Lower, no cluster involved."""
    policy = resolve_policy(policy_name)
    profile = ProfileStage(Profiler(gpu)).run(graph, gpu)
    plan_art = PlanStage(policy).run(graph, gpu, profile)
    assert plan_art.plan is not None, plan_art.error
    options = default_augment_options(policy, None)
    return LowerStage(options).run(graph, plan_art.plan, profile).program.program


def _mini_rank(
    rank: int,
    world: int,
    produce_s: float,
    *,
    nbytes: int = 1 << 20,
    comm_id: int = 0,
    kind: str = "all_reduce",
) -> Program:
    """produce → collective → consume, the smallest rendezvous program."""
    grad = TensorRef(tensor_id=1, nbytes=nbytes, label="grad")
    program = Program(name=f"mini-r{rank}", batch=1)
    program.append(ComputeInstr("produce", produce_s, outputs=(grad,)))
    program.append(CollectiveInstr(
        kind, comm_id, tuple(range(world)), nbytes,
        label=f"{kind}#{comm_id}", inputs=(grad,),
    ))
    program.append(ComputeInstr("consume", 1e-3, inputs=(grad,)))
    return program


class TestSingleRankIdentity:
    def test_trace_is_byte_identical_to_the_seed_engine(self):
        graph = build_tiny_cnn(64, channels=16, image=32)
        cluster = ClusterSpec.homogeneous(NANO_GPU, 1)
        compiled = compile_cluster(graph, 64, "tsplit", cluster, mode="dp")
        assert compiled.feasible, compiled.failure
        cluster_trace = compiled.execute()

        reference = Engine(NANO_GPU).execute(
            _single_gpu_program(graph, NANO_GPU),
        )
        assert reference.split_kernels > 0
        assert reference.swapped_out_bytes > 0

        rank0 = cluster_trace.ranks[0]
        for field in dataclasses.fields(type(reference)):
            assert getattr(rank0, field.name) == getattr(
                reference, field.name,
            ), f"field {field.name} diverged"
        assert cluster_trace.makespan == reference.iteration_time
        assert cluster_trace.comm_busy == [0.0]
        assert cluster_trace.collective_bytes == [0]

    def test_single_rank_zero_shard_also_degenerates(self):
        graph = build_tiny_cnn(16)
        cluster = ClusterSpec.homogeneous(NANO_GPU, 1)
        compiled = compile_cluster(
            graph, 16, "tsplit", cluster, mode="zero_shard",
        )
        assert compiled.feasible, compiled.failure
        trace = compiled.execute()
        assert trace.collective_bytes == [0]


class TestRendezvous:
    def test_collective_waits_for_the_slowest_rank(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        observers = [[TraceObserver()], [TraceObserver()]]
        slow = 5e-3
        trace = ClusterEngine(cluster).execute(
            [_mini_rank(0, 2, 1e-3), _mini_rank(1, 2, slow)],
            observers=observers,
        )
        expected = all_reduce_time(cluster.intra_link, 1 << 20, 2)
        for rank_observers in observers:
            comm = [
                record for record in rank_observers[0].records
                if record.stream == "comm"
            ]
            assert len(comm) == 1
            assert comm[0].start == pytest.approx(slow)
            assert comm[0].duration == pytest.approx(expected)
        assert trace.comm_busy == pytest.approx([expected, expected])
        assert trace.collective_bytes == [1 << 20, 1 << 20]
        assert trace.makespan == pytest.approx(slow + expected + 1e-3)

    def test_consumer_waits_for_the_reduction(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        observers = [[TraceObserver()], [TraceObserver()]]
        ClusterEngine(cluster).execute(
            [_mini_rank(0, 2, 1e-3), _mini_rank(1, 2, 1e-3)],
            observers=observers,
        )
        records = observers[0][0].records
        comm_end = next(
            record.end for record in records if record.stream == "comm"
        )
        consume = next(
            record for record in records if record.label == "consume"
        )
        assert consume.start >= comm_end

    def test_world_size_program_count_must_match(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        with pytest.raises(RuntimeExecutionError, match="needs 2 programs"):
            ClusterEngine(cluster).execute([_mini_rank(0, 2, 1e-3)])

    @pytest.mark.parametrize("lists", [1, 3])
    def test_world_size_observer_count_must_match(self, lists):
        cluster = ClusterSpec.homogeneous(V100, 2)
        programs = [_mini_rank(0, 2, 1e-3), _mini_rank(1, 2, 1e-3)]
        observers = [[TraceObserver()] for _ in range(lists)]
        with pytest.raises(
            RuntimeExecutionError, match=f"needs 2 observer lists, got {lists}",
        ):
            ClusterEngine(cluster).execute(programs, observers=observers)
        with pytest.raises(RuntimeExecutionError, match="observer lists"):
            ClusterEngine(cluster).execute_iterations(
                programs, 2, observers=observers,
            )


class TestWedging:
    def test_mismatched_comm_ids_wedge_the_dispatcher(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        programs = [
            _mini_rank(0, 2, 1e-3, comm_id=0),
            _mini_rank(1, 2, 1e-3, comm_id=7),
        ]
        # Depending on which side stalls first the engine reports either
        # a per-rank deadlock or a cluster-level wedge; both must raise.
        with pytest.raises(RuntimeExecutionError, match="deadlocked|wedged"):
            ClusterEngine(cluster).execute(programs)

    def test_mismatched_kinds_are_reported(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        programs = [
            _mini_rank(0, 2, 1e-3, kind="all_reduce"),
            _mini_rank(1, 2, 1e-3, kind="all_gather"),
        ]
        with pytest.raises(RuntimeExecutionError, match="inconsistently"):
            ClusterEngine(cluster).execute(programs)

    def test_single_engine_rejects_multi_rank_collectives(self):
        with pytest.raises(RuntimeExecutionError, match="ClusterEngine"):
            Engine(V100).execute(_mini_rank(0, 2, 1e-3))


class TestDataParallel:
    def test_replicas_rendezvous_and_sum_throughput(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        compiled = compile_cluster("bert_large", 8, "base", cluster, mode="dp")
        assert compiled.feasible, compiled.failure
        assert compiled.meta["per_rank_batch"] == 4
        trace = compiled.execute()
        assert trace.world_size == 2
        assert trace.per_rank_peak[0] == trace.per_rank_peak[1]
        assert trace.comm_busy[0] > 0
        assert trace.collective_bytes[0] == trace.collective_bytes[1] > 0
        assert trace.throughput == pytest.approx(8 / trace.makespan)

    def test_indivisible_batch_is_rejected(self):
        cluster = ClusterSpec.homogeneous(V100, 2)
        with pytest.raises(ValueError, match="divisible"):
            compile_cluster("bert_large", 7, "base", cluster, mode="dp")

"""Pipeline-parallel compilation: 1F1B stage programs end to end."""

from __future__ import annotations

import pytest

from repro.cluster import compile_cluster
from repro.core.plan import MemOption
from repro.graph.tensor import TensorKind
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GPU_PRESETS
from repro.models.registry import build_model
from repro.runtime.instructions import CollectiveInstr

V100 = GPU_PRESETS["v100_16gb"]


def _compile_pp(batch=8, world=2, micros=4, policy="base", model="transformer"):
    cluster = ClusterSpec.homogeneous(V100, world)
    return compile_cluster(
        model, batch, policy, cluster, mode="pp", micros=micros,
    )


def test_two_stage_pipeline_runs():
    compiled = _compile_pp()
    assert compiled.feasible, compiled.failure
    assert compiled.meta["micros"] == 4
    trace = compiled.execute()
    assert trace.makespan > 0
    # Stage 0 holds the embedding side of the model: strictly heavier.
    assert trace.per_rank_peak[0] > trace.per_rank_peak[1]
    # Boundary activations and gradients cross in both directions.
    assert trace.collective_bytes[0] == trace.collective_bytes[1] > 0
    # The global batch is charged once, not once per stage.
    assert trace.throughput == pytest.approx(8 / trace.makespan)


def test_send_recv_pairs_are_balanced():
    compiled = _compile_pp()
    sends = []
    recvs = []
    for program in compiled.programs:
        for instr in program.instructions:
            if isinstance(instr, CollectiveInstr):
                (sends if instr.kind == "send" else recvs).append(instr)
    assert len(sends) == len(recvs) > 0
    assert sorted(i.comm_id for i in sends) == sorted(
        i.comm_id for i in recvs
    )
    for instr in sends + recvs:
        assert instr.lane.startswith(("send:", "recv:"))


def test_more_micro_batches_shrink_the_bubble():
    fat = _compile_pp(batch=16, micros=2).execute()
    thin = _compile_pp(batch=16, micros=8).execute()
    assert thin.makespan < fat.makespan


def test_batch_must_divide_into_micros():
    with pytest.raises(ValueError, match="divisible"):
        _compile_pp(batch=6, micros=4)


def test_tsplit_coplans_each_stage():
    from repro.cluster.compiler import _assign_stages, _stage_subgraph
    from repro.core.profiler import Profiler
    from repro.pipeline.stages import ProfileStage

    compiled = _compile_pp(policy="tsplit")
    assert compiled.feasible, compiled.failure
    # Rebuild the per-stage subgraphs the compiler planned against, so
    # plan tensor ids resolve to the right kinds.
    graph = build_model("transformer", 2)  # per-micro batch: 8 / 4
    profile = ProfileStage(Profiler(V100)).run(graph, V100)
    stage_of = _assign_stages(graph, 2, profile)
    kinds = (
        TensorKind.PARAM, TensorKind.OPTIMIZER_STATE, TensorKind.GRAD_PARAM,
    )
    for rank, plan_art in enumerate(compiled.plans):
        plan = plan_art.plan
        assert plan is not None
        assert not plan.cpu_update
        sub, _ = _stage_subgraph(graph, stage_of, rank)
        for tid, config in plan.configs.items():
            if sub.tensors[tid].kind in kinds:
                # Cluster transforms own these lifecycles; the per-rank
                # planner must leave them resident and unsplit.
                assert config.opt is MemOption.RESIDE
                assert not config.is_split
    trace = compiled.execute()
    assert trace.makespan > 0


def test_pipeline_is_deterministic():
    first = _compile_pp().execute()
    second = _compile_pp().execute()
    assert first.makespan == second.makespan
    assert first.per_rank_peak == second.per_rank_peak
    assert first.comm_busy == second.comm_busy


def test_pipeline_runs_back_to_back_iterations():
    # Receive markers are freed after their consumer; a leaked marker
    # made the second iteration's recv re-allocate a resident tensor.
    compiled = _compile_pp(batch=16, policy="tsplit", micros=None)
    assert compiled.feasible, compiled.failure
    durations, trace = compiled.execute_iterations(3)
    assert [len(rank) for rank in durations] == [3, 3]
    assert all(d > 0 for rank in durations for d in rank)
    assert trace.makespan == pytest.approx(max(map(sum, durations)))

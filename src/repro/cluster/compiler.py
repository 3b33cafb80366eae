"""Per-rank cluster compilation: Profile → Plan → Lower, times N ranks.

:func:`compile_cluster` is the multi-rank analogue of
:func:`repro.pipeline.compile.compile_run`. It rewrites one model
configuration into per-rank instruction programs for the
:class:`~repro.runtime.cluster_engine.ClusterEngine`, co-planning
TSPLIT's split/swap/recompute **independently per rank** under each
rank's memory budget — the DELTA observation that swap/recompute
decisions should stay per-device — while reusing the incremental
planner and the :class:`~repro.pipeline.cache.CompileCache` through
rank-aware cache keys (parallelism mode, world size and stage join the
plan-key payload via ``PlanStage(extra=...)``).

Three parallelism modes:

* ``"dp"`` — data parallel: every rank plans and runs a full replica on
  ``batch / N`` samples; gradients are all-reduced
  (:func:`~repro.cluster.transforms.splice_all_reduce`). With N=1 the
  program is byte-identical to the single-GPU pipeline's.
* ``"zero_shard"`` — data parallel plus multi-rank ZeRO sharding of
  parameters and optimizer state
  (:func:`~repro.cluster.transforms.splice_zero_shard`); each rank is
  planned against a capacity-consistent view of its sharded budget.
* ``"pp"`` — pipeline parallel: forward layers are partitioned into N
  contiguous stages balanced by profiled time, each stage's subgraph is
  planned and lowered separately at micro-batch size, and the per-rank
  program replays the stage chunk per micro-batch in 1F1B order with
  point-to-point sends/receives at stage boundaries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cluster.schedule import one_f_one_b_order
from repro.cluster.transforms import (
    _final_refs,
    remap_refs,
    splice_all_reduce,
    splice_zero_shard,
    zero_shard_savings,
)
from repro.core.augment import AugmentOptions
from repro.core.plan import MemOption, Plan
from repro.core.profiler import Profiler
from repro.errors import PlanningError
from repro.graph.graph import Graph
from repro.graph.ops import Phase
from repro.graph.tensor import TensorKind
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GPUSpec
from repro.models.registry import build_model
from repro.pipeline.cache import CompileCache
from repro.pipeline.stages import (
    LowerStage,
    PlanArtifact,
    PlanStage,
    ProfileArtifact,
    ProfileStage,
    default_augment_options,
    resolve_policy,
)
from repro.policies.base import MemoryPolicy
from repro.runtime.cluster_engine import ClusterEngine, ClusterTrace
from repro.runtime.engine import EngineOptions
from repro.runtime.instructions import (
    CollectiveInstr,
    ComputeInstr,
    FreeInstr,
    Instruction,
    Program,
    TensorRef,
)
from repro.runtime.observers import EngineObserver

MODES = ("dp", "zero_shard", "pp")

#: Tensor kinds shared across micro-batches in a pipeline stage program
#: (persistent, untracked) — never remapped per micro.
_SHARED_KINDS = frozenset(
    {TensorKind.PARAM, TensorKind.OPTIMIZER_STATE, TensorKind.INPUT},
)


@dataclass
class ClusterCompiled:
    """Per-rank programs plus the planning artifacts that produced them."""

    cluster: ClusterSpec
    mode: str
    batch: int
    programs: list[Program]
    plans: list[PlanArtifact]
    profiles: list[ProfileArtifact]
    #: Mode-specific numbers (ZeRO savings, pipeline stage spans, ...).
    meta: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return all(plan.feasible for plan in self.plans)

    @property
    def failure(self) -> str:
        """The first rank's planning error, or ``""`` when feasible."""
        for rank, plan in enumerate(self.plans):
            if not plan.feasible:
                return f"rank {rank}: {plan.error}"
        return ""

    def execute(
        self,
        engine_options: EngineOptions | None = None,
        observers: list[list[EngineObserver]] | None = None,
    ) -> ClusterTrace:
        """Run every rank's program under one global event clock."""
        if not self.feasible:
            raise PlanningError(
                f"cannot execute an infeasible cluster compile: {self.failure}"
            )
        engine = ClusterEngine(self.cluster, engine_options)
        return engine.execute(self.programs, observers=observers)

    def execute_iterations(
        self,
        iterations: int,
        engine_options: EngineOptions | None = None,
        observers: list[list[EngineObserver]] | None = None,
        boundary_hook=None,
    ) -> tuple[list[list[float]], ClusterTrace]:
        """Run every rank back to back, with optional rank-local replans.

        Thin passthrough to :meth:`~repro.runtime.cluster_engine.
        ClusterEngine.execute_iterations`; pair with a
        :class:`~repro.pipeline.replan.ClusterReplanController` to
        attach per-rank pressure monitors (``observers``) and rank-local
        replan decisions (``boundary_hook``).
        """
        if not self.feasible:
            raise PlanningError(
                f"cannot execute an infeasible cluster compile: {self.failure}"
            )
        engine = ClusterEngine(self.cluster, engine_options)
        return engine.execute_iterations(
            self.programs, iterations,
            observers=observers, boundary_hook=boundary_hook,
        )


def compile_cluster(
    model: str | Graph,
    batch: int,
    policy: MemoryPolicy | str,
    cluster: ClusterSpec,
    *,
    mode: str = "dp",
    micros: int | None = None,
    cache: CompileCache | None = None,
    param_scale: float = 1.0,
    augment_options: AugmentOptions | None = None,
    overrides: dict | None = None,
) -> ClusterCompiled:
    """Compile one model/policy configuration for an N-rank cluster.

    ``model`` is a registry name (built at the per-rank or per-micro
    batch size as the mode requires) or a pre-built graph only for
    ``world_size == 1``. ``micros`` is the pipeline micro-batch count
    (defaults to ``2 * world_size``); ignored outside ``mode="pp"``.
    Planning failures are carried in the returned artifacts
    (``compiled.feasible``), never raised.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    policy = resolve_policy(policy)
    world = cluster.world_size
    if mode == "pp":
        return _compile_pipeline(
            model, batch, policy, cluster,
            micros=micros, cache=cache, param_scale=param_scale,
            augment_options=augment_options, overrides=overrides,
        )
    if batch % world:
        raise ValueError(
            f"batch {batch} is not divisible by world size {world}"
        )
    graph = _build(model, batch // world, param_scale, overrides)
    extra = {"parallelism": mode, "world": world}
    sanitize = _ZERO_RESIDE_KINDS if mode == "zero_shard" else None
    savings, max_gather = (
        zero_shard_savings(graph, world) if mode == "zero_shard" else (0, 0)
    )

    programs: list[Program] = []
    plans: list[PlanArtifact] = []
    profiles: list[ProfileArtifact] = []
    by_gpu: dict[str, tuple[ProfileArtifact, PlanArtifact, Program | None]] = {}
    for gpu in cluster.gpus:
        token = f"{gpu.name}/{gpu.memory_bytes}"
        hit = by_gpu.get(token)
        if hit is None:
            plan_gpu = gpu
            if mode == "zero_shard":
                # Capacity-consistent single-GPU view of the sharded
                # rank: the planner sees full persistent tensors, so it
                # gets the sharding savings back as budget, minus
                # headroom for the largest transient gather buffer.
                plan_gpu = gpu.with_memory(
                    gpu.memory_bytes + savings - max_gather,
                )
            profile, plan, program = _compile_rank(
                graph, policy, gpu, plan_gpu, cache, extra,
                augment_options, sanitize,
            )
            if program is not None:
                if mode == "zero_shard":
                    program = splice_zero_shard(graph, program, world)
                else:
                    program = splice_all_reduce(graph, program, world)
            hit = by_gpu[token] = (profile, plan, program)
        profiles.append(hit[0])
        plans.append(hit[1])
        if hit[2] is not None:
            programs.append(hit[2])
    meta = {"per_rank_batch": batch // world}
    if mode == "zero_shard":
        meta["shard_savings_bytes"] = savings
        meta["max_gather_bytes"] = max_gather
    return ClusterCompiled(
        cluster=cluster, mode=mode, batch=batch,
        programs=programs if len(programs) == world else [],
        plans=plans, profiles=profiles, meta=meta,
    )


def _build(
    model: str | Graph, batch: int, param_scale: float, overrides: dict | None,
) -> Graph:
    if isinstance(model, Graph):
        return model
    return build_model(
        model, batch, param_scale=param_scale, **(overrides or {}),
    )


#: Plan sanitising kind sets per mode: ZeRO holds shards (persistent
#: tensors stay resident); pipeline replay additionally requires
#: gradients unsplit and resident across micro-batches.
_ZERO_RESIDE_KINDS = frozenset({
    TensorKind.PARAM, TensorKind.OPTIMIZER_STATE, TensorKind.GRAD_PARAM,
})
_PP_RESIDE_KINDS = _ZERO_RESIDE_KINDS


def _sanitize_plan(
    plan: Plan, graph: Graph, kinds: frozenset[TensorKind],
) -> Plan:
    """Force the given tensor kinds back to unsplit RESIDE.

    Cluster transforms own the lifecycle of these tensors (shards held
    on device, gradients accumulated across micro-batches), so per-rank
    planning is restricted to the remaining tensors — in practice the
    activations, which dominate and are what TSPLIT optimises.
    """
    if plan.cpu_update:
        raise PlanningError(
            "cluster transforms do not support CPU-update policies; "
            "use the single-GPU pipeline for zero_offload-style plans"
        )
    configs = {
        tid: config for tid, config in plan.configs.items()
        if not (
            graph.tensors[tid].kind in kinds
            and (config.opt is not MemOption.RESIDE or config.is_split)
        )
    }
    if len(configs) == len(plan.configs):
        return plan
    return dataclasses.replace(plan, configs=configs)


def _compile_rank(
    graph: Graph,
    policy: MemoryPolicy,
    gpu: GPUSpec,
    plan_gpu: GPUSpec,
    cache: CompileCache | None,
    extra: dict,
    augment_options: AugmentOptions | None,
    sanitize: frozenset[TensorKind] | None,
    keep_graph_order: bool = False,
) -> tuple[ProfileArtifact, PlanArtifact, Program | None]:
    """One rank's Profile → Plan → Lower with rank-aware plan keys.

    ``keep_graph_order`` pins the schedule to the graph's insertion
    order instead of the DFS order. Pipeline-stage subgraphs need this:
    boundary clones drop cross-stage dependencies, so a DFS reorder of
    the remaining ops can put a gradient accumulation ahead of the
    backward op whose result the *other* rank needs first — a lane-order
    cycle the receive markers then deadlock on. The insertion order is
    the full graph's topological order filtered to the stage, which
    every rank's lanes embed consistently.
    """
    profiler = Profiler(gpu)
    profile = ProfileStage(profiler).run(graph, gpu, cache=cache)
    if keep_graph_order:
        profile = dataclasses.replace(profile, schedule=list(graph.ops))
    plan_art = PlanStage(policy, extra=extra).run(
        graph, plan_gpu, profile, cache=cache,
    )
    if plan_art.plan is None:
        return profile, plan_art, None
    plan = plan_art.plan
    if sanitize is not None:
        try:
            plan = _sanitize_plan(plan, graph, sanitize)
        except PlanningError as exc:
            return profile, dataclasses.replace(
                plan_art, plan=None, error=str(exc),
            ), None
    options = default_augment_options(policy, augment_options)
    lowered = LowerStage(options).run(graph, plan, profile)
    return profile, plan_art, lowered.program.program


# -- pipeline parallelism ----------------------------------------------------


def _compile_pipeline(
    model: str | Graph,
    batch: int,
    policy: MemoryPolicy,
    cluster: ClusterSpec,
    *,
    micros: int | None,
    cache: CompileCache | None,
    param_scale: float,
    augment_options: AugmentOptions | None,
    overrides: dict | None,
) -> ClusterCompiled:
    world = cluster.world_size
    micros = micros if micros is not None else max(1, 2 * world)
    if batch % micros:
        raise ValueError(
            f"batch {batch} is not divisible by {micros} micro-batches"
        )
    graph = _build(model, batch // micros, param_scale, overrides)
    base_profile = ProfileStage(Profiler(cluster.gpus[0])).run(
        graph, cluster.gpus[0], cache=cache,
    )
    stage_of = _assign_stages(graph, world, base_profile)
    crossings = _boundary_crossings(graph, stage_of)
    # Which chunk a boundary transfer belongs to is decided by the
    # producing op's phase in the *full* graph — on the receiving rank
    # the clone has no producer.
    crossing_phase = {
        tid: graph.ops[graph.tensors[tid].producer].phase
        for tid, _, _ in crossings
    }

    programs: list[Program] = []
    plans: list[PlanArtifact] = []
    profiles: list[ProfileArtifact] = []
    stage_meta: list[dict] = []
    comm_ids = {
        (tid, dst, m): index
        for index, (tid, dst, m) in enumerate(
            (tid, dst, m)
            for tid, _, dst in crossings
            for m in range(micros)
        )
    }
    for rank, gpu in enumerate(cluster.gpus):
        sub, tid_map = _stage_subgraph(graph, stage_of, rank)
        extra = {
            "parallelism": "pp", "world": world,
            "stage": rank, "micros": micros,
        }
        profile, plan_art, stage_program = _compile_rank(
            sub, policy, gpu, gpu, cache, extra,
            augment_options, _PP_RESIDE_KINDS, keep_graph_order=True,
        )
        profiles.append(profile)
        plans.append(plan_art)
        if stage_program is None:
            continue
        program = _assemble_pipeline_rank(
            sub, stage_program, rank, world, micros,
            crossings, crossing_phase, tid_map, comm_ids,
        )
        program.batch = batch if rank == 0 else 0
        program.name = f"{graph.name}@pp{world}r{rank}"
        programs.append(program)
        stage_meta.append({
            "rank": rank,
            "ops": sum(1 for s in stage_of.values() if s == rank),
            "persistent_bytes": program.persistent_bytes,
        })
    return ClusterCompiled(
        cluster=cluster, mode="pp", batch=batch,
        programs=programs if len(programs) == world else [],
        plans=plans, profiles=profiles,
        meta={
            "micros": micros,
            "per_micro_batch": batch // micros,
            "stages": stage_meta,
            "boundaries": len(crossings),
        },
    )


def _assign_stages(
    graph: Graph, n_stages: int, profile: ProfileArtifact,
) -> dict[int, int]:
    """Assign every op to a stage: contiguous forward partition balanced
    by profiled forward time; backward/accum/update ops follow the
    forward op (or parameter) they belong to."""
    forward = [op for op in graph.ops.values() if op.phase is Phase.FORWARD]
    if len(forward) < n_stages:
        raise PlanningError(
            f"{graph.name}: {len(forward)} forward ops cannot fill "
            f"{n_stages} pipeline stages"
        )
    times = [profile.profile.op_time(op.op_id) for op in forward]
    total = sum(times) or 1.0
    stage_of: dict[int, int] = {}
    stage = 0
    acc = 0.0
    for index, op in enumerate(forward):
        remaining_ops = len(forward) - index
        remaining_stages = n_stages - stage
        # Advance when this stage has its time share, but never starve
        # later stages of ops.
        if (
            stage < n_stages - 1
            and acc >= total * (stage + 1) / n_stages
            and remaining_ops > remaining_stages - 1
        ):
            stage += 1
        stage_of[op.op_id] = stage
        acc += times[index]
    for op in graph.ops.values():
        if op.op_id in stage_of:
            continue
        if op.phase is Phase.BACKWARD:
            fwd = op.attrs.get("forward_op")
            if fwd is not None and fwd in stage_of:
                stage_of[op.op_id] = stage_of[fwd]
                continue
            stage_of[op.op_id] = _producer_stage(graph, op, stage_of)
        elif op.phase is Phase.UPDATE:
            stage_of[op.op_id] = _param_stage(graph, op, stage_of)
        else:
            stage_of[op.op_id] = _producer_stage(graph, op, stage_of)
    return stage_of


def _producer_stage(
    graph: Graph, op, stage_of: dict[int, int],
) -> int:
    for tid in op.inputs:
        producer = graph.tensors[tid].producer
        if producer is not None and producer in stage_of:
            return stage_of[producer]
    return max(stage_of.values(), default=0)


def _param_stage(graph: Graph, op, stage_of: dict[int, int]) -> int:
    param = op.attrs.get("param")
    if param is None and op.inputs:
        param = op.inputs[0]
    if param is not None:
        for consumer in graph.tensors[param].consumers:
            other = graph.ops[consumer]
            if other.phase is Phase.FORWARD and consumer in stage_of:
                return stage_of[consumer]
    return _producer_stage(graph, op, stage_of)


def _boundary_crossings(
    graph: Graph, stage_of: dict[int, int],
) -> list[tuple[int, int, int]]:
    """Stage-crossing tensors as ``(tensor_id, src_stage, dst_stage)``.

    Ordered by producing op (which is how sends appear on the source
    rank's lanes, keeping rendezvous order consistent with the
    receiver). Persistent tensors replicated into multiple stages don't
    cross — each stage holds its own copy.
    """
    crossings: list[tuple[int, int, int]] = []
    for op in graph.ops.values():
        src = stage_of[op.op_id]
        for tid in op.outputs:
            tensor = graph.tensors[tid]
            destinations = sorted({
                stage_of[consumer] for consumer in tensor.consumers
                if stage_of[consumer] != src
            })
            for dst in destinations:
                crossings.append((tid, src, dst))
    return crossings


def _stage_subgraph(
    graph: Graph, stage_of: dict[int, int], rank: int,
) -> tuple[Graph, dict[int, int]]:
    """Extract one stage's subgraph.

    Tensors produced by another stage but consumed here become
    INPUT-kind clones: persistent scalar charges whose arrival the
    point-to-point receive markers gate at run time. Op attrs that
    reference graph ids (``forward_op``, ``param``) are remapped.
    """
    sub = Graph(f"{graph.name}~s{rank}")
    tid_map: dict[int, int] = {}
    op_map: dict[int, int] = {}

    def clone_tensor(tid: int, crossing: bool) -> int:
        mapped = tid_map.get(tid)
        if mapped is not None:
            return mapped
        tensor = graph.tensors[tid]
        kind = TensorKind.INPUT if crossing else tensor.kind
        created = sub.add_tensor(
            tensor.name, tensor.shape, dtype=tensor.dtype, kind=kind,
            split_axes=tensor.split_axes,
        )
        tid_map[tid] = created.tensor_id
        return created.tensor_id

    for op in graph.ops.values():
        if stage_of[op.op_id] != rank:
            continue
        inputs = []
        for tid in op.inputs:
            producer = graph.tensors[tid].producer
            crossing = producer is not None and stage_of[producer] != rank
            inputs.append(clone_tensor(tid, crossing))
        outputs = [clone_tensor(tid, False) for tid in op.outputs]
        attrs = dict(op.attrs)
        if "forward_op" in attrs and attrs["forward_op"] in op_map:
            attrs["forward_op"] = op_map[attrs["forward_op"]]
        if "param" in attrs and attrs["param"] in tid_map:
            attrs["param"] = tid_map[attrs["param"]]
        cloned = sub.add_op(
            op.name, op.op_type, inputs, outputs,
            attrs=attrs, phase=op.phase, flops=op.flops,
            bytes_accessed=op.bytes_accessed,
            workspace_bytes=op.workspace_bytes,
        )
        op_map[op.op_id] = cloned.op_id
    return sub, tid_map


def _assemble_pipeline_rank(
    sub: Graph,
    stage_program: Program,
    rank: int,
    world: int,
    micros: int,
    crossings: list[tuple[int, int, int]],
    crossing_phase: dict[int, Phase],
    tid_map: dict[int, int],
    comm_ids: dict[tuple[int, int, int], int],
) -> Program:
    """Replay the stage chunk per micro-batch in 1F1B order.

    Non-persistent refs are remapped per micro so in-flight micro-batches
    never collide; parameter gradients accumulate into micro-0's buffers
    (later micros produce temporaries folded in by a zero-cost
    accumulation and freed); optimizer updates run once, in the last
    micro-batch. Boundary tensors ride point-to-point collectives on
    per-peer per-direction lanes: sends right after the producer,
    receives gating the chunk's first compute instruction.
    """
    kinds = {tid: tensor.kind for tid, tensor in sub.tensors.items()}
    stride = sub._next_tensor_id + 1  # noqa: SLF001 - remap headroom
    fresh = [stride * (micros + 1)]

    split = len(stage_program.instructions)
    for idx, instr in enumerate(stage_program.instructions):
        if isinstance(instr, ComputeInstr) and instr.tag == "backward":
            split = idx
            break
    f_chunk = stage_program.instructions[:split]
    b_chunk = stage_program.instructions[split:]

    grad_tids = {
        tid for tid, kind in kinds.items() if kind is TensorKind.GRAD_PARAM
    }
    b_program = Program(instructions=list(b_chunk))
    grad_sites = _final_refs(b_program, grad_tids)

    # Boundary wiring local to this rank, in producing-op order.
    outbound = [
        (tid, dst) for tid, src, dst in crossings if src == rank
    ]
    inbound = [
        (
            tid, src,
            sub.tensors[tid_map[tid]].size_bytes if tid in tid_map else 0,
        )
        for tid, src, dst in crossings if dst == rank
    ]
    forward_phase = crossing_phase
    f_sites = _final_refs(
        Program(instructions=list(f_chunk)),
        {tid_map[tid] for tid, _ in outbound if tid in tid_map},
    )
    b_out_sites = _final_refs(
        b_program,
        {tid_map[tid] for tid, _ in outbound if tid in tid_map},
    )

    instructions: list[Instruction] = []
    for kind_m, micro in one_f_one_b_order(world, rank, micros):
        if kind_m == "F":
            instructions.extend(_emit_chunk(
                sub, f_chunk, micro, micros, stride, kinds, grad_sites={},
                sites=f_sites, rank=rank, phase=Phase.FORWARD,
                outbound=outbound, inbound=inbound,
                forward_phase=forward_phase, tid_map=tid_map,
                comm_ids=comm_ids, fresh=fresh,
            ))
        else:
            instructions.extend(_emit_chunk(
                sub, b_chunk, micro, micros, stride, kinds,
                grad_sites=grad_sites,
                sites=b_out_sites, rank=rank, phase=Phase.BACKWARD,
                outbound=outbound, inbound=inbound,
                forward_phase=forward_phase, tid_map=tid_map,
                comm_ids=comm_ids, fresh=fresh,
            ))
    return Program(
        instructions=instructions,
        persistent_bytes=stage_program.persistent_bytes,
        initial_host=list(stage_program.initial_host),
        batch=stage_program.batch,
        name=stage_program.name,
    )


def _emit_chunk(
    sub: Graph,
    chunk: list[Instruction],
    micro: int,
    micros: int,
    stride: int,
    kinds: dict[int, TensorKind],
    *,
    grad_sites: dict[int, tuple[int, tuple[TensorRef, ...]]],
    sites: dict[int, tuple[int, tuple[TensorRef, ...]]],
    rank: int,
    phase: Phase,
    outbound: list[tuple[int, int]],
    inbound: list[tuple[int, int, int]],
    forward_phase: dict[int, Phase],
    tid_map: dict[int, int],
    comm_ids: dict[tuple[int, int, int], int],
    fresh: list[int],
) -> list[Instruction]:
    """One micro-batch instance of a stage chunk, fully wired."""
    last = micro == micros - 1

    def mapped(ref: TensorRef, *, to_base: bool = False) -> TensorRef:
        kind = kinds.get(ref.tensor_id)
        if kind in _SHARED_KINDS:
            return ref
        if micro == 0 or (to_base and kind is TensorKind.GRAD_PARAM):
            return ref
        return dataclasses.replace(
            ref, tensor_id=ref.tensor_id + micro * stride,
        )

    def remap(instr: Instruction, *, to_base: bool = False) -> Instruction:
        refs = {}
        for instr_ref in _instr_refs(instr):
            refs[instr_ref.key] = mapped(instr_ref, to_base=to_base)
        return remap_refs(instr, refs)

    sends: dict[int, list[Instruction]] = {}
    for tid, dst in outbound:
        if forward_phase.get(tid, Phase.FORWARD) is not phase:
            continue
        site = sites.get(tid_map.get(tid, -1))
        if site is None:
            continue
        idx, refs = site
        sends.setdefault(idx, []).append(CollectiveInstr(
            kind="send",
            comm_id=comm_ids[(tid, dst, micro)],
            group=(min(rank, dst), max(rank, dst)),
            nbytes=sum(ref.nbytes for ref in refs),
            label=f"send({refs[0].label or tid}->r{dst})#{micro}",
            inputs=tuple(mapped(ref) for ref in refs),
            # One lane per boundary tensor: distinct message streams
            # between a rank pair must never block behind each other
            # (forward activations vs backward gradients interleave
            # differently in the two ranks' 1F1B orders).
            lane=f"send:{dst}:t{tid}",
        ))

    recvs: list[Instruction] = []
    # Each receive marker gates the first in-chunk consumer of its
    # boundary tensor — gating the whole chunk would wedge mutually
    # dependent backward chunks (partial-gradient flows go both ways).
    # The zero-byte marker is freed right after that consumer, so the
    # next iteration's recv can allocate it again.
    gates: dict[int, list[TensorRef]] = {}
    for tid, src, nbytes in inbound:
        if forward_phase.get(tid, Phase.FORWARD) is not phase:
            continue
        marker = TensorRef(fresh[0], 0, label=f"recv(t{tid})#{micro}")
        fresh[0] += 1
        target = tid_map.get(tid)
        for idx, instr in enumerate(chunk):
            if (
                isinstance(instr, ComputeInstr)
                and instr.op_id is not None
                and target in sub.ops[instr.op_id].inputs
            ):
                gates.setdefault(idx, []).append(marker)
                break
        recvs.append(CollectiveInstr(
            kind="recv",
            comm_id=comm_ids[(tid, rank, micro)],
            group=(min(rank, src), max(rank, src)),
            nbytes=nbytes,
            label=f"recv(t{tid}<-r{src})#{micro}",
            outputs=(marker,),
            lane=f"recv:{src}:t{tid}",
        ))

    out: list[Instruction] = list(recvs)
    for idx, instr in enumerate(chunk):
        if phase is Phase.BACKWARD:
            if isinstance(instr, ComputeInstr) and instr.tag == "update":
                if not last:
                    continue
                emitted = remap(instr, to_base=True)
                markers = gates.get(idx, ())
                if markers:
                    emitted = dataclasses.replace(
                        emitted, inputs=(*emitted.inputs, *markers),
                    )
                out.append(emitted)
                out.extend(FreeInstr(marker) for marker in markers)
                out.extend(sends.get(idx, ()))
                continue
            if (
                isinstance(instr, FreeInstr)
                and kinds.get(instr.ref.tensor_id) is TensorKind.GRAD_PARAM
            ):
                # Gradient buffers live until the last micro's update;
                # temporaries get their own frees after accumulation.
                if last:
                    out.append(remap(instr, to_base=True))
                continue
        emitted = remap(instr)
        markers = gates.get(idx, ())
        if markers and isinstance(emitted, ComputeInstr):
            emitted = dataclasses.replace(
                emitted, inputs=(*emitted.inputs, *markers),
            )
        out.append(emitted)
        out.extend(FreeInstr(marker) for marker in markers)
        out.extend(sends.get(idx, ()))
        if micro > 0:
            for tid, (site_idx, refs) in grad_sites.items():
                if site_idx != idx:
                    continue
                for ref in refs:
                    temp = mapped(ref)
                    out.append(ComputeInstr(
                        label=f"grad_accum({ref.label})#{micro}",
                        duration=0.0,
                        inputs=(temp, ref),
                        tag="backward",
                    ))
                    out.append(FreeInstr(temp))
    return out


def _instr_refs(instr: Instruction) -> tuple[TensorRef, ...]:
    if isinstance(instr, ComputeInstr):
        return (*instr.inputs, *instr.outputs, *instr.alloc_only,
                *instr.finishes)
    if isinstance(instr, CollectiveInstr):
        return (*instr.inputs, *instr.outputs, *instr.frees)
    if isinstance(instr, FreeInstr):
        return (instr.ref,)
    ref = getattr(instr, "ref", None)
    return (ref,) if ref is not None else ()

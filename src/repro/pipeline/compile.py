"""The single entry point of the staged compilation pipeline.

:func:`compile_run` threads one (graph, policy, GPU) configuration
through Profile → Plan → Lower → Execute and returns every stage's
artifact alongside the rolled-up :class:`~repro.pipeline.stages.EvalResult`
the analysis layer consumes. Passing a
:class:`~repro.pipeline.cache.CompileCache` makes the two expensive
deterministic stages incremental across calls: a batch-size sweep
profiles each graph once per GPU *performance* identity, and an
over-subscription sweep (same device, shrunk capacity) re-plans against
a cached profile instead of re-measuring kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.augment import AugmentOptions
from repro.core.profiler import Profiler
from repro.errors import PlanningError
from repro.faults.model import FaultConfig
from repro.graph.graph import Graph
from repro.hardware.gpu import GPUSpec
from repro.pipeline.cache import CompileCache
from repro.pipeline.stages import (
    AddressPlanArtifact,
    AddressPlanStage,
    EvalResult,
    ExecuteArtifact,
    ExecuteStage,
    LowerArtifact,
    LowerStage,
    PlanArtifact,
    PlanStage,
    ProfileArtifact,
    ProfileStage,
    default_augment_options,
    resolve_policy,
)
from repro.pipeline.replan import ReplanConfig, ReplanController, ReplanReport
from repro.planner.address_plan import plan_stale_reasons
from repro.policies.base import MemoryPolicy
from repro.runtime.engine import EngineOptions
from repro.runtime.observers import EngineObserver
from repro.telemetry import get_telemetry


@dataclass
class CompiledRun:
    """Every stage artifact for one compiled configuration.

    ``lowered`` and ``executed`` are ``None`` when planning or lowering
    failed (there is nothing to run); ``result`` always exists and mirrors the
    pre-pipeline ``run_policy`` contract. ``replan`` carries the dynamic
    feedback loop's report when one was attached (``None`` otherwise).
    """

    result: EvalResult
    profile: ProfileArtifact
    plan: PlanArtifact
    lowered: LowerArtifact | None = None
    executed: ExecuteArtifact | None = None
    replan: ReplanReport | None = None
    #: Offline address plan (``compile_run(address_plan=True)``);
    #: ``None`` when the stage was not requested or planning failed
    #: upstream. Stamped ``stale`` if the executed allocation stream no
    #: longer replays on the plan.
    address_plan: AddressPlanArtifact | None = None


def compile_run(
    graph: Graph,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    *,
    cache: CompileCache | None = None,
    profiler: Profiler | None = None,
    augment_options: AugmentOptions | None = None,
    engine_options: EngineOptions | None = None,
    observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
    iterations: int | None = None,
    faults: FaultConfig | None = None,
    replan: ReplanConfig | bool | None = None,
    address_plan: bool = False,
) -> CompiledRun:
    """Profile, plan, lower and execute one configuration.

    Never raises for capacity failures — planning and lowering errors and
    engine OOMs surface as ``result.feasible == False`` with the failure
    message, matching the analysis layer's sweep contract. With ``iterations``
    set, the execute stage runs that many back-to-back iterations and
    records per-iteration durations in ``executed.durations``.

    ``faults`` attaches a fault-injection configuration to the execute
    stage (overriding any on ``engine_options``) and folds its
    signature into the plan-stage cache key, so chaos sweeps never share
    plan artifacts across fault configurations. ``faults=None`` leaves
    every stage — and every cache key — byte-identical to a fault-free
    pipeline.

    ``replan`` (``True`` or a :class:`ReplanConfig`) closes the
    DELTA-style feedback loop: a
    :class:`~repro.runtime.pressure.PressureMonitor` watches the run and
    a :class:`ReplanController` may hot-swap re-planned programs at
    iteration boundaries, reusing ``cache`` as the warm plan store.
    Requires ``iterations >= 2`` (there are no boundaries otherwise —
    the loop stays inert and the run is static), and hot-swaps need
    ``iterations >= 3`` so every swap's measured trial has a later
    boundary to revert at. Without pressure the monitor never triggers
    and the executed stream is byte-identical to the static plan.

    ``address_plan=True`` adds the optional post-Execute
    :class:`~repro.pipeline.stages.AddressPlanStage`: one clean pass
    (the execute run itself when clean) is strip-packed into concrete
    addresses (``CompiledRun.address_plan``), cached by plan key and
    lowering options. Purely additive — the executed plan and trace are
    byte-identical with ``address_plan=False``; the artifact is marked
    ``stale`` when the executed stream no longer replays on the plan.
    """
    policy = resolve_policy(policy)
    profiler = profiler or Profiler(gpu)
    engine_options = engine_options or EngineOptions()
    if faults is not None:
        engine_options = replace(engine_options, faults=faults)
    telemetry = get_telemetry()
    tracer = telemetry.tracer
    metrics = telemetry.metrics

    with tracer.span("profile", model=graph.name, gpu=gpu.name):
        profile = ProfileStage(profiler).run(graph, gpu, cache=cache)
    if profile.cached:
        metrics.counter("pipeline.profile.cached").inc()
    with tracer.span("plan", model=graph.name, policy=policy.name):
        plan = PlanStage(policy).run(
            graph, gpu, profile, cache=cache,
            faults=engine_options.faults,
        )
    if plan.cached:
        metrics.counter("pipeline.plan.cached").inc()
    if not plan.feasible:
        metrics.counter("pipeline.plan.infeasible").inc()
        return CompiledRun(
            result=EvalResult(
                policy=policy.name, feasible=False, failure=plan.error,
            ),
            profile=profile,
            plan=plan,
        )

    options = default_augment_options(policy, augment_options)
    try:
        with tracer.span("lower", model=graph.name, policy=policy.name):
            lowered = LowerStage(options).run(graph, plan.plan, profile)
    except PlanningError as exc:  # e.g. RECOMPUTE on a producerless tensor
        return CompiledRun(
            result=EvalResult(
                policy=policy.name, feasible=False,
                plan=plan.plan, failure=str(exc),
            ),
            profile=profile, plan=plan,
        )
    replan_config = ReplanConfig.coerce(replan)
    controller = None
    boundary_hook = None
    run_observers = observers
    if replan_config is not None and iterations is not None and iterations > 1:
        controller = ReplanController(
            graph, policy, gpu, profile, plan, lowered,
            config=replan_config, augment_options=options, cache=cache,
            faults=engine_options.faults,
            total_iterations=iterations,
        )
        run_observers = (*tuple(observers), controller.monitor)
        boundary_hook = controller.boundary_hook
    with tracer.span("execute", model=graph.name, policy=policy.name):
        executed = ExecuteStage(engine_options, run_observers).run(
            gpu, lowered, iterations=iterations,
            boundary_hook=boundary_hook,
        )
    if not executed.feasible:
        result = EvalResult(
            policy=policy.name, feasible=False,
            plan=plan.plan, failure=executed.error,
        )
    else:
        result = EvalResult(
            policy=policy.name, feasible=True,
            plan=plan.plan, trace=executed.trace,
        )
    address_artifact: AddressPlanArtifact | None = None
    if address_plan:
        # Only several iterations or faults can deviate from the clean
        # pass, which is the execute run when it recorded its trace.
        measured = iterations is None and engine_options.faults is None
        clean = measured and engine_options.record_trace
        with tracer.span(
            "address_plan", model=graph.name, policy=policy.name,
        ):
            address_artifact = AddressPlanStage().run(
                gpu, plan, lowered, cache=cache,
                executed=executed if clean else None,
            )
        if address_artifact.cached:
            metrics.counter("pipeline.address_plan.cached").inc()
        reasons = plan_stale_reasons(
            executed.trace, None if measured else address_artifact.plan,
        ) if executed.feasible else []
        if executed.feasible and not (measured or engine_options.record_trace):
            # A run that may deviate left no stream to replay on the plan.
            reasons.append("allocation stream not recorded")
        if reasons:
            # A cached artifact may be shared across runs — never mutate it.
            address_artifact = replace(
                address_artifact, stale=True, stale_reason="; ".join(reasons),
            )
            metrics.counter("pipeline.address_plan.stale").inc()
    return CompiledRun(
        result=result, profile=profile, plan=plan,
        lowered=lowered, executed=executed,
        replan=controller.finalize() if controller is not None else None,
        address_plan=address_artifact,
    )

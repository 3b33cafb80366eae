"""The four pipeline stages and their artifacts.

Profile → Plan → Lower → Execute, mirroring the paper's system flow
(profiling-based estimation, model-guided planning, sTensor graph
generation, runtime execution). Each stage consumes the previous stage's
artifact and — for the two expensive, deterministic stages (profile,
plan) — supports content-addressed caching through a
:class:`~repro.pipeline.cache.CompileCache`.

Artifacts carry their cache key and a ``cached`` flag so sweeps can be
audited: a parallel batch sweep should profile each model exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.augment import AugmentedProgram, AugmentOptions, augment_graph
from repro.core.plan import Plan
from repro.core.profiler import ProfileData, Profiler
from repro.errors import OutOfMemoryError, PlanningError, PolicyError
from repro.faults.model import FaultConfig, fault_signature
from repro.graph.graph import Graph
from repro.graph.scheduler import dfs_schedule
from repro.hardware.gpu import GPUSpec
from repro.hardware.memory_pool import ALIGNMENT
from repro.pipeline.cache import (
    CompileCache,
    fingerprint,
    gpu_capacity_signature,
    gpu_perf_signature,
    graph_signature,
)
from repro.planner.address_plan import (
    AddressPlan,
    plan_addresses,
    program_signature,
)
from repro.policies.base import MemoryPolicy, get_policy
from repro.runtime.engine import Engine, EngineOptions
from repro.runtime.observers import EngineObserver
from repro.runtime.trace import ExecutionTrace
from repro.telemetry import get_telemetry


@dataclass
class EvalResult:
    """Outcome of one configuration run."""

    policy: str
    feasible: bool
    plan: Plan | None = None
    trace: ExecutionTrace | None = None
    failure: str = ""

    @property
    def throughput(self) -> float:
        return self.trace.throughput if self.trace else 0.0

    @property
    def iteration_time(self) -> float:
        return self.trace.iteration_time if self.trace else float("inf")


@dataclass
class ProfileArtifact:
    """Schedule + per-op timings for one (graph, GPU-perf) pair."""

    key: str
    graph_signature: str
    schedule: list[int]
    profile: ProfileData
    cached: bool = False


@dataclass
class PlanArtifact:
    """A policy's plan (or its planning failure) against one profile."""

    key: str
    policy: str
    plan: Plan | None = None
    #: Planning failure message; non-empty means the configuration is
    #: infeasible at the planning stage (cached like a successful plan —
    #: the same inputs fail the same way).
    error: str = ""
    cached: bool = False

    @property
    def feasible(self) -> bool:
        return self.plan is not None


@dataclass
class LowerArtifact:
    """The augmented (sTensor) program lowered from a plan."""

    program: AugmentedProgram
    options: AugmentOptions | None = None


@dataclass
class AddressPlanArtifact:
    """An offline address plan for the lowered program (or its failure).

    ``error`` is set when the clean measurement pass OOMed — there is
    no stream to pack. ``stale`` is stamped by the pipeline *after*
    execution when the run deviated from the measured stream (plan
    hot-swaps, emergency evictions/refetches, recovery skips): the
    plan's addresses no longer correspond to the executed allocations,
    and consumers must fall back to an online strategy.
    """

    key: str
    plan: AddressPlan | None = None
    error: str = ""
    cached: bool = False
    stale: bool = False
    stale_reason: str = ""

    @property
    def feasible(self) -> bool:
        return self.plan is not None


@dataclass
class ExecuteArtifact:
    """Execution outcome: a trace, per-iteration times, or an OOM."""

    trace: ExecutionTrace | None = None
    durations: list[float] = field(default_factory=list)
    error: str = ""

    @property
    def feasible(self) -> bool:
        return self.trace is not None


def resolve_policy(policy: MemoryPolicy | str) -> MemoryPolicy:
    return get_policy(policy) if isinstance(policy, str) else policy


def default_augment_options(
    policy: MemoryPolicy, options: AugmentOptions | None,
) -> AugmentOptions | None:
    """Fill lowering options from the policy's recompute style.

    Policies name the recomputation execution strategy their original
    system uses; explicit options always win.
    """
    if options is not None or policy.recompute_strategy is None:
        return options
    from repro.core.recompute import RecomputeStrategy

    return AugmentOptions(
        recompute_strategy=RecomputeStrategy(policy.recompute_strategy),
    )


class ProfileStage:
    """Schedule the graph and profile every operator."""

    def __init__(self, profiler: Profiler) -> None:
        self.profiler = profiler

    def key(self, graph: Graph, gpu: GPUSpec) -> str:
        """Profiles depend on graph structure, GPU *performance* (not
        capacity) and the profiler's measurement settings."""
        return fingerprint({
            "stage": "profile",
            "graph": graph_signature(graph),
            "gpu": gpu_perf_signature(gpu),
            "profiler": self.profiler.cache_token(),
        })

    def run(
        self, graph: Graph, gpu: GPUSpec, cache: CompileCache | None = None,
    ) -> ProfileArtifact:
        """Profile the graph, or return the cached artifact for its key."""
        if cache is None:
            return ProfileArtifact(
                key="", graph_signature="", schedule=dfs_schedule(graph),
                profile=self.profiler.profile(graph),
            )
        metrics = get_telemetry().metrics
        with metrics.timer("compile_cache.profile.key_seconds").time():
            key = self.key(graph, gpu)
        with cache.compute_lock(key):
            hit = cache.get(key, kind="profile")
            if hit is not None:
                return ProfileArtifact(
                    key=key,
                    graph_signature=hit.graph_signature,
                    schedule=hit.schedule,
                    profile=hit.profile,
                    cached=True,
                )
            artifact = ProfileArtifact(
                key=key,
                graph_signature=graph_signature(graph),
                schedule=dfs_schedule(graph),
                profile=self.profiler.profile(graph),
            )
            cache.put(key, artifact, kind="profile")
        return artifact


class PlanStage:
    """Run one policy against a profiled graph.

    ``extra`` distinguishes otherwise-identical planning contexts in the
    cache — e.g. the cluster compiler keys each rank's plan by parallelism
    mode, world size and rank-visible budget, so a 4-rank ZeRO plan never
    collides with a single-GPU plan of the same graph. When unset the key
    payload is bit-identical to pre-cluster keys (caches survive).
    """

    def __init__(
        self, policy: MemoryPolicy, extra: dict | None = None,
    ) -> None:
        self.policy = policy
        self.extra = extra or None

    def key(
        self,
        profile: ProfileArtifact,
        gpu: GPUSpec,
        faults: FaultConfig | None = None,
    ) -> str:
        """Plans depend on the profile they were planned against, the
        capacity they had to fit, and the policy's full configuration.

        A fault configuration joins the payload only when one is set:
        fault-free keys are bit-identical to pre-fault keys (caches
        survive the upgrade), while chaos sweeps at different
        intensities never share plan artifacts that could become
        fault-dependent.
        """
        payload = {
            "stage": "plan",
            "profile": profile.key,
            "capacity": gpu_capacity_signature(gpu),
            "policy": self.policy.cache_token(),
        }
        signature = fault_signature(faults)
        if signature is not None:
            payload["faults"] = signature
        if self.extra:
            payload["extra"] = self.extra
        return fingerprint(payload)

    def run(
        self,
        graph: Graph,
        gpu: GPUSpec,
        profile: ProfileArtifact,
        cache: CompileCache | None = None,
        faults: FaultConfig | None = None,
    ) -> PlanArtifact:
        """Plan against a profile; planning failures become artifacts
        too (``error`` set), never exceptions."""
        key = ""
        if cache is not None and profile.key:
            metrics = get_telemetry().metrics
            with metrics.timer("compile_cache.plan.key_seconds").time():
                key = self.key(profile, gpu, faults)
        if key:
            hit = cache.get(key, kind="plan")
            if hit is not None:
                return PlanArtifact(
                    key=key,
                    policy=hit.policy,
                    plan=hit.plan,
                    error=hit.error,
                    cached=True,
                )
        try:
            plan = self.policy.build_plan(
                graph, gpu,
                schedule=profile.schedule, profile=profile.profile,
            )
        except (PolicyError, PlanningError) as exc:
            artifact = PlanArtifact(
                key=key, policy=self.policy.name, error=str(exc),
            )
        else:
            artifact = PlanArtifact(
                key=key, policy=self.policy.name, plan=plan,
            )
        if key:
            cache.put(key, artifact, kind="plan")
        return artifact


class LowerStage:
    """Lower a plan to the augmented (sTensor) instruction program."""

    def __init__(self, options: AugmentOptions | None = None) -> None:
        self.options = options

    def run(
        self, graph: Graph, plan: Plan, profile: ProfileArtifact,
    ) -> LowerArtifact:
        """Generate the augmented program implementing the plan."""
        program = augment_graph(
            graph, plan, profile.profile,
            schedule=profile.schedule, options=self.options,
        )
        return LowerArtifact(program=program, options=self.options)


class AddressPlanStage:
    """Pack the lowered program's allocation stream into addresses.

    An optional post-Lower stage: one *clean* measurement pass (no
    observers, no faults — the engine is deterministic, so the
    measured stream is exactly what a fault-free execution allocates)
    recovers every tensor's birth/death, and
    :func:`~repro.planner.address_plan.plan_addresses` strip-packs the
    stream into an :class:`~repro.planner.address_plan.AddressPlan`.
    Content-addressed by the lowered instruction stream and the device
    capacity, so sweeps re-plan only when the program changes.
    """

    def key(self, lowered: LowerArtifact, gpu: GPUSpec) -> str:
        """Plans depend on the exact instruction stream, the capacity
        the measurement pass ran against, and the pool alignment."""
        return fingerprint({
            "stage": "address_plan",
            "program": program_signature(lowered.program.program),
            "capacity": gpu_capacity_signature(gpu),
            "alignment": ALIGNMENT,
        })

    def run(
        self,
        gpu: GPUSpec,
        lowered: LowerArtifact,
        cache: CompileCache | None = None,
    ) -> AddressPlanArtifact:
        """Measure + pack, or return the cached plan for this key; a
        measurement-pass OOM becomes an error artifact, not an
        exception (the execute stage will report the same failure)."""
        key = ""
        if cache is not None:
            metrics = get_telemetry().metrics
            with metrics.timer("compile_cache.address_plan.key_seconds").time():
                key = self.key(lowered, gpu)
            hit = cache.get(key, kind="address_plan")
            if hit is not None:
                return AddressPlanArtifact(
                    key=key, plan=hit.plan, error=hit.error, cached=True,
                )
        try:
            trace = Engine(gpu).execute(lowered.program.program)
        except OutOfMemoryError as exc:
            artifact = AddressPlanArtifact(key=key, error=str(exc))
        else:
            artifact = AddressPlanArtifact(
                key=key, plan=plan_addresses(trace, source_key=key),
            )
        if key:
            cache.put(key, artifact, kind="address_plan")
        return artifact


class ExecuteStage:
    """Run the lowered program on the simulated device."""

    def __init__(
        self,
        options: EngineOptions | None = None,
        observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
    ) -> None:
        self.options = options
        self.observers = observers

    def run(
        self,
        gpu: GPUSpec,
        lowered: LowerArtifact,
        iterations: int | None = None,
        boundary_hook=None,
    ) -> ExecuteArtifact:
        """Execute the program (optionally ``iterations`` times); an
        engine OOM becomes an infeasible artifact, not an exception.

        ``boundary_hook`` is forwarded to
        :meth:`~repro.runtime.engine.Engine.execute_iterations` — the
        dynamic-replanning entry point; it requires ``iterations``.
        """
        engine = Engine(gpu, self.options)
        try:
            if iterations is None:
                if boundary_hook is not None:
                    raise ValueError(
                        "boundary_hook requires iterations: replanning "
                        "hot-swaps at iteration boundaries"
                    )
                trace = engine.execute(
                    lowered.program.program, observers=self.observers,
                )
                return ExecuteArtifact(trace=trace)
            durations, trace = engine.execute_iterations(
                lowered.program.program, iterations,
                observers=self.observers, boundary_hook=boundary_hook,
            )
            return ExecuteArtifact(trace=trace, durations=durations)
        except OutOfMemoryError as exc:
            return ExecuteArtifact(error=str(exc))

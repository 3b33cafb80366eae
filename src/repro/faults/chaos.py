"""Chaos sweeps: fault-intensity ladders over one configuration.

A chaos sweep answers "is this plan robust, not just optimal": it
compiles and runs one (model, policy, GPU) configuration clean, then
re-runs it across a ladder of fault intensities × seeds and reports the
slowdown and recovery statistics of every point. The
``python -m repro chaos`` command is a thin wrapper over
:func:`chaos_sweep`.

Intensity is a single scalar knob mapped onto the individual
:class:`~repro.faults.model.FaultConfig` axes by
:func:`intensity_config`: intensity 0 is the all-zero (null) config —
timing-identical to a clean run by the fault model's construction —
and intensity 1 is an already-hostile device (±5 % kernel jitter, ±10 %
bandwidth jitter, 25 % persistent bandwidth loss, 15 % transfer-failure
rate). Sweeps typically ladder 0 → 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.errors import HardwareError
from repro.faults.model import FaultConfig
from repro.hardware.gpu import GPUSpec
from repro.units import format_bytes, format_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.graph.graph import Graph
    from repro.pipeline.cache import CompileCache

#: Per-unit-intensity slope of each fault axis (see intensity_config).
_KERNEL_NOISE_SLOPE = 0.05
_PCIE_JITTER_SLOPE = 0.10
_PCIE_DEGRADATION_SLOPE = 0.25
_FAILURE_RATE_SLOPE = 0.15
#: Ceilings keeping high intensities valid FaultConfigs.
_MAX_DEGRADATION = 0.75
_MAX_FAILURE_RATE = 0.90


def intensity_config(
    intensity: float,
    seed: int = 0,
    *,
    emergency_eviction: bool = True,
) -> FaultConfig:
    """Map a scalar intensity onto a :class:`FaultConfig`.

    Intensity 0 yields the null config (every noise term zero — the
    fault model then never draws from its RNG and timing is identical
    to a clean run); degradation and failure rate saturate at ceilings
    that keep arbitrarily large intensities valid.
    """
    if intensity < 0:
        raise HardwareError(f"chaos intensity must be >= 0, got {intensity}")
    return FaultConfig(
        seed=seed,
        kernel_noise=_KERNEL_NOISE_SLOPE * intensity,
        pcie_jitter=_PCIE_JITTER_SLOPE * intensity,
        pcie_degradation=min(
            _MAX_DEGRADATION, _PCIE_DEGRADATION_SLOPE * intensity,
        ),
        transfer_failure_rate=min(
            _MAX_FAILURE_RATE, _FAILURE_RATE_SLOPE * intensity,
        ),
        emergency_eviction=emergency_eviction,
    )


def artifact_name(
    prefix: str,
    model: str,
    policy: str,
    *,
    intensity: float | None = None,
    seed: int | None = None,
    suffix: str = "",
    ext: str = "json",
) -> str:
    """A collision-free file name for one sweep artifact.

    Embeds everything that distinguishes parallel ``repro chaos``
    invocations — model, policy and (when given) the fault intensity
    and seed — so concurrent sweeps writing into one directory never
    overwrite each other's traces. Path-hostile characters in the
    identifying parts are flattened to ``-``.
    """
    def clean(part: str) -> str:
        return "".join(
            ch if ch.isalnum() or ch in "._-" else "-" for ch in part
        )

    parts = [clean(prefix), clean(model), clean(policy)]
    if intensity is not None:
        parts.append(f"i{intensity:g}")
    if seed is not None:
        parts.append(f"s{seed}")
    if suffix:
        parts.append(clean(suffix))
    return "_".join(parts) + f".{ext}"


def fault_class_config(
    fault_class: str,
    intensity: float,
    seed: int = 0,
    *,
    emergency_eviction: bool = True,
) -> FaultConfig:
    """A :class:`FaultConfig` exercising one isolated fault class.

    ``mixed`` is :func:`intensity_config` (every axis at once);
    ``degraded_pcie`` loses persistent link bandwidth only (the fault
    class dynamic replanning is built to win), ``flaky_link`` injects
    transient transfer failures only, and ``noisy`` jitters kernel and
    link timing without any persistent shift.
    """
    if intensity < 0:
        raise HardwareError(f"chaos intensity must be >= 0, got {intensity}")
    if fault_class == "mixed":
        return intensity_config(
            intensity, seed, emergency_eviction=emergency_eviction,
        )
    if fault_class == "degraded_pcie":
        return FaultConfig(
            seed=seed,
            pcie_degradation=min(
                _MAX_DEGRADATION, _PCIE_DEGRADATION_SLOPE * 2.0 * intensity,
            ),
            emergency_eviction=emergency_eviction,
        )
    if fault_class == "flaky_link":
        return FaultConfig(
            seed=seed,
            transfer_failure_rate=min(
                _MAX_FAILURE_RATE, _FAILURE_RATE_SLOPE * 2.0 * intensity,
            ),
            emergency_eviction=emergency_eviction,
        )
    if fault_class == "noisy":
        return FaultConfig(
            seed=seed,
            kernel_noise=_KERNEL_NOISE_SLOPE * intensity,
            pcie_jitter=_PCIE_JITTER_SLOPE * intensity,
            emergency_eviction=emergency_eviction,
        )
    raise HardwareError(
        f"unknown fault class {fault_class!r}; expected one of "
        f"'mixed', 'degraded_pcie', 'flaky_link', 'noisy'"
    )


@dataclass(frozen=True)
class ChaosPoint:
    """One (intensity, seed) run of the sweep."""

    intensity: float
    seed: int
    feasible: bool
    failure: str = ""
    iteration_time: float = 0.0
    #: Iteration time relative to the clean run (1.0 = no slowdown).
    slowdown: float = 0.0
    peak_memory: int = 0
    transfer_retries: int = 0
    retry_backoff_time: float = 0.0
    emergency_evictions: int = 0
    emergency_evicted_bytes: int = 0
    emergency_refetches: int = 0
    recovered_skips: int = 0

    @property
    def recovery_actions(self) -> int:
        return (
            self.transfer_retries
            + self.emergency_evictions
            + self.emergency_refetches
            + self.recovered_skips
        )

    def to_dict(self) -> dict:
        return {
            "intensity": self.intensity,
            "seed": self.seed,
            "feasible": self.feasible,
            "failure": self.failure,
            "iteration_time_s": self.iteration_time,
            "slowdown": self.slowdown,
            "peak_memory_bytes": self.peak_memory,
            "transfer_retries": self.transfer_retries,
            "retry_backoff_time_s": self.retry_backoff_time,
            "emergency_evictions": self.emergency_evictions,
            "emergency_evicted_bytes": self.emergency_evicted_bytes,
            "emergency_refetches": self.emergency_refetches,
            "recovered_skips": self.recovered_skips,
            "recovery_actions": self.recovery_actions,
        }


@dataclass
class ChaosReport:
    """Clean baseline + every chaos point of one sweep."""

    model: str
    policy: str
    gpu: str
    batch: int
    capacity_bytes: int
    clean_feasible: bool
    clean_failure: str = ""
    clean_iteration_time: float = 0.0
    clean_peak_memory: int = 0
    points: list[ChaosPoint] = field(default_factory=list)

    @property
    def survived(self) -> int:
        """Chaos points that completed (recovered from every fault)."""
        return sum(1 for p in self.points if p.feasible)

    @property
    def survival_rate(self) -> float:
        return self.survived / len(self.points) if self.points else 0.0

    @property
    def worst_slowdown(self) -> float:
        """Largest slowdown among the surviving chaos points."""
        feasible = [p.slowdown for p in self.points if p.feasible]
        return max(feasible) if feasible else 0.0

    @property
    def total_recovery_actions(self) -> int:
        return sum(p.recovery_actions for p in self.points)

    def to_dict(self) -> dict:
        return {
            "report": "chaos_sweep",
            "model": self.model,
            "policy": self.policy,
            "gpu": self.gpu,
            "batch": self.batch,
            "capacity_bytes": self.capacity_bytes,
            "clean": {
                "feasible": self.clean_feasible,
                "failure": self.clean_failure,
                "iteration_time_s": self.clean_iteration_time,
                "peak_memory_bytes": self.clean_peak_memory,
            },
            "survived": self.survived,
            "survival_rate": self.survival_rate,
            "worst_slowdown": self.worst_slowdown,
            "total_recovery_actions": self.total_recovery_actions,
            "points": [p.to_dict() for p in self.points],
        }

    def describe(self) -> str:
        """Human-readable sweep summary, one line per intensity level."""
        lines = [
            f"{self.model} b={self.batch} under {self.policy} on "
            f"{self.gpu} (capacity {format_bytes(self.capacity_bytes)})",
        ]
        if not self.clean_feasible:
            lines.append(f"clean run INFEASIBLE: {self.clean_failure}")
            return "\n".join(lines)
        lines.append(
            f"clean: iter {format_time(self.clean_iteration_time)}, "
            f"peak {format_bytes(self.clean_peak_memory)}"
        )
        lines.append(
            f"{'intensity':>9s} {'runs':>5s} {'ok':>4s} {'slowdown':>12s} "
            f"{'retries':>8s} {'evict':>6s} {'refetch':>8s} {'skips':>6s}"
        )
        by_level: dict[float, list[ChaosPoint]] = {}
        for point in self.points:
            by_level.setdefault(point.intensity, []).append(point)
        for intensity in sorted(by_level):
            level = by_level[intensity]
            ok = [p for p in level if p.feasible]
            slowdowns = [p.slowdown for p in ok]
            span = (
                f"{min(slowdowns):.2f}-{max(slowdowns):.2f}x"
                if slowdowns else "-"
            )
            lines.append(
                f"{intensity:9.2f} {len(level):5d} {len(ok):4d} "
                f"{span:>12s} "
                f"{sum(p.transfer_retries for p in level):8d} "
                f"{sum(p.emergency_evictions for p in level):6d} "
                f"{sum(p.emergency_refetches for p in level):8d} "
                f"{sum(p.recovered_skips for p in level):6d}"
            )
        lines.append(
            f"survived {self.survived}/{len(self.points)} chaos runs, "
            f"worst slowdown {self.worst_slowdown:.2f}x, "
            f"{self.total_recovery_actions} recovery actions"
        )
        return "\n".join(lines)


def chaos_sweep(
    graph: Graph,
    policy,
    gpu: GPUSpec,
    *,
    intensities: tuple[float, ...] | list[float] = (0.0, 0.5, 1.0, 2.0),
    seeds: tuple[int, ...] | list[int] = tuple(range(5)),
    emergency_eviction: bool = True,
    cache: CompileCache | None = None,
) -> ChaosReport:
    """Run one configuration clean, then across intensities × seeds.

    Every chaos point goes through the full staged pipeline with a
    fault configuration attached (so plan cache keys separate by fault
    signature; the profile is shared — it is fault-independent). A
    point that cannot recover (engine OOM with eviction disabled, or a
    genuinely unsatisfiable allocation) is reported infeasible, never
    raised.
    """
    from repro.pipeline.cache import CompileCache
    from repro.pipeline.compile import compile_run

    cache = cache if cache is not None else CompileCache()
    clean = compile_run(graph, policy, gpu, cache=cache)
    report = ChaosReport(
        model=graph.name,
        policy=clean.result.policy,
        gpu=gpu.name,
        batch=0,
        capacity_bytes=gpu.memory_bytes,
        clean_feasible=clean.result.feasible,
        clean_failure=clean.result.failure,
    )
    if not clean.result.feasible:
        return report
    clean_trace = clean.result.trace
    report.batch = clean_trace.batch
    report.clean_iteration_time = clean_trace.iteration_time
    report.clean_peak_memory = clean_trace.peak_memory
    for intensity in intensities:
        for seed in seeds:
            faults = intensity_config(
                intensity, seed, emergency_eviction=emergency_eviction,
            )
            run = compile_run(graph, policy, gpu, cache=cache, faults=faults)
            if not run.result.feasible:
                report.points.append(ChaosPoint(
                    intensity=intensity, seed=seed, feasible=False,
                    failure=run.result.failure,
                ))
                continue
            trace = run.result.trace
            report.points.append(ChaosPoint(
                intensity=intensity,
                seed=seed,
                feasible=True,
                iteration_time=trace.iteration_time,
                slowdown=(
                    trace.iteration_time / clean_trace.iteration_time
                    if clean_trace.iteration_time > 0 else 0.0
                ),
                peak_memory=trace.peak_memory,
                transfer_retries=trace.transfer_retries,
                retry_backoff_time=trace.retry_backoff_time,
                emergency_evictions=trace.emergency_evictions,
                emergency_evicted_bytes=trace.emergency_evicted_bytes,
                emergency_refetches=trace.emergency_refetches,
                recovered_skips=trace.recovered_skips,
            ))
    return report

@dataclass(frozen=True)
class ReplanPoint:
    """One (intensity, seed) static-vs-dynamic comparison."""

    intensity: float
    seed: int
    static_feasible: bool
    dynamic_feasible: bool
    static_time: float = 0.0
    dynamic_time: float = 0.0
    static_failure: str = ""
    dynamic_failure: str = ""
    replans: int = 0
    reverts: int = 0
    pressure_events: int = 0
    recovery_actions: int = 0
    #: Content hash of the dynamic run's executed program history
    #: (:meth:`~repro.pipeline.replan.ReplanReport.stream_digest`);
    #: byte-identical across sweep backends for the same point.
    stream_digest: str = ""

    @property
    def speedup(self) -> float:
        """End-to-end static/dynamic time ratio (>1 = dynamic wins)."""
        if not (self.static_feasible and self.dynamic_feasible):
            return 0.0
        if self.dynamic_time <= 0:
            return 0.0
        return self.static_time / self.dynamic_time

    def to_dict(self) -> dict:
        return {
            "intensity": self.intensity,
            "seed": self.seed,
            "static_feasible": self.static_feasible,
            "dynamic_feasible": self.dynamic_feasible,
            "static_time_s": self.static_time,
            "dynamic_time_s": self.dynamic_time,
            "static_failure": self.static_failure,
            "dynamic_failure": self.dynamic_failure,
            "speedup": self.speedup,
            "replans": self.replans,
            "reverts": self.reverts,
            "pressure_events": self.pressure_events,
            "recovery_actions": self.recovery_actions,
            "stream_digest": self.stream_digest,
        }


@dataclass
class ReplanChaosReport:
    """Static vs dynamic (replanning) runs across a fault ladder."""

    model: str
    policy: str
    gpu: str
    batch: int
    capacity_bytes: int
    iterations: int
    fault_class: str
    points: list[ReplanPoint] = field(default_factory=list)

    def never_loses(self, tolerance: float = 0.02) -> bool:
        """Dynamic never ends slower than static beyond ``tolerance``.

        The controller's measured-trial revert enforces this by
        construction; the tolerance absorbs the single trial iteration a
        reverted swap may have paid for.
        """
        return all(
            p.dynamic_time <= p.static_time * (1.0 + tolerance)
            for p in self.points
            if p.static_feasible and p.dynamic_feasible
        )

    @property
    def comparable(self) -> list[ReplanPoint]:
        return [
            p for p in self.points
            if p.static_feasible and p.dynamic_feasible
        ]

    @property
    def wins(self) -> int:
        """Points where dynamic beat static by more than rounding."""
        return sum(1 for p in self.comparable if p.speedup > 1.001)

    @property
    def mean_speedup(self) -> float:
        """Mean static/dynamic time ratio over the comparable points."""
        comparable = self.comparable
        if not comparable:
            return 0.0
        return sum(p.speedup for p in comparable) / len(comparable)

    @property
    def max_speedup(self) -> float:
        return max((p.speedup for p in self.comparable), default=0.0)

    @property
    def total_replans(self) -> int:
        return sum(p.replans for p in self.points)

    def to_dict(self) -> dict:
        return {
            "report": "replan_chaos_sweep",
            "model": self.model,
            "policy": self.policy,
            "gpu": self.gpu,
            "batch": self.batch,
            "capacity_bytes": self.capacity_bytes,
            "iterations": self.iterations,
            "fault_class": self.fault_class,
            "never_loses": self.never_loses(),
            "wins": self.wins,
            "mean_speedup": self.mean_speedup,
            "max_speedup": self.max_speedup,
            "total_replans": self.total_replans,
            "points": [p.to_dict() for p in self.points],
        }

    def describe(self) -> str:
        """Per-intensity static-vs-dynamic table."""
        lines = [
            f"{self.model} b={self.batch} under {self.policy} on "
            f"{self.gpu} ({self.fault_class}, {self.iterations} iters, "
            f"capacity {format_bytes(self.capacity_bytes)})",
            f"{'intensity':>9s} {'runs':>5s} {'ok':>4s} {'speedup':>14s} "
            f"{'replans':>8s} {'reverts':>8s}",
        ]
        by_level: dict[float, list[ReplanPoint]] = {}
        for point in self.points:
            by_level.setdefault(point.intensity, []).append(point)
        for intensity in sorted(by_level):
            level = by_level[intensity]
            ok = [p for p in level if p.static_feasible and p.dynamic_feasible]
            speedups = [p.speedup for p in ok]
            span = (
                f"{min(speedups):.2f}-{max(speedups):.2f}x"
                if speedups else "-"
            )
            lines.append(
                f"{intensity:9.2f} {len(level):5d} {len(ok):4d} "
                f"{span:>14s} "
                f"{sum(p.replans for p in level):8d} "
                f"{sum(p.reverts for p in level):8d}"
            )
        lines.append(
            f"dynamic {'never loses' if self.never_loses() else 'LOSES'}; "
            f"wins {self.wins}/{len(self.comparable)}, mean speedup "
            f"{self.mean_speedup:.2f}x, max {self.max_speedup:.2f}x, "
            f"{self.total_replans} replans"
        )
        return "\n".join(lines)


def replan_chaos_sweep(
    graph: Graph,
    policy,
    gpu: GPUSpec,
    *,
    intensities: tuple[float, ...] | list[float] = (0.0, 0.5, 1.0, 2.0),
    seeds: tuple[int, ...] | list[int] = tuple(range(5)),
    iterations: int = 4,
    fault_class: str = "mixed",
    emergency_eviction: bool = True,
    cache: CompileCache | None = None,
    replan=True,
    trace_dir=None,
) -> ReplanChaosReport:
    """Static vs dynamic-replanning runs over intensities × seeds.

    Every point runs the configuration twice over ``iterations``
    back-to-back iterations with the *same* seeded fault schedule: once
    on the compile-time plan, once with the DELTA-style feedback loop
    attached (``compile_run(replan=...)``). The warm cache is shared, so
    dynamic points pay planning only for conditions not seen before.
    Infeasibility (either side) is carried in the point, never raised.

    With ``trace_dir`` set, every point additionally writes merged
    Chrome traces (engine events + the dynamic run's ``replan`` pipeline
    spans) into that directory under :func:`artifact_name` names — the
    model, policy, intensity and fault seed are all embedded, so
    parallel sweeps sharing one directory never overwrite each other.
    """
    from repro.pipeline.cache import CompileCache
    from repro.pipeline.compile import compile_run

    cache = cache if cache is not None else CompileCache()
    clean = compile_run(graph, policy, gpu, cache=cache)
    report = ReplanChaosReport(
        model=graph.name,
        policy=clean.result.policy,
        gpu=gpu.name,
        batch=clean.result.trace.batch if clean.result.feasible else 0,
        capacity_bytes=gpu.memory_bytes,
        iterations=iterations,
        fault_class=fault_class,
    )
    report.points = [
        replan_point(
            graph, policy, gpu, intensity, seed,
            iterations=iterations, fault_class=fault_class,
            emergency_eviction=emergency_eviction, replan=replan,
            trace_dir=trace_dir, cache=cache,
        )
        for intensity in intensities
        for seed in seeds
    ]
    return report


def replan_point(
    graph: Graph,
    policy,
    gpu: GPUSpec,
    intensity: float,
    seed: int,
    *,
    iterations: int = 4,
    fault_class: str = "mixed",
    emergency_eviction: bool = True,
    replan=True,
    trace_dir=None,
    cache: CompileCache | None = None,
) -> ReplanPoint:
    """One static-vs-dynamic comparison under one seeded fault schedule.

    The point of :func:`replan_chaos_sweep`; with ``trace_dir`` set it
    also writes the static and dynamic Chrome traces there.
    """
    from pathlib import Path

    from repro import telemetry
    from repro.pipeline.compile import compile_run
    from repro.runtime.observers import ChromeTraceObserver

    faults = fault_class_config(
        fault_class, intensity, seed,
        emergency_eviction=emergency_eviction,
    )
    static_obs: tuple = ()
    dynamic_obs: tuple = ()
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        static_obs = (ChromeTraceObserver(),)
        dynamic_obs = (ChromeTraceObserver(),)
    static = compile_run(
        graph, policy, gpu, cache=cache,
        iterations=iterations, faults=faults,
        observers=static_obs,
    )
    if trace_dir is None:
        dynamic = compile_run(
            graph, policy, gpu, cache=cache,
            iterations=iterations, faults=faults, replan=replan,
        )
    else:
        with telemetry.session(
            metrics=False, provenance=False, spans=True,
        ) as tel:
            dynamic = compile_run(
                graph, policy, gpu, cache=cache,
                iterations=iterations, faults=faults, replan=replan,
                observers=dynamic_obs,
            )
        policy_name = static.result.policy
        telemetry.write_trace(
            trace_dir / artifact_name(
                "chaos", graph.name, policy_name,
                intensity=intensity, seed=seed,
                suffix="static", ext="trace.json",
            ),
            telemetry.merge_traces(
                static_obs[0], names=["engine (static)"],
            ),
        )
        telemetry.write_trace(
            trace_dir / artifact_name(
                "chaos", graph.name, policy_name,
                intensity=intensity, seed=seed,
                suffix="dynamic", ext="trace.json",
            ),
            telemetry.merge_traces(
                dynamic_obs[0], tel.tracer,
                names=["engine (dynamic)", "pipeline"],
            ),
        )
    static_ok = static.result.feasible
    dynamic_ok = dynamic.result.feasible
    trace = dynamic.result.trace
    rep = dynamic.replan
    return ReplanPoint(
        intensity=intensity,
        seed=seed,
        static_feasible=static_ok,
        dynamic_feasible=dynamic_ok,
        static_time=(
            sum(static.executed.durations) if static_ok else 0.0
        ),
        dynamic_time=(
            sum(dynamic.executed.durations) if dynamic_ok else 0.0
        ),
        static_failure=static.result.failure,
        dynamic_failure=dynamic.result.failure,
        replans=rep.replans if rep else 0,
        reverts=rep.reverts if rep else 0,
        pressure_events=len(rep.events) if rep else 0,
        recovery_actions=trace.recovery_actions if dynamic_ok else 0,
        stream_digest=rep.stream_digest() if rep else "",
    )

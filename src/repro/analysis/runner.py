"""Run one (graph, policy, GPU) configuration end to end.

Thin compatibility wrappers over the staged compilation pipeline
(:mod:`repro.pipeline`): profile → plan (policy) → lower (sTensor graph
generation) → execute (runtime engine). The result records feasibility:
a configuration is *infeasible* when the policy itself gives up
(:class:`~repro.errors.PlanningError` / :class:`~repro.errors.PolicyError`)
or when the engine runs out of device memory executing the plan.

Sweeps that repeat configurations should pass a shared
:class:`~repro.pipeline.CompileCache` so profiles and plans are reused
across calls; without one, every call compiles from scratch (the
pre-pipeline behaviour).
"""

from __future__ import annotations

from repro.core.augment import AugmentOptions
from repro.core.profiler import Profiler
from repro.graph.graph import Graph
from repro.hardware.gpu import GPUSpec
from repro.pipeline import CompileCache, EvalResult, compile_run
from repro.policies.base import MemoryPolicy
from repro.runtime.engine import EngineOptions
from repro.runtime.observers import EngineObserver

__all__ = ["EvalResult", "build_graph", "evaluate", "run_iterations", "run_policy"]


def run_policy(
    graph: Graph,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    *,
    augment_options: AugmentOptions | None = None,
    engine_options: EngineOptions | None = None,
    profiler: Profiler | None = None,
    observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
    cache: CompileCache | None = None,
) -> EvalResult:
    """Plan, augment and execute; never raises for capacity failures.

    ``observers`` are attached to the engine run (e.g. a
    :class:`~repro.runtime.observers.ChromeTraceObserver` for the CLI's
    ``trace`` command).
    """
    return compile_run(
        graph, policy, gpu,
        cache=cache,
        profiler=profiler,
        augment_options=augment_options,
        engine_options=engine_options,
        observers=observers,
    ).result


def run_iterations(
    graph: Graph,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    iterations: int,
    *,
    augment_options: AugmentOptions | None = None,
    profiler: Profiler | None = None,
    cache: CompileCache | None = None,
) -> tuple[list[float], EvalResult]:
    """Plan once, execute ``iterations`` back-to-back iterations.

    Returns the per-iteration durations (warm-up visible in the first
    entries) plus an :class:`EvalResult` whose trace aggregates the whole
    run. Infeasible configurations return an empty duration list.
    """
    compiled = compile_run(
        graph, policy, gpu,
        cache=cache,
        profiler=profiler,
        augment_options=augment_options,
        iterations=iterations,
    )
    durations = compiled.executed.durations if compiled.executed else []
    return durations, compiled.result


def build_graph(
    model_builder, batch: int, *, param_scale: float = 1.0, **overrides,
) -> Graph:
    """Build a model at one (batch, param_scale) point.

    ``model_builder`` is either a registry name or a callable with the
    registry signature ``(batch, *, param_scale=..., **overrides)``.
    """
    if isinstance(model_builder, str):
        from repro.models.registry import build_model

        return build_model(
            model_builder, batch, param_scale=param_scale, **overrides,
        )
    return model_builder(batch, param_scale=param_scale, **overrides)


def evaluate(
    model_builder,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    batch: int,
    *,
    param_scale: float = 1.0,
    augment_options: AugmentOptions | None = None,
    engine_options: EngineOptions | None = None,
    observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
    cache: CompileCache | None = None,
    **model_overrides,
) -> EvalResult:
    """Build the model at the given scale and run one policy on it."""
    return run_policy(
        build_graph(
            model_builder, batch, param_scale=param_scale, **model_overrides,
        ),
        policy, gpu,
        augment_options=augment_options,
        engine_options=engine_options,
        observers=observers,
        cache=cache,
    )

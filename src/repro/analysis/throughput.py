"""Throughput sweeps over sample size (Figures 12, 13, 15).

For each (policy, batch) point the sweep runs the full pipeline and
records throughput in samples/second; infeasible points are kept in the
series (throughput 0) so crossover and drop-out batch sizes are visible,
exactly as the paper's figures show policies "failing to run".
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.analysis.parallel import sweep
from repro.analysis.runner import evaluate
from repro.hardware.gpu import GPUSpec
from repro.pipeline import CompileCache
from repro.runtime.engine import EngineOptions


@dataclass(frozen=True)
class SweepPoint:
    """One (policy, batch) measurement."""

    policy: str
    batch: int
    feasible: bool
    throughput: float       # samples / second
    iteration_time: float   # seconds
    pcie_utilization: float
    peak_memory: int
    failure: str = ""


def throughput_point(
    model: str | Callable,
    policy: str,
    batch: int,
    gpu: GPUSpec,
    *,
    param_scale: float = 1.0,
    cache: CompileCache | None = None,
    **overrides,
) -> SweepPoint:
    """Measure one (policy, batch) point; infeasibility is kept, not raised."""
    result = evaluate(
        model, policy, gpu, batch,
        param_scale=param_scale,
        engine_options=EngineOptions(record_trace=False),
        cache=cache,
        **overrides,
    )
    if result.feasible and result.trace is not None:
        trace = result.trace
        return SweepPoint(
            policy=policy,
            batch=batch,
            feasible=True,
            throughput=trace.throughput,
            iteration_time=trace.iteration_time,
            pcie_utilization=trace.pcie_utilization,
            peak_memory=trace.peak_memory,
        )
    return SweepPoint(
        policy=policy,
        batch=batch,
        feasible=False,
        throughput=0.0,
        iteration_time=float("inf"),
        pcie_utilization=0.0,
        peak_memory=0,
        failure=result.failure,
    )


def throughput_sweep(
    model: str | Callable,
    policies: Sequence[str],
    batches: Sequence[int],
    gpu: GPUSpec,
    *,
    param_scale: float = 1.0,
    parallel: int | bool | None = None,
    backend: str | None = None,
    cache: CompileCache | None = None,
    cache_dir: str | None = None,
    **overrides,
) -> list[SweepPoint]:
    """Measure throughput of each policy at each sample size.

    Points are independent; ``parallel=`` fans them out over the chosen
    ``backend`` (threads by default; ``"process"`` sidesteps the GIL for
    compute-bound sweeps but requires a picklable ``model``: a registry
    name or a module-level builder). With threads the shared ``cache``
    (created by ``sweep`` when not supplied) means each batch size is
    profiled once, not once per policy; with processes the same sharing
    goes through the ``cache_dir`` disk tier.
    Point order and values are identical across backends.
    """
    points = [
        functools.partial(
            throughput_point, model, policy, batch, gpu,
            param_scale=param_scale, **overrides,
        )
        for policy in policies
        for batch in batches
    ]
    return sweep(
        points, parallel, backend=backend, cache=cache, cache_dir=cache_dir,
    )


def speedups_over(
    points: list[SweepPoint], reference_policy: str,
) -> dict[tuple[str, int], float]:
    """Per-(policy, batch) speedup relative to a reference policy.

    Matches the paper's Figure 12 y-axis ("speedup over vDNN"). Points
    where the reference is infeasible are omitted.
    """
    reference = {
        p.batch: p.throughput
        for p in points
        if p.policy == reference_policy and p.feasible and p.throughput > 0
    }
    speedups: dict[tuple[str, int], float] = {}
    for point in points:
        base = reference.get(point.batch)
        if base and point.feasible:
            speedups[(point.policy, point.batch)] = point.throughput / base
    return speedups

"""Memory over-subscription sweeps.

The paper frames its headline results "under the same memory
over-subscription" — the ratio of a workload's unoptimised requirement
to the device capacity. This module fixes the workload and shrinks the
device, tracing each policy's throughput as over-subscription deepens:
where does it degrade, and where does it die? (The complementary view to
Tables IV/V, which fix the device and grow the workload.)
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.parallel import sweep
from repro.analysis.runner import run_policy
from repro.graph.graph import Graph
from repro.graph.liveness import peak_memory
from repro.graph.scheduler import dfs_schedule
from repro.hardware.gpu import GPUSpec
from repro.pipeline import CompileCache
from repro.policies.base import MemoryPolicy
from repro.runtime.engine import EngineOptions


@dataclass(frozen=True)
class OversubscriptionPoint:
    """One (policy, over-subscription ratio) measurement."""

    policy: str
    ratio: float          # requirement / capacity (>= 1 means pressure)
    capacity: int
    feasible: bool
    throughput: float
    slowdown_vs_full: float  # iteration time / unconstrained iteration time


def _policy_name(policy: str | MemoryPolicy) -> str:
    return policy if isinstance(policy, str) else policy.name


def capacity_run(
    graph: Graph,
    policy: str | MemoryPolicy,
    gpu: GPUSpec,
    capacity: int,
    *,
    cache: CompileCache | None = None,
) -> tuple[bool, float, float]:
    """``(feasible, throughput, iteration_time)`` on a resized device."""
    result = run_policy(
        graph, policy, gpu.with_memory(capacity),
        engine_options=EngineOptions(record_trace=False), cache=cache,
    )
    return result.feasible, result.throughput, result.iteration_time


def oversubscription_sweep(
    graph: Graph,
    policies: Sequence[str | MemoryPolicy],
    gpu: GPUSpec,
    ratios: Sequence[float] = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0),
    *,
    parallel: int | bool | None = None,
    backend: str | None = None,
    cache: CompileCache | None = None,
    cache_dir: str | None = None,
) -> list[OversubscriptionPoint]:
    """Measure each policy as the device shrinks below the requirement.

    ``ratio`` r means capacity = requirement / r: r=1 exactly fits the
    unoptimised execution, r=2 halves the device.

    The shrunk devices differ only in capacity, which the pipeline's
    profile keys ignore — with the shared ``cache`` (thread/serial
    backends) the graph is profiled exactly once for the whole sweep and
    each run re-plans against the cached profile; ``backend="process"``
    gets the same sharing through the ``cache_dir`` disk tier (the graph
    travels to the workers by pickle).
    """
    requirement = peak_memory(graph, dfs_schedule(graph))
    # One fan-out: each policy's unconstrained reference run (a device
    # big enough for it), then every shrunk-capacity run.
    big_capacity = int(requirement * 1.2)
    cells = [
        (policy, ratio, max(1, int(requirement / ratio)))
        for policy in policies
        for ratio in ratios
    ]
    runs = sweep(
        [
            functools.partial(capacity_run, graph, policy, gpu, big_capacity)
            for policy in policies
        ] + [
            functools.partial(capacity_run, graph, policy, gpu, capacity)
            for policy, _, capacity in cells
        ],
        parallel, backend=backend, cache=cache, cache_dir=cache_dir,
    )
    reference = {
        _policy_name(policy): seconds
        for policy, (_, _, seconds) in zip(policies, runs)
    }
    points = []
    for (policy, ratio, capacity), (feasible, throughput, seconds) in zip(
        cells, runs[len(policies):],
    ):
        reference_time = reference[_policy_name(policy)]
        points.append(OversubscriptionPoint(
            policy=_policy_name(policy),
            ratio=ratio,
            capacity=capacity,
            feasible=feasible,
            throughput=throughput,
            slowdown_vs_full=(
                seconds / reference_time
                if feasible and reference_time not in (0.0, float("inf"))
                else float("inf")
            ),
        ))
    return points


def survival_ratio(
    points: list[OversubscriptionPoint], policy: str,
) -> float:
    """Deepest over-subscription ratio a policy survived (0 if none)."""
    feasible = [p.ratio for p in points if p.policy == policy and p.feasible]
    return max(feasible, default=0.0)

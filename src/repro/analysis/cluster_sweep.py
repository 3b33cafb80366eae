"""Cluster sweeps: rank-count scaling over picklable point calls.

Every point of a cluster sweep is a ``functools.partial`` of
:func:`cluster_point` naming the model, the parallelism mode and the
cluster shape — never a closure — so the serial, thread and process
backends of :func:`cluster_sweep` produce byte-identical point lists
(``canonical_point_bytes`` compares them in tests and benchmarks).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.analysis.parallel import sweep
from repro.hardware.gpu import GPUSpec
from repro.pipeline import CompileCache


@dataclass(frozen=True)
class ClusterPoint:
    """The flattened outcome of one cluster simulation point."""

    model: str
    policy: str
    mode: str
    world: int
    batch: int
    feasible: bool
    makespan: float = 0.0
    throughput: float = 0.0
    per_rank_peak: tuple[int, ...] = ()
    comm_busy: tuple[float, ...] = ()
    collective_bytes: tuple[int, ...] = ()
    failure: str = ""


def cluster_point(
    model: str,
    policy: str,
    batch: int,
    gpu: GPUSpec,
    world: int,
    *,
    mode: str = "dp",
    micros: int | None = None,
    link: str = "nvlink",
    param_scale: float = 1.0,
    cache: CompileCache | None = None,
) -> ClusterPoint:
    """Compile and execute one cluster point; never raises on OOM."""
    from repro.cluster import compile_cluster
    from repro.errors import OutOfMemoryError
    from repro.hardware.cluster import ClusterSpec

    cluster = ClusterSpec.homogeneous(gpu, world, link=link)
    compiled = compile_cluster(
        model, batch, policy, cluster,
        mode=mode, micros=micros, cache=cache, param_scale=param_scale,
    )
    if not compiled.feasible:
        return ClusterPoint(
            model=model, policy=policy, mode=mode,
            world=world, batch=batch, feasible=False,
            failure=compiled.failure,
        )
    try:
        trace = compiled.execute()
    except OutOfMemoryError as exc:
        # Policies without a planning-time capacity check (e.g. base)
        # surface infeasibility at run time; report it like evaluate().
        return ClusterPoint(
            model=model, policy=policy, mode=mode,
            world=world, batch=batch, feasible=False,
            failure=str(exc),
        )
    return ClusterPoint(
        model=model, policy=policy, mode=mode,
        world=world, batch=batch, feasible=True,
        makespan=trace.makespan, throughput=trace.throughput,
        per_rank_peak=tuple(trace.per_rank_peak),
        comm_busy=tuple(trace.comm_busy),
        collective_bytes=tuple(trace.collective_bytes),
    )


@dataclass(frozen=True)
class ClusterSweepResult:
    """All points of one cluster sweep, in ``modes`` × ``worlds`` order."""

    points: list[ClusterPoint] = field(default_factory=list)

    def feasible(self) -> list[ClusterPoint]:
        """The points that compiled and executed."""
        return [point for point in self.points if point.feasible]


def cluster_sweep(
    model: str,
    policy: str,
    gpu: GPUSpec,
    batch: int,
    *,
    worlds: tuple[int, ...] = (1, 2, 4),
    modes: tuple[str, ...] = ("dp",),
    micros: int | None = None,
    link: str = "nvlink",
    param_scale: float = 1.0,
    parallel: int | bool | None = None,
    backend: str | None = None,
    cache: CompileCache | None = None,
    cache_dir: str | None = None,
) -> ClusterSweepResult:
    """Sweep rank counts (and modes) for one model/policy configuration.

    Points run through :func:`~repro.analysis.parallel.sweep`, so
    ``backend`` may be ``"serial"``, ``"thread"`` or ``"process"``;
    result order always matches the ``modes`` × ``worlds`` order.
    """
    points = [
        functools.partial(
            cluster_point, model, policy, batch, gpu, world,
            mode=mode, micros=micros, link=link, param_scale=param_scale,
        )
        for mode in modes
        for world in worlds
    ]
    return ClusterSweepResult(points=sweep(
        points, parallel, backend=backend, cache=cache, cache_dir=cache_dir,
    ))

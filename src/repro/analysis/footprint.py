"""Memory-requirement analysis (Figures 1, 2a, 4).

Figure 1 plots the raw (un-optimised) training memory requirement of
BERT-Large over a (sample scale x parameter scale) grid, with per-GPU
trainability frontiers. These need only graph construction + liveness —
no execution — so full grids are cheap.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

from repro.analysis.parallel import parallel_map
from repro.analysis.runner import build_graph
from repro.graph.graph import Graph
from repro.graph.liveness import memory_curve
from repro.graph.scheduler import dfs_schedule
from repro.hardware.gpu import GPUSpec


def model_memory_requirement(graph: Graph) -> int:
    """Peak un-optimised training memory requirement, in bytes."""
    schedule = dfs_schedule(graph)
    curve = memory_curve(graph, schedule)
    return int(curve.max()) if len(curve) else 0


def _cell_requirement(
    builder: str | Callable[..., Graph],
    cell: tuple[int, float],
    **overrides,
) -> int:
    """Build one (batch, param_scale) grid cell and measure its peak."""
    batch, param_scale = cell
    return model_memory_requirement(
        build_graph(builder, batch, param_scale=param_scale, **overrides),
    )


def memory_requirement_grid(
    builder: str | Callable[..., Graph],
    sample_scales: Sequence[int],
    param_scales: Sequence[float],
    *,
    parallel: int | bool | None = None,
    backend: str | None = None,
    **overrides,
) -> dict[tuple[int, float], int]:
    """Peak memory for every (batch, param_scale) combination.

    ``builder`` is a registry model name or a callable following the
    registry signature ``(batch, *, param_scale=..., **overrides)``.
    Grid cells are independent (build + liveness, no execution) and fan
    out over the chosen ``backend`` with ``parallel=`` (use a registry
    name — or any picklable callable — with ``backend="process"``).
    """
    cells = [
        (batch, scale)
        for batch in sample_scales
        for scale in param_scales
    ]
    fn = functools.partial(_cell_requirement, builder, **overrides)
    return dict(zip(
        cells, parallel_map(fn, cells, parallel, backend=backend),
    ))


def max_trainable_scale(
    grid: dict[tuple[int, float], int],
    gpu: GPUSpec,
) -> list[tuple[int, float]]:
    """Grid points trainable without optimisation on a GPU (Figure 1's
    "below the black line" region)."""
    return sorted(
        key for key, peak in grid.items() if peak <= gpu.memory_bytes
    )

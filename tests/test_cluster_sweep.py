"""Cluster sweeps: point plumbing and cross-backend determinism."""

from __future__ import annotations

import pytest

from repro.analysis.cluster_sweep import cluster_point, cluster_sweep
from repro.analysis.parallel import canonical_point_bytes
from repro.hardware.gpu import GPU_PRESETS

V100 = GPU_PRESETS["v100_16gb"]

SWEEP_KWARGS = dict(
    worlds=(1, 2), modes=("dp", "zero_shard"),
)


def test_point_specs_flatten_cluster_traces():
    point = cluster_point("transformer", "base", 8, V100, 2)
    assert point.feasible, point.failure
    assert point.mode == "dp" and point.world == 2
    assert len(point.per_rank_peak) == 2
    assert point.throughput == pytest.approx(8 / point.makespan)


def test_infeasible_points_are_reported_not_raised():
    tiny = V100.with_memory(1 << 20)
    point = cluster_point("transformer", "base", 8, tiny, 2)
    assert not point.feasible
    assert point.failure
    assert point.per_rank_peak == ()


def test_sweep_covers_the_mode_world_grid():
    result = cluster_sweep(
        "transformer", "base", V100, 8, backend="serial", **SWEEP_KWARGS,
    )
    grid = [(point.mode, point.world) for point in result.points]
    assert grid == [
        ("dp", 1), ("dp", 2), ("zero_shard", 1), ("zero_shard", 2),
    ]
    assert result.feasible() == result.points


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backends_are_byte_identical_to_serial(backend):
    serial = cluster_sweep(
        "transformer", "base", V100, 8, backend="serial", **SWEEP_KWARGS,
    )
    other = cluster_sweep(
        "transformer", "base", V100, 8,
        parallel=2, backend=backend, **SWEEP_KWARGS,
    )
    assert canonical_point_bytes(other.points) == canonical_point_bytes(
        serial.points,
    )

"""Planner wall-time benchmark: decisions per second per configuration.

An infrastructure extension rather than a paper table: it tracks the
planning cost that bounds every sweep in EXPERIMENTS.md.

Times the TSPLIT greedy planner per (model, batch, GPU) configuration
and reports its decisions (greedy steps) and assignments (the
(tensor, config) pairs those steps set; a split group sets several).
A configuration that also appears in ``tests/data/planner_golden.json``
must plan to its golden decision and plan digests, or the benchmark
exits nonzero — so the CI smoke run fails on any plan drift. Results
land in ``BENCH_planner.json``.

Two sweep-infrastructure sections ride along:

* **serial vs process** — the same 8-point multi-model throughput sweep
  through the serial backend and a ``ProcessPoolExecutor`` (the planner
  and engine are pure Python, so this, not threads, is where sweep
  overlap comes from), asserting the point lists are byte-identical;
* **cold vs warm disk cache** — the sweep against a fresh persistent
  cache directory, then again with a new (empty-memory) cache on the
  same directory, proving via ``disk_hit``/``disk_miss`` counters that
  the warm run recomputed no profile or plan.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke    # CI-sized

Not a pytest benchmark: the point is a machine-readable artifact CI can
upload and compare across commits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.analysis.parallel import (  # noqa: E402
    canonical_point_bytes,
    sweep,
)
from repro.analysis.throughput import throughput_point  # noqa: E402
from repro.core.planner import TsplitPlanner  # noqa: E402
from repro.hardware.gpu import GPU_PRESETS  # noqa: E402
from repro.models.registry import build_model  # noqa: E402
from repro.pipeline import CompileCache  # noqa: E402
from tests.test_incremental_simulate import (  # noqa: E402
    GOLDEN_PATH,
    golden_entry,
    golden_id,
)

#: (model, batch, GPU preset). Batches are chosen so the raw graph
#: over-subscribes the device and the planner has real work to do.
FULL_MATRIX = [
    ("vgg16", 2048, "rtx_titan"),
    ("resnet50", 256, "v100_16gb"),
    ("resnet101", 512, "gtx_1080ti"),
    ("gpt", 64, "v100_16gb"),
    ("bert_large", 256, "v100_16gb"),
    ("inception_v4", 256, "v100_16gb"),
]

SMOKE_MATRIX = [
    ("vgg16", 512, "gtx_1080ti"),
    ("resnet50", 256, "v100_16gb"),
]

#: The 8-point multi-model sweep for the backend and disk-cache
#: sections: every point is feasible and compute-bound (profile + plan
#: + simulated execution), so the process backend has real work to
#: overlap and the warm disk-cache run has real work to skip.
SWEEP_POINTS = [
    ("resnet101", 128, "gtx_1080ti"),
    ("resnet101", 192, "gtx_1080ti"),
    ("resnet101", 256, "gtx_1080ti"),
    ("resnet152", 64, "v100_16gb"),
    ("resnet152", 128, "v100_16gb"),
    ("inception_v4", 64, "v100_16gb"),
    ("bert_large", 64, "v100_16gb"),
    ("bert_large", 128, "v100_16gb"),
]


def _sweep_points() -> list[functools.partial]:
    return [
        functools.partial(
            throughput_point, model, "tsplit", batch, GPU_PRESETS[gpu],
        )
        for model, batch, gpu in SWEEP_POINTS
    ]


def bench_sweep_backends(workers: int) -> dict:
    """Serial vs process backend over the 8-point sweep.

    Both runs start cold (fresh caches); the speedup therefore measures
    pure GIL-sidestepping overlap, bounded above by the CPU count —
    expect ~1x on a single-core container and >= 2x from 4 cores up.
    """
    points = _sweep_points()
    start = time.perf_counter()
    serial_points = sweep(points, backend="serial")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    process_points = sweep(points, workers, backend="process")
    process_s = time.perf_counter() - start

    identical = (
        canonical_point_bytes(serial_points)
        == canonical_point_bytes(process_points)
    )
    if not identical:
        raise AssertionError(
            "process-backend sweep diverged from the serial point list"
        )
    return {
        "points": len(points),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_s": serial_s,
        "process_s": process_s,
        "process_speedup": serial_s / process_s if process_s > 0 else 0.0,
        "identical_across_backends": identical,
        "feasible_points": sum(p.feasible for p in serial_points),
    }


def bench_disk_cache() -> dict:
    """Cold vs warm persistent-cache run over the 8-point sweep.

    The warm run uses a fresh in-memory cache on the same directory, so
    every profile/plan lookup must come from disk: ``disk_misses == 0``
    proves no profile or plan was recomputed.
    """
    cache_dir = tempfile.mkdtemp(prefix="bench-planner-cache-")
    try:
        points = _sweep_points()
        start = time.perf_counter()
        cold_points = sweep(
            points, backend="serial", cache=CompileCache(disk_dir=cache_dir),
        )
        cold_s = time.perf_counter() - start

        warm_cache = CompileCache(disk_dir=cache_dir)
        start = time.perf_counter()
        warm_points = sweep(points, backend="serial", cache=warm_cache)
        warm_s = time.perf_counter() - start

        stats = warm_cache.cache_stats()
        if stats["disk_misses"] != 0 or stats["disk_hits"] < 2 * len(points):
            raise AssertionError(
                f"warm run was expected to serve every profile/plan from "
                f"disk, got {stats}"
            )
        if canonical_point_bytes(cold_points) != canonical_point_bytes(
            warm_points
        ):
            raise AssertionError("warm sweep diverged from the cold run")
        return {
            "points": len(points),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else 0.0,
            "warm_disk_hits": stats["disk_hits"],
            "warm_disk_misses": stats["disk_misses"],
            "all_profile_plan_from_disk": True,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench_config(
    model: str, batch: int, gpu_name: str, repeats: int, golden: dict,
) -> dict:
    """Time one configuration: the best of ``repeats`` planning runs (the
    minimum is the least load-contaminated sample).

    ``golden_match`` is None when the configuration has no golden entry.
    """
    graph = build_model(model, batch)
    gpu = GPU_PRESETS[gpu_name]
    best = float("inf")
    for _ in range(repeats):
        planner = TsplitPlanner(gpu)
        start = time.perf_counter()
        result = planner.plan(graph)
        best = min(best, time.perf_counter() - start)
    entry = golden_entry(result)
    expected = golden.get(golden_id(model, batch, gpu_name, 1.0))
    decisions = len(result.decisions)
    return {
        "model": model,
        "batch": batch,
        "gpu": gpu_name,
        "ops": len(graph.ops),
        "decisions": decisions,
        "assignments": sum(len(d.configs) for d in result.decisions),
        "peak_memory": result.peak_memory,
        "plan_s": best,
        "decisions_per_sec": decisions / best if best > 0 else 0.0,
        "plan_digest": entry["plan_digest"],
        "golden_match": None if expected is None else entry == expected,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast matrix for CI (seconds, not minutes)")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing runs per config (default: 1 for --smoke, 2 otherwise)")
    parser.add_argument("--out", default="BENCH_planner.json")
    parser.add_argument(
        "--sweep-workers", type=int, default=0, metavar="N",
        help="process-pool size for the sweep section "
             "(default: min(8, cpu count))")
    parser.add_argument(
        "--skip-sweep", action="store_true",
        help="planner matrix only; skip the backend + disk-cache sections")
    args = parser.parse_args(argv)

    matrix = SMOKE_MATRIX if args.smoke else FULL_MATRIX
    repeats = args.repeats or (1 if args.smoke else 2)

    golden = json.loads(GOLDEN_PATH.read_text())
    check = {None: "", True: " golden ok", False: " GOLDEN MISMATCH"}
    results = []
    for model, batch, gpu_name in matrix:
        entry = bench_config(model, batch, gpu_name, repeats, golden)
        results.append(entry)
        print(
            f"{model:14s} b={batch:<5d} {gpu_name:12s} "
            f"decisions={entry['decisions']:4d} "
            f"assignments={entry['assignments']:5d} "
            f"{entry['plan_s']:.2f}s "
            f"({entry['decisions_per_sec']:.0f}/s)"
            f"{check[entry['golden_match']]}",
            flush=True,
        )

    mismatches = [
        f"{e['model']} b={e['batch']} {e['gpu']}"
        for e in results if e["golden_match"] is False
    ]
    payload = {
        "benchmark": "planner",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "results": results,
        "summary": {
            "golden_checked": sum(e["golden_match"] is not None for e in results),
            "golden_mismatches": mismatches,
        },
    }

    if not args.skip_sweep:
        workers = args.sweep_workers or min(8, os.cpu_count() or 1)
        backends = bench_sweep_backends(workers)
        print(
            f"\nsweep backends: {backends['points']} points, "
            f"serial {backends['serial_s']:.2f}s, "
            f"process[{workers}] {backends['process_s']:.2f}s "
            f"({backends['process_speedup']:.2f}x, "
            f"{backends['cpu_count']} cpus), identical point lists",
            flush=True,
        )
        disk = bench_disk_cache()
        print(
            f"disk cache:     cold {disk['cold_s']:.2f}s, "
            f"warm {disk['warm_s']:.2f}s "
            f"({disk['warm_speedup']:.2f}x; {disk['warm_disk_hits']} disk "
            f"hits, {disk['warm_disk_misses']} disk misses — every "
            f"profile/plan served from disk)",
            flush=True,
        )
        payload["sweep"] = {"backends": backends, "disk_cache": disk}

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if mismatches:
        print(f"plans differ from {GOLDEN_PATH.name}: {', '.join(mismatches)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

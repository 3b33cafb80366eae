"""Multi-GPU cluster benchmark: rank scaling across parallelism modes.

An infrastructure extension rather than a paper table: the TSPLIT paper
is single-GPU, but its planner co-planning each rank of a simulated
cluster is what the cluster subsystem exists for. Three sections:

* **scaling** — per-rank peak memory and step time versus rank count
  for data-parallel, multi-rank ZeRO sharding and 1F1B pipeline modes,
  with TSPLIT planning every rank (the per-rank batch is held constant,
  so ranks add throughput, not relief);
* **zero_shard_vs_offload** — 4-rank ZeRO sharding against the paper's
  single-GPU ``zero_offload`` baseline on ``gpt`` at the same per-rank
  batch, asserting the sharded ranks peak *lower* than the offload rank
  (shards stay on device yet beat streaming the full state over PCIe);
* **tsplit_admission** — a data-parallel batch that OOMs under the
  ``base`` policy on every rank but trains once TSPLIT co-plans
  split/swap/recompute per rank, asserting the admission.

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed.py          # full
    PYTHONPATH=src python benchmarks/bench_distributed.py --smoke  # CI-sized

Not a pytest benchmark: the point is a machine-readable artifact
(``BENCH_distributed.json``) CI can upload and compare across commits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.cluster_sweep import cluster_point  # noqa: E402
from repro.analysis.runner import evaluate  # noqa: E402
from repro.hardware.gpu import GPU_PRESETS  # noqa: E402
from repro.pipeline import CompileCache  # noqa: E402

#: (model, per-rank batch) for the scaling matrix. Batches match the
#: regimes BENCH_planner.json exercises, scaled down to per-rank size.
FULL_MODELS = [("bert_large", 32), ("gpt", 2)]
SMOKE_MODELS = [("transformer", 8)]

MODES = ("dp", "zero_shard", "pp")


def bench_scaling(
    models, worlds, gpu_name: str, cache: CompileCache,
) -> list[dict]:
    """Per-rank peak and step time versus rank count, TSPLIT per rank."""
    rows: list[dict] = []
    gpu = GPU_PRESETS[gpu_name]
    for model, per_rank in models:
        for mode in MODES:
            for world in worlds:
                started = time.perf_counter()
                point = cluster_point(
                    model, "tsplit", per_rank * world, gpu, world,
                    mode=mode, cache=cache,
                )
                wall = time.perf_counter() - started
                row = {
                    "model": model,
                    "mode": mode,
                    "world": world,
                    "per_rank_batch": per_rank,
                    "gpu": gpu_name,
                    "feasible": point.feasible,
                    "compile_wall_s": wall,
                }
                if point.feasible:
                    row.update({
                        "step_time_s": point.makespan,
                        "throughput": point.throughput,
                        "per_rank_peak": max(point.per_rank_peak),
                        "comm_busy_s": max(point.comm_busy),
                        "collective_gb": max(point.collective_bytes) / 1e9,
                    })
                else:
                    row["failure"] = point.failure
                rows.append(row)
                status = (
                    f"{row.get('step_time_s', 0) * 1e3:7.1f} ms "
                    f"peak={row.get('per_rank_peak', 0) / 2**30:5.2f} GiB"
                    if point.feasible else "INFEASIBLE"
                )
                print(
                    f"{model:12s} {mode:10s} world={world}  {status}",
                    flush=True,
                )
    return rows


def bench_zero_vs_offload(
    gpu_name: str, per_rank: int, cache: CompileCache,
) -> dict:
    """4-rank ZeRO sharding vs the single-GPU zero_offload baseline."""
    gpu = GPU_PRESETS[gpu_name]
    offload = evaluate("gpt", "zero_offload", gpu, per_rank, cache=cache)
    if not offload.feasible or offload.trace is None:
        raise AssertionError(
            f"zero_offload baseline infeasible: {offload.failure}"
        )
    sharded = cluster_point(
        "gpt", "tsplit", per_rank * 4, gpu, 4,
        mode="zero_shard", cache=cache,
    )
    if not sharded.feasible:
        raise AssertionError(f"zero_shard infeasible: {sharded.failure}")
    offload_peak = offload.trace.peak_memory
    shard_peak = max(sharded.per_rank_peak)
    if shard_peak >= offload_peak:
        raise AssertionError(
            f"4-rank zero_shard peak {shard_peak} should undercut "
            f"1-rank zero_offload peak {offload_peak}"
        )
    return {
        "model": "gpt",
        "gpu": gpu_name,
        "per_rank_batch": per_rank,
        "zero_offload_peak": offload_peak,
        "zero_shard_world": 4,
        "zero_shard_peak": shard_peak,
        "shard_undercuts_offload": True,
    }


def bench_tsplit_admission(gpu_name: str, cache: CompileCache) -> dict:
    """A per-rank batch only TSPLIT co-planning admits."""
    gpu = GPU_PRESETS[gpu_name]
    config = dict(
        model="bert_large", batch=512, gpu=gpu, world=2, mode="dp",
    )
    base = cluster_point(policy="base", **config, cache=cache)
    tsplit = cluster_point(policy="tsplit", **config, cache=cache)
    if base.feasible:
        raise AssertionError(
            "expected the base policy to OOM at batch 512 on 2 ranks"
        )
    if not tsplit.feasible:
        raise AssertionError(
            f"TSPLIT should admit the batch base OOMs on: {tsplit.failure}"
        )
    return {
        "model": "bert_large",
        "gpu": gpu_name,
        "world": 2,
        "global_batch": 512,
        "base_feasible": False,
        "base_failure": base.failure,
        "tsplit_feasible": True,
        "tsplit_step_time_s": tsplit.makespan,
        "tsplit_per_rank_peak": max(tsplit.per_rank_peak),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized matrix (one small model, 2 ranks)")
    parser.add_argument("--out", default="BENCH_distributed.json")
    args = parser.parse_args()

    cache = CompileCache()
    models = SMOKE_MODELS if args.smoke else FULL_MODELS
    worlds = (1, 2) if args.smoke else (1, 2, 4)

    scaling = bench_scaling(models, worlds, "v100_16gb", cache)

    zero = bench_zero_vs_offload("v100_16gb", 2, cache)
    print(
        f"\nzero_shard x4 peak {zero['zero_shard_peak'] / 2**30:.2f} GiB "
        f"< zero_offload peak {zero['zero_offload_peak'] / 2**30:.2f} GiB",
        flush=True,
    )

    admission = bench_tsplit_admission("v100_16gb", cache)
    print(
        f"tsplit admits bert_large b={admission['global_batch']} on "
        f"{admission['world']} ranks (base: OOM) at "
        f"{admission['tsplit_step_time_s'] * 1e3:.1f} ms/step",
        flush=True,
    )

    payload = {
        "benchmark": "distributed",
        "smoke": args.smoke,
        "scaling": scaling,
        "zero_shard_vs_offload": zero,
        "tsplit_admission": admission,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    feasible = sum(1 for row in scaling if row["feasible"])
    print(
        f"\nwrote {args.out}: {feasible}/{len(scaling)} scaling points "
        f"feasible, both cluster claims hold",
        flush=True,
    )


if __name__ == "__main__":
    main()

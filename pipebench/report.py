"""Run every workload untraced and traced, and print one report.

Usage (from the repository root)::

    python3 pipebench/report.py [--seed 1]

For every workload in ``BENCHMARK.json``, each run ``run_seconds`` long:
every end-to-end metric with its unit and direction (from the untraced
run with ``--seed``), the per-layer table from the traced run (with
``--seed`` + 1), and the tracing overhead, the traced minus the
untraced ``ops_per_s``. The two runs differ in seed and tracing, so
their per-op digest sets must be equal. Exits non-zero if a run fails,
reports incorrect output, or the digest sets differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import TIMED_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".pipebench_out"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of ``run.py``; returns its result line and details."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} trace={trace} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    result["record"] = json.loads((OUT / f"{stem}.json").read_text())
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    arrows = {"higher": "higher is better", "lower": "lower is better"}
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, args.seed, spec["run_seconds"], 0)
        traced = run(workload, args.seed + 1, spec["run_seconds"], 1)
        issues = plain["record"]["issues"] + traced["record"]["issues"]
        ours, theirs = (set(plain["record"]["digests"]),
                        set(traced["record"]["digests"]))
        if ours != theirs:
            issues.append(
                f"per-op digests of the untraced and traced runs differ: "
                f"{sorted(ours ^ theirs)[:2]}")
        correct &= plain["correct"] and traced["correct"] and ours == theirs
        details = plain["record"]["details"]
        print(f"== {workload} (seed {args.seed}; traced run seed "
              f"{args.seed + 1}) ==")
        print(f"{'metric':28s} {'value':>14s}  unit")
        for metric in spec["end_to_end"]:
            value = plain["metrics"][metric["name"]]["value"]
            print(f"{metric['name']:28s} {value:14.6g}  {metric['unit']:14s}"
                  f" {arrows[metric['better']]}, bound {metric['bound']}")
        print(f"ops {details['ops']} in {details['passes']} pass(es), "
              f"failed {details['failed']}, op_ms_tail = "
              f"p{details['tail_percentile']:.1f} of {details['tail_n']}")
        print(f"verdicts {details['verdicts']}")
        for message, count in details["errors"].items():
            print(f"  error x{count}: {message[:150]}")
        for op in details["timeouts"]:
            print(f"  no verdict before the deadline: {op}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"\n{'layer (traced run)':36s} {'calls/op':>9s} {'ms/op':>9s} "
              f"{'self ms/op':>10s} {'p50 ms':>9s} {'tail ms':>9s}")
        for layer in TIMED_LAYERS:
            if layers[f"{layer}.calls"]:
                print(f"{layer:36s} {layers[f'{layer}.calls']:9.3g}", *(
                    f"{layers[f'{layer}.{field}']:{width}.3f}"
                    for field, width in (("ms", 9), ("self_ms", 10),
                                         ("p50_ms", 9), ("tail_ms", 9))))
        for metric in spec["per_layer"]:
            if metric["name"].rpartition(".")[0] not in TIMED_LAYERS:
                print(f"{metric['name']:36s} {layers[metric['name']]:12.6g} "
                      f"{metric['unit']}")
        untraced = plain["metrics"]["ops_per_s"]["value"]
        overhead = layers["bench.traced_ops_per_s"] - untraced
        print(f"tracing overhead: traced - untraced ops_per_s = "
              f"{overhead:+.4g} 1/s ({overhead / untraced:+.1%})")
        for issue in issues:
            print(f"  CHECK FAILED: {issue}")
        print()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the pipeline benchmark and print its metrics.

Usage (from the repository root)::

    python3 pipebench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with every layer wrapped and reports the per-layer
metrics instead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable summary. Details (tail percentile
and its sample count, verdict counts, exception messages, every op's
digest) go to ``.pipebench_out/`` in the repository root, the spans of
a traced run next to them.

Exits 2 without printing a result when the program's source is not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_table, median, tail, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench_out"

WORKLOADS = ("sweep_cold", "oversub_verdict", "serve_warm")


def end_to_end(run) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, and details for the record."""
    outcomes = run.outcomes
    n = len(outcomes)
    latencies_ms = [o.latency_s * 1e3 for o in outcomes]
    decided = sum(o.decided for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    feasible = [o for o in outcomes if o.feasible]
    throughputs = [o.throughput for o in feasible if o.throughput > 0]
    metrics = {
        "ops_per_s": decided / run.busy_s,
        "op_ms_p50": median(latencies_ms),
        "op_ms_tail": tail(latencies_ms),
        # Failed over attempted, floored at half an op per pass so that
        # it is never 0; a failure on a workload whose baseline has none
        # is also a check failure, so the floor hides nothing there.
        "error_rate": max(failed / n, 0.5 * run.passes / n),
        "decided_frac": decided / n,
        "setup_s": run.setup_s,
        "host_rss_mb": run.rss_mb,
        "sim_samples_per_s_geomean": (
            math.exp(sum(map(math.log, throughputs)) / len(throughputs))
            if throughputs else 0.0
        ),
        "feasible_frac": len(feasible) / n,
    }
    details = {
        "ops": n,
        "passes": run.passes,
        "failed": failed,
        "tail_percentile": tail_percentile(n),
        "tail_n": n,
        "verdicts": dict(sorted(Counter(o.verdict for o in outcomes).items())),
        "errors": dict(sorted(Counter(
            f"{o.op}: {o.error}" for o in outcomes if o.error).items())),
        "timeouts": sorted({o.op for o in outcomes if not o.decided}),
        "setup_samples_s": run.setup_samples,
        "busy_s": run.busy_s,
    }
    return metrics, details


def source_hash() -> str:
    """Hash of the program's and the benchmark's sources, so that stored
    digests are only ever compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digests(workload: str, digests: list[str], seed: int,
                  trace: int) -> list[str]:
    """Every run of a workload on the same sources, whatever its seed or
    tracing, must produce the same set of per-op digests."""
    path = OUT / f"{workload}.{source_hash()}.digests.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["digests"] != digests:
            ours, theirs = set(digests), set(previous["digests"])
            return [
                f"per-op digests differ from the run with seed "
                f"{previous['seed']} trace {previous['trace']}: "
                f"{len(ours - theirs)} new, {len(theirs - ours)} missing; "
                f"e.g. {sorted(ours ^ theirs)[:2]}"
            ]
        return []
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(
        {"seed": seed, "trace": trace, "digests": digests}, indent=1))
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import workloads  # imports the program, so only once it is on the path
    from harness import stop_resource_tracker

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        if args.workload == "serve_warm":
            run = workloads.run_serve_warm(
                args.seed, args.seconds, tracer, OUT)
        else:
            runner = getattr(workloads, f"run_{args.workload}")
            run = runner(args.seed, args.seconds, tracer)
    finally:
        stop_resource_tracker()

    metrics, details = end_to_end(run)
    digests = sorted({o.digest() for o in run.outcomes})
    issues = list(run.issues)
    issues += [issue for o in run.outcomes for issue in o.issues]
    issues += check_digests(args.workload, digests, args.seed, args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        verdicts = {o.op: o.verdict for o in run.outcomes}
        layers = layer_table(run.spans, len(run.outcomes), verdicts)
        layers.update(run.counters)
        layers["bench.traced_ops_per_s"] = metrics["ops_per_s"]
        wanted = spec["per_layer"]
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for span in run.spans:
                handle.write(json.dumps(span) + "\n")
    else:
        layers = {}
        wanted = spec["end_to_end"]
    values = metrics if not args.trace else layers
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"pipebench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    report = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "end_to_end": metrics, "per_layer": layers, "details": details,
        "issues": issues, "digests": digests,
        "ops": [[o.op, o.verdict, o.latency_s] for o in run.outcomes],
    }, indent=1))
    for m in wanted:
        arrow = {"higher": "↑", "lower": "↓"}.get(m.get("better"), "")
        print(f"{m['name']:48s} {values[m['name']]:14.6g} {m['unit']} {arrow}")
    print(f"ops {details['ops']} in {details['passes']} pass(es); verdicts "
          f"{details['verdicts']}; tail = p{details['tail_percentile']:.1f} "
          f"of {details['tail_n']}")
    for message, count in details["errors"].items():
        print(f"error x{count}: {message[:160]}")
    for issue in issues[:20]:
        print(f"CHECK FAILED: {issue}")
    print(json.dumps({
        "correct": not issues,
        "attempted": details["ops"],
        "failed": details["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

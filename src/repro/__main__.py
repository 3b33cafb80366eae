"""Command-line driver: run paper experiments without writing code.

Examples
--------
Run one configuration and print the trace::

    python -m repro run --model vgg16 --policy tsplit --batch 640

Search the maximum trainable batch::

    python -m repro scale --model resnet101 --policy superneurons

Sweep throughput across batch sizes::

    python -m repro sweep --model vgg16 --batches 64,128,256,512 \
        --policies base,vdnn_all,tsplit

Show the plan TSPLIT chooses::

    python -m repro plan --model vgg16 --batch 640 --gpu gtx_1080ti

Export a Chrome trace (open in chrome://tracing or ui.perfetto.dev)::

    python -m repro trace vgg16 tsplit --batch 256 --out trace.json

Explain every planner decision (provenance report)::

    python -m repro explain resnet152 --batch-size 256

Sweep fault intensity and report slowdown + recovery statistics::

    python -m repro chaos vgg16 --batch 256 --intensities 0,0.5,1,2 \
        --seeds 5 --capacity-frac 0.9 --json chaos.json
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.runner import evaluate
from repro.analysis.scaling import max_param_scale, max_sample_scale
from repro.analysis.throughput import throughput_sweep
from repro.core.planner import TsplitPlanner
from repro.graph.scheduler import dfs_schedule
from repro.hardware.gpu import GPU_PRESETS
from repro.models.registry import build_model, model_names
from repro.policies.base import POLICY_REGISTRY, get_policy
from repro.units import format_bytes


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="vgg16",
        help=f"model name ({', '.join(model_names())})",
    )
    parser.add_argument(
        "--gpu", default="rtx_titan",
        help=f"GPU preset ({', '.join(GPU_PRESETS)})",
    )
    parser.add_argument(
        "--param-scale", type=float, default=1.0,
        help="channel/hidden multiplier (paper's parameter scale)",
    )
    parser.add_argument(
        "--precision", choices=("fp32", "fp16"), default="fp32",
        help="activation precision (parameters stay fp32 masters)",
    )


def _gpu(name: str):
    try:
        return GPU_PRESETS[name]
    except KeyError:
        sys.exit(f"unknown GPU {name!r}; available: {', '.join(GPU_PRESETS)}")


def cmd_run(args: argparse.Namespace) -> None:
    """Execute one (model, policy, batch) configuration and report."""
    gpu = _gpu(args.gpu)
    result = evaluate(
        args.model, args.policy, gpu, args.batch,
        param_scale=args.param_scale, precision=args.precision,
    )
    if not result.feasible:
        print(f"INFEASIBLE: {result.failure}")
        sys.exit(1)
    trace = result.trace
    print(trace.describe())
    print(f"  compute busy:   {trace.compute_busy * 1e3:9.1f} ms "
          f"({trace.compute_utilization:.1%} of iteration)")
    print(f"  memory stall:   {trace.memory_stall * 1e3:9.1f} ms")
    print(f"  recompute:      {trace.recompute_time * 1e3:9.1f} ms "
          f"({trace.recompute_ops} chain ops)")
    print(f"  swapped out/in: {format_bytes(trace.swapped_out_bytes)} / "
          f"{format_bytes(trace.swapped_in_bytes)}")
    print(f"  split kernels:  {trace.split_kernels}")
    if result.plan is not None:
        graph = build_model(args.model, args.batch,
                            param_scale=args.param_scale)
        print(f"  plan: {result.plan.summary(graph)}")


def cmd_scale(args: argparse.Namespace) -> None:
    """Search the maximum trainable sample/parameter scale."""
    gpu = _gpu(args.gpu)
    if args.axis == "sample":
        value = max_sample_scale(
            args.model, args.policy, gpu,
            param_scale=args.param_scale, cap=args.cap,
            precision=args.precision,
        )
        print(f"max batch for {args.model} under {args.policy} "
              f"on {gpu.name}: {value if value else 'x (inapplicable)'}")
    else:
        value = max_param_scale(
            args.model, args.policy, gpu, cap=args.cap,
        )
        print(f"max parameter scale for {args.model} under {args.policy} "
              f"on {gpu.name}: {value if value else 'x (inapplicable)'}")


def cmd_serve(args: argparse.Namespace) -> None:
    """Boot the plan-serving daemon (planning-as-a-service).

    A long-lived HTTP server multiplexing concurrent JSON plan/run
    requests over one warm, shared CompileCache: admission control with
    per-tenant quotas, single-flight coalescing of identical in-flight
    compiles, and a bounded compile pool whose slots split the machine's
    worker budget. SIGINT/SIGTERM drain gracefully (in-flight work
    lands, new requests get 503).
    """
    import signal
    import threading

    from repro import telemetry
    from repro.serve import PlanHTTPServer, PlanService, ServeConfig

    if args.telemetry:
        telemetry.enable(metrics=True, spans=False, provenance=False)
    service = PlanService(ServeConfig(
        workers=args.workers,
        max_inflight=args.max_inflight,
        tenant_quota=args.tenant_quota,
        cache_dir=args.cache_dir or None,
        cache_entries=args.cache_entries,
    ))
    server = PlanHTTPServer(
        (args.host, args.port), service, quiet=not args.verbose,
    )
    print(f"repro serve listening on {server.url} "
          f"(workers={args.workers}, budget_share={service.budget_share}"
          f"{', cache_dir=' + args.cache_dir if args.cache_dir else ''})",
          file=sys.stderr)

    def _drain(signum, frame) -> None:
        print("draining in-flight requests ...", file=sys.stderr)
        threading.Thread(target=server.drain, daemon=True).start()

    signal.signal(signal.SIGINT, _drain)
    signal.signal(signal.SIGTERM, _drain)
    try:
        server.serve_forever()
    finally:
        service.close(drain=True)
        server.server_close()
        print("repro serve stopped", file=sys.stderr)


def cmd_sweep(args: argparse.Namespace) -> None:
    """Print a throughput table across batch sizes and policies.

    ``--parallel N --backend process`` fans points out over worker
    processes (the planner and engine are pure Python, so threads don't
    overlap compute); ``--cache-dir`` persists profiles and plans on
    disk so warm re-runs — and concurrent worker processes — skip
    recompilation. ``--cache-stats PATH`` writes the driver cache's
    hit/miss/disk counters as JSON (serial/thread backends only: worker
    processes keep their own caches, so the driver has no counters to
    report).
    """
    import json as json_module

    from repro.analysis.parallel import resolve_backend
    from repro.pipeline.cache import CompileCache

    gpu = _gpu(args.gpu)
    policies = args.policies.split(",")
    batches = [int(b) for b in args.batches.split(",")]
    for policy in policies:
        get_policy(policy)  # fail fast on typos
    backend = resolve_backend(args.backend, args.parallel)
    cache = None
    if args.cache_stats:
        if backend == "process":
            sys.exit("--cache-stats needs a driver-side cache; use "
                     "--backend serial or --backend thread (process "
                     "workers keep their own caches)")
        cache = CompileCache(disk_dir=args.cache_dir)
    points = throughput_sweep(
        args.model, policies, batches, gpu,
        param_scale=args.param_scale, precision=args.precision,
        parallel=args.parallel, backend=backend,
        cache=cache, cache_dir=args.cache_dir,
    )
    if args.cache_stats:
        stats = cache.cache_stats()
        with open(args.cache_stats, "w", encoding="utf-8") as handle:
            json_module.dump(stats, handle, indent=2)
            handle.write("\n")
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['disk_hits']} disk hits "
              f"(stats -> {args.cache_stats})", file=sys.stderr)
    width = max(len(p) for p in policies) + 2
    print("batch".rjust(8) + "".join(p.rjust(max(width, 12)) for p in policies))
    for batch in batches:
        row = f"{batch:8d}"
        for policy in policies:
            point = next(
                p for p in points if p.policy == policy and p.batch == batch
            )
            cell = f"{point.throughput:.1f}/s" if point.feasible else "OOM"
            row += cell.rjust(max(width, 12))
        print(row)


def cmd_plan(args: argparse.Namespace) -> None:
    """Run the TSPLIT planner and show its largest decisions."""
    gpu = _gpu(args.gpu)
    graph = build_model(
        args.model, args.batch,
        param_scale=args.param_scale, precision=args.precision,
    )
    planner = TsplitPlanner(gpu)
    result = planner.plan(graph, schedule=dfs_schedule(graph))
    print(result.describe())
    print(f"configured tensors: {len(result.plan.configs)}")
    for tid, cfg in sorted(
        result.plan.configs.items(),
        key=lambda kv: -graph.tensors[kv[0]].size_bytes,
    )[: args.top]:
        tensor = graph.tensors[tid]
        print(f"  {tensor.name:32s} {format_bytes(tensor.size_bytes):>10s}"
              f"  {cfg.describe()}")


def cmd_trace(args: argparse.Namespace) -> None:
    """Execute one configuration and export a Chrome trace-event file."""
    from repro.runtime.observers import ChromeTraceObserver

    gpu = _gpu(args.gpu)
    observer = ChromeTraceObserver()
    result = evaluate(
        args.model, args.policy, gpu, args.batch,
        param_scale=args.param_scale, precision=args.precision,
        observers=(observer,),
    )
    if not result.feasible:
        print(f"INFEASIBLE: {result.failure}")
        sys.exit(1)
    observer.write(args.out)
    trace = result.trace
    print(f"wrote {len(observer.events)} trace events to {args.out}")
    print(f"  iteration: {trace.iteration_time * 1e3:.1f} ms, "
          f"peak memory: {format_bytes(trace.peak_memory)}, "
          f"stall: {trace.memory_stall * 1e3:.1f} ms")


def cmd_explain(args: argparse.Namespace) -> None:
    """Compile one configuration with full telemetry and explain it.

    Runs the staged pipeline inside a telemetry session (metrics +
    spans + provenance), then renders the planner's decision record —
    every split/swap/recompute decision with its cost delta and
    peak-memory effect — as markdown (or JSON with ``--json``).
    ``--trace`` additionally writes a single Chrome-trace file merging
    the pipeline spans with the engine's execution events.
    ``--fault-intensity`` attaches seeded fault injection so the report
    surfaces the engine's recovery activity (retries, emergency
    evictions, refetched bytes). ``--memscope`` attaches the
    allocation-level observatory and embeds its per-tensor residency
    and address-space forensics section in the report.
    """
    import json as json_module

    from repro import telemetry
    from repro.analysis.report import explain_json, explain_markdown
    from repro.faults.chaos import intensity_config
    from repro.pipeline.cache import CompileCache
    from repro.pipeline.compile import compile_run
    from repro.runtime.observers import ChromeTraceObserver

    gpu = _gpu(args.gpu)
    graph = build_model(
        args.model, args.batch_size,
        param_scale=args.param_scale, precision=args.precision,
    )
    faults = None
    if args.fault_intensity:
        faults = intensity_config(args.fault_intensity, args.fault_seed)
    observer = ChromeTraceObserver()
    observers: list = [observer]
    scope = None
    if args.memscope:
        from repro.analysis.memscope import MemscopeObserver

        scope = MemscopeObserver()
        observers.append(scope)
    with telemetry.session() as tel:
        run = compile_run(
            graph, args.policy, gpu, observers=tuple(observers),
            cache=CompileCache(), faults=faults,
        )
        if args.trace:
            merged = telemetry.merge_traces(
                tel.tracer, observer,
                names=("compiler pipeline", "engine execution"),
            )
            telemetry.write_trace(args.trace, merged)
        if args.metrics:
            tel.metrics.write_jsonl(args.metrics)
    if not run.result.feasible:
        print(f"INFEASIBLE: {run.result.failure}")
        sys.exit(1)
    memscope_report = None
    if scope is not None:
        memscope_report = scope.report(
            gpu=gpu.name, policy=str(args.policy),
            feasible=run.result.feasible, failure=run.result.failure or "",
        )
    explanation = run.plan.plan.explanation
    trace = run.result.trace
    if explanation is None:
        print(f"(policy {args.policy!r} records no decision provenance; "
              f"only the tsplit planner explains its decisions)")
        if trace is not None:
            print(trace.describe())
        if memscope_report is not None:
            print(memscope_report.to_markdown(top=args.top))
    elif args.json:
        payload = explain_json(
            explanation, graph=graph, plan=run.plan.plan,
            trace=trace, top=args.top, memscope=memscope_report,
        )
        print(json_module.dumps(payload, indent=2))
    else:
        print(explain_markdown(
            explanation, graph=graph, plan=run.plan.plan,
            trace=trace, top=args.top, memscope=memscope_report,
        ))
    if args.trace:
        print(f"\nwrote merged Chrome trace to {args.trace}",
              file=sys.stderr)
    if args.metrics:
        print(f"wrote metrics JSONL to {args.metrics}", file=sys.stderr)


def cmd_chaos(args: argparse.Namespace) -> None:
    """Sweep fault intensity over one configuration and report.

    Runs the configuration clean, then across an intensity ladder ×
    seeds with fault injection attached; prints per-level slowdown and
    recovery statistics and optionally writes the full report as JSON.
    ``--capacity-frac`` shrinks the device below the preset to provoke
    the emergency-eviction path; ``--no-eviction`` disables graceful
    degradation so unrecoverable points surface as infeasible instead.

    ``--dynamic`` switches to the static-vs-replanning comparison
    (:func:`~repro.faults.chaos.replan_chaos_sweep`): every point runs
    twice over ``--iterations`` back-to-back iterations — once on the
    compile-time plan, once with the DELTA-style feedback loop attached
    — and the report shows per-intensity speedups, replan/revert counts
    and whether dynamic ever lost. ``--fault-class`` selects the
    isolated fault axis; ``--trace-dir`` writes collision-free
    per-point Chrome traces with the replan spans merged in.
    """
    import dataclasses
    import json as json_module

    from repro.faults.chaos import chaos_sweep, replan_chaos_sweep

    gpu = _gpu(args.gpu)
    if args.capacity_frac != 1.0:
        if args.capacity_frac <= 0:
            sys.exit(f"--capacity-frac must be > 0, got {args.capacity_frac}")
        gpu = dataclasses.replace(
            gpu,
            name=f"{gpu.name} (x{args.capacity_frac:g} capacity)",
            memory_bytes=int(gpu.memory_bytes * args.capacity_frac),
        )
    graph = build_model(
        args.model, args.batch,
        param_scale=args.param_scale, precision=args.precision,
    )
    if args.smoke:
        intensities: tuple[float, ...] = (0.0, 1.0)
        seed_count = 2
    else:
        try:
            intensities = tuple(
                float(x) for x in args.intensities.split(",") if x.strip()
            )
        except ValueError:
            sys.exit(f"bad --intensities list: {args.intensities!r}")
        seed_count = args.seeds
    if args.dynamic:
        if args.iterations < 2:
            sys.exit(
                f"--dynamic needs --iterations >= 2 (there are no "
                f"iteration boundaries to replan at), got {args.iterations}"
            )
        report = replan_chaos_sweep(
            graph, args.policy, gpu,
            intensities=intensities, seeds=tuple(range(seed_count)),
            iterations=args.iterations, fault_class=args.fault_class,
            emergency_eviction=not args.no_eviction,
            trace_dir=args.trace_dir or None,
        )
        failed = not report.points or not any(
            p.static_feasible for p in report.points
        )
    else:
        report = chaos_sweep(
            graph, args.policy, gpu,
            intensities=intensities, seeds=tuple(range(seed_count)),
            emergency_eviction=not args.no_eviction,
        )
        failed = not report.clean_feasible
    print(report.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote chaos report to {args.json}", file=sys.stderr)
    if failed:
        sys.exit(1)


def cmd_cluster(args: argparse.Namespace) -> None:
    """Simulate one configuration on an N-rank homogeneous cluster.

    Compiles the model under the chosen parallelism mode (``dp``
    gradient all-reduce, ``zero_shard`` multi-rank ZeRO sharding, ``pp``
    1F1B pipeline), runs all ranks under one global event clock, and
    prints per-rank peaks plus cluster aggregates. ``--trace`` writes a
    merged Chrome trace with one named process track per rank.
    """
    from repro import telemetry
    from repro.cluster import bubble_fraction, compile_cluster
    from repro.hardware.cluster import LINK_PRESETS, ClusterSpec
    from repro.pipeline.cache import CompileCache
    from repro.runtime.observers import ChromeTraceObserver

    gpu = _gpu(args.gpu)
    if args.link not in LINK_PRESETS:
        sys.exit(f"unknown link {args.link!r}; available: "
                 f"{', '.join(LINK_PRESETS)}")
    cluster = ClusterSpec.homogeneous(gpu, args.world, link=args.link)
    compiled = compile_cluster(
        args.model, args.batch, args.policy, cluster,
        mode=args.mode, micros=args.micros or None,
        cache=CompileCache(), param_scale=args.param_scale,
    )
    if not compiled.feasible:
        print(f"INFEASIBLE: {compiled.failure}")
        sys.exit(1)
    observers = None
    if args.trace:
        observers = [
            [ChromeTraceObserver(pid=rank)] for rank in range(args.world)
        ]
    trace = compiled.execute(observers=observers)
    micros = compiled.meta.get("micros")
    print(f"{trace.name}: {args.world}x {gpu.name} over "
          f"{cluster.intra_link.name} ({args.mode})")
    print(f"  makespan:       {trace.makespan * 1e3:9.1f} ms")
    print(f"  throughput:     {trace.throughput:9.1f} samples/s")
    for rank, rank_trace in enumerate(trace.ranks):
        print(f"  rank {rank}: peak {format_bytes(rank_trace.peak_memory):>10} "
              f"comm {trace.comm_busy[rank] * 1e3:7.1f} ms "
              f"collective {format_bytes(trace.collective_bytes[rank])}")
    if args.mode == "pp" and micros:
        print(f"  pipeline:       {args.world} stages x {micros} micros, "
              f"bubble fraction {bubble_fraction(args.world, micros):.1%}")
    if args.trace:
        merged = telemetry.merge_traces(
            *(obs[0] for obs in observers),
            names=[f"rank {r} ({gpu.name})" for r in range(args.world)],
        )
        telemetry.write_trace(args.trace, merged)
        print(f"\nwrote merged Chrome trace to {args.trace}",
              file=sys.stderr)


def cmd_memscope(args: argparse.Namespace) -> None:
    """Allocation-level memory observatory for one configuration.

    Runs the configuration with the memscope observer attached (a
    shadow address-space allocator driven from the engine's event
    stream) and prints the report: per-tensor residency, pool shape,
    and — when the run OOMs — the forensic postmortem (capacity vs
    fragmentation, blocking tensors, minimal eviction set). The
    executed plan and trace are byte-identical to an unobserved run;
    memscope only watches.

    ``--capacity-frac`` shrinks the device to provoke pressure;
    ``--trace`` writes one Perfetto file merging the engine's execution
    slices with memscope's address-space counter tracks; ``--heatmap``
    writes the address x time occupancy grid as JSON; ``--world N``
    switches to the cluster path with one shadow pool per rank. An
    infeasible run still exits 0 — the postmortem is the product.
    """
    import json as json_module

    from repro import telemetry
    from repro.analysis.memscope import run_memscope, run_memscope_cluster
    from repro.hardware.cluster import LINK_PRESETS, ClusterSpec
    from repro.pipeline.cache import CompileCache

    gpu = _gpu(args.gpu)
    if args.capacity_frac <= 0:
        sys.exit(f"--capacity-frac must be > 0, got {args.capacity_frac}")
    if args.world > 1:
        if args.link not in LINK_PRESETS:
            sys.exit(f"unknown link {args.link!r}; available: "
                     f"{', '.join(LINK_PRESETS)}")
        if args.capacity_frac != 1.0:
            import dataclasses

            gpu = dataclasses.replace(
                gpu,
                name=f"{gpu.name} (x{args.capacity_frac:g} capacity)",
                memory_bytes=int(gpu.memory_bytes * args.capacity_frac),
            )
        cluster = ClusterSpec.homogeneous(gpu, args.world, link=args.link)
        runs, cluster_trace = run_memscope_cluster(
            args.model, args.batch, args.policy, cluster,
            mode=args.mode, micros=args.micros or None,
            strategy=args.strategy, param_scale=args.param_scale,
            cache=CompileCache(),
        )
        if args.json:
            payload = {
                "cluster": cluster_trace.describe(),
                "ranks": [run.report.to_json() for run in runs],
            }
            print(json_module.dumps(payload, indent=2))
        else:
            print(cluster_trace.describe())
            for run in runs:
                print()
                print(run.report.to_markdown(top=args.top))
        if args.trace:
            merged = telemetry.merge_traces(
                *(run.chrome for run in runs),
                *(run.report.timeline.to_chrome_events() for run in runs),
                names=[
                    *(f"rank {r} ({gpu.name})" for r in range(args.world)),
                    *(f"rank {r} memscope" for r in range(args.world)),
                ],
            )
            telemetry.write_trace(args.trace, merged)
            print(f"\nwrote merged Chrome trace to {args.trace}",
                  file=sys.stderr)
        if args.heatmap:
            grids = [
                run.report.timeline.heatmap() for run in runs
            ]
            with open(args.heatmap, "w", encoding="utf-8") as handle:
                json_module.dump(grids, handle)
            print(f"wrote heatmaps to {args.heatmap}", file=sys.stderr)
        return
    run = run_memscope(
        args.model, args.policy, gpu, args.batch,
        param_scale=args.param_scale, precision=args.precision,
        capacity_frac=args.capacity_frac, strategy=args.strategy,
        cache=CompileCache(), with_chrome=bool(args.trace),
    )
    report = run.report
    if args.json:
        print(json_module.dumps(report.to_json(), indent=2))
    else:
        print(report.to_markdown(top=args.top))
    if args.trace:
        telemetry.write_trace(args.trace, run.merged_trace())
        print(f"\nwrote merged Chrome trace to {args.trace}",
              file=sys.stderr)
    if args.heatmap:
        with open(args.heatmap, "w", encoding="utf-8") as handle:
            json_module.dump(report.timeline.heatmap(), handle)
        print(f"wrote heatmap to {args.heatmap}", file=sys.stderr)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSPLIT reproduction experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute one configuration")
    _add_common(run_parser)
    run_parser.add_argument("--policy", default="tsplit",
                            help=f"policy ({', '.join(sorted(POLICY_REGISTRY) or ['tsplit', 'base', '...'])})")
    run_parser.add_argument("--batch", type=int, default=64)
    run_parser.set_defaults(func=cmd_run)

    scale_parser = sub.add_parser("scale", help="max trainable scale search")
    _add_common(scale_parser)
    scale_parser.add_argument("--policy", default="tsplit")
    scale_parser.add_argument("--axis", choices=("sample", "parameter"),
                              default="sample")
    scale_parser.add_argument("--cap", type=int, default=4096)
    scale_parser.set_defaults(func=cmd_scale)

    sweep_parser = sub.add_parser("sweep", help="throughput sweep")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--policies", default="base,vdnn_all,tsplit")
    sweep_parser.add_argument("--batches", default="64,128,256")
    sweep_parser.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="fan sweep points out over N workers (0 = serial)")
    sweep_parser.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="worker pool for --parallel: threads share one in-memory "
             "cache, processes sidestep the GIL and share via --cache-dir "
             "(default: thread when --parallel is set)")
    sweep_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist compiled profiles/plans as content-addressed files "
             "under DIR (e.g. ~/.cache/repro); warm re-runs and process "
             "workers reuse them")
    sweep_parser.add_argument(
        "--cache-stats", default="", metavar="PATH",
        help="write the driver cache's hit/miss/disk counters as JSON "
             "(serial/thread backends)")
    sweep_parser.set_defaults(func=cmd_sweep)

    serve_parser = sub.add_parser(
        "serve",
        help="boot the plan-serving daemon (JSON plan/run over HTTP)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8757,
                              help="listen port (0 = ephemeral)")
    serve_parser.add_argument(
        "--workers", type=int, default=4,
        help="compile worker slots (HTTP threads only wait; each slot "
             "gets an equal share of the machine worker budget)")
    serve_parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission cap on requests in flight (excess gets 429)")
    serve_parser.add_argument(
        "--tenant-quota", type=int, default=16,
        help="per-tenant in-flight cap")
    serve_parser.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="persist compiled profiles/plans under DIR (restarts and "
             "sweep workers share them)")
    serve_parser.add_argument(
        "--cache-entries", type=int, default=2048,
        help="in-memory LRU capacity of the shared compile cache")
    serve_parser.add_argument(
        "--no-telemetry", dest="telemetry", action="store_false",
        help="skip the metrics-only telemetry session (/stats then "
             "reports no telemetry counters)")
    serve_parser.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr")
    serve_parser.set_defaults(func=cmd_serve)

    plan_parser = sub.add_parser("plan", help="show TSPLIT's plan")
    _add_common(plan_parser)
    plan_parser.add_argument("--batch", type=int, default=64)
    plan_parser.add_argument("--top", type=int, default=15,
                             help="largest configured tensors to show")
    plan_parser.set_defaults(func=cmd_plan)

    trace_parser = sub.add_parser(
        "trace", help="export a Chrome trace-event JSON of one run",
    )
    trace_parser.add_argument("model",
                              help=f"model name ({', '.join(model_names())})")
    trace_parser.add_argument("policy",
                              help=f"policy ({', '.join(sorted(POLICY_REGISTRY) or ['tsplit'])})")
    trace_parser.add_argument("--batch", type=int, default=64)
    trace_parser.add_argument("--gpu", default="rtx_titan",
                              help=f"GPU preset ({', '.join(GPU_PRESETS)})")
    trace_parser.add_argument("--param-scale", type=float, default=1.0)
    trace_parser.add_argument("--precision", choices=("fp32", "fp16"),
                              default="fp32")
    trace_parser.add_argument("--out", default="trace.json",
                              help="output path for the trace JSON")
    trace_parser.set_defaults(func=cmd_trace)

    explain_parser = sub.add_parser(
        "explain",
        help="explain every planner decision for one configuration",
    )
    explain_parser.add_argument(
        "model", help=f"model name ({', '.join(model_names())})",
    )
    explain_parser.add_argument(
        "--batch-size", "--batch", dest="batch_size", type=int, default=64,
    )
    explain_parser.add_argument("--policy", default="tsplit")
    explain_parser.add_argument("--gpu", default="rtx_titan",
                                help=f"GPU preset ({', '.join(GPU_PRESETS)})")
    explain_parser.add_argument("--param-scale", type=float, default=1.0)
    explain_parser.add_argument("--precision", choices=("fp32", "fp16"),
                                default="fp32")
    explain_parser.add_argument("--top", type=int, default=10,
                                help="most expensive decisions to detail")
    explain_parser.add_argument("--json", action="store_true",
                                help="emit the report as JSON")
    explain_parser.add_argument(
        "--trace", default="", metavar="PATH",
        help="write a merged Chrome trace (pipeline spans + engine events)")
    explain_parser.add_argument(
        "--metrics", default="", metavar="PATH",
        help="write the session's metrics as JSONL")
    explain_parser.add_argument(
        "--fault-intensity", type=float, default=0.0,
        help="attach fault injection at this chaos intensity (the "
             "report then includes the fault-recovery section)")
    explain_parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault-schedule seed for --fault-intensity")
    explain_parser.add_argument(
        "--memscope", action="store_true",
        help="attach the allocation-level memory observatory and embed "
             "its residency/forensics report")
    explain_parser.set_defaults(func=cmd_explain)

    chaos_parser = sub.add_parser(
        "chaos",
        help="sweep fault intensity and report slowdown + recovery stats",
    )
    chaos_parser.add_argument(
        "model", help=f"model name ({', '.join(model_names())})",
    )
    chaos_parser.add_argument("--policy", default="tsplit")
    chaos_parser.add_argument("--batch", type=int, default=64)
    chaos_parser.add_argument("--gpu", default="rtx_titan",
                              help=f"GPU preset ({', '.join(GPU_PRESETS)})")
    chaos_parser.add_argument("--param-scale", type=float, default=1.0)
    chaos_parser.add_argument("--precision", choices=("fp32", "fp16"),
                              default="fp32")
    chaos_parser.add_argument(
        "--intensities", default="0,0.5,1,2",
        help="comma-separated fault-intensity ladder (0 = clean-equivalent)")
    chaos_parser.add_argument(
        "--seeds", type=int, default=5,
        help="fault seeds per intensity (0..N-1)")
    chaos_parser.add_argument(
        "--capacity-frac", type=float, default=1.0,
        help="shrink device memory to this fraction of the preset "
             "(provokes the emergency-eviction path)")
    chaos_parser.add_argument(
        "--no-eviction", action="store_true",
        help="disable graceful degradation (unrecoverable points become "
             "infeasible)")
    chaos_parser.add_argument(
        "--json", default="", metavar="PATH",
        help="write the full report as JSON")
    chaos_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny ladder for CI (intensities 0,1 x 2 seeds)")
    chaos_parser.add_argument(
        "--dynamic", action="store_true",
        help="compare static plans against the DELTA-style replanning "
             "feedback loop at every point")
    chaos_parser.add_argument(
        "--iterations", type=int, default=4,
        help="back-to-back iterations per point under --dynamic "
             "(replans happen at iteration boundaries)")
    chaos_parser.add_argument(
        "--fault-class",
        choices=("mixed", "degraded_pcie", "flaky_link", "noisy"),
        default="mixed",
        help="isolated fault axis for --dynamic sweeps")
    chaos_parser.add_argument(
        "--trace-dir", default="", metavar="DIR",
        help="with --dynamic: write per-point merged Chrome traces "
             "(names embed model, policy, intensity and seed)")
    chaos_parser.set_defaults(func=cmd_chaos)

    cluster_parser = sub.add_parser(
        "cluster",
        help="simulate one configuration on an N-rank cluster",
    )
    cluster_parser.add_argument(
        "model", help=f"model name ({', '.join(model_names())})",
    )
    cluster_parser.add_argument("--policy", default="tsplit")
    cluster_parser.add_argument("--batch", type=int, default=64,
                                help="global batch, divided across ranks "
                                     "(dp/zero_shard) or micro-batches (pp)")
    cluster_parser.add_argument("--gpu", default="rtx_titan",
                                help=f"GPU preset ({', '.join(GPU_PRESETS)})")
    cluster_parser.add_argument("--world", type=int, default=2,
                                help="number of ranks")
    cluster_parser.add_argument(
        "--mode", choices=("dp", "zero_shard", "pp"), default="dp",
        help="parallelism: data-parallel all-reduce, multi-rank ZeRO "
             "sharding, or 1F1B pipeline stages")
    cluster_parser.add_argument(
        "--micros", type=int, default=0,
        help="pipeline micro-batch count (pp only; 0 = 2 x world)")
    cluster_parser.add_argument(
        "--link", default="nvlink",
        help="link preset between ranks "
             "(nvlink, pcie, ethernet, or any LINK_PRESETS key)")
    cluster_parser.add_argument("--param-scale", type=float, default=1.0)
    cluster_parser.add_argument(
        "--trace", default="", metavar="PATH",
        help="write a merged Chrome trace with one process per rank")
    cluster_parser.set_defaults(func=cmd_cluster)

    memscope_parser = sub.add_parser(
        "memscope",
        help="allocation-level memory observatory with OOM forensics",
    )
    memscope_parser.add_argument(
        "model", help=f"model name ({', '.join(model_names())})",
    )
    memscope_parser.add_argument("--policy", default="tsplit")
    memscope_parser.add_argument("--batch", type=int, default=64)
    memscope_parser.add_argument("--gpu", default="rtx_titan",
                                 help=f"GPU preset ({', '.join(GPU_PRESETS)})")
    memscope_parser.add_argument("--param-scale", type=float, default=1.0)
    memscope_parser.add_argument("--precision", choices=("fp32", "fp16"),
                                 default="fp32")
    memscope_parser.add_argument(
        "--capacity-frac", type=float, default=1.0,
        help="shrink device memory to this fraction of the preset "
             "(provokes pressure; the OOM postmortem needs a failure)")
    memscope_parser.add_argument(
        "--strategy",
        choices=("best_fit", "first_fit", "worst_fit", "segregated"),
        default="best_fit",
        help="shadow-pool placement strategy")
    memscope_parser.add_argument("--top", type=int, default=15,
                                 help="residency rows to show")
    memscope_parser.add_argument("--json", action="store_true",
                                 help="emit the report as JSON")
    memscope_parser.add_argument(
        "--trace", default="", metavar="PATH",
        help="write one Perfetto trace merging engine execution with "
             "memscope's address-space counter tracks")
    memscope_parser.add_argument(
        "--heatmap", default="", metavar="PATH",
        help="write the address x time occupancy heatmap as JSON")
    memscope_parser.add_argument("--world", type=int, default=1,
                                 help="ranks (>1 = cluster memscope)")
    memscope_parser.add_argument(
        "--mode", choices=("dp", "zero_shard", "pp"), default="dp",
        help="cluster parallelism mode (with --world > 1)")
    memscope_parser.add_argument(
        "--micros", type=int, default=0,
        help="pipeline micro-batch count (pp only; 0 = 2 x world)")
    memscope_parser.add_argument(
        "--link", default="nvlink",
        help="link preset between ranks (with --world > 1)")
    memscope_parser.set_defaults(func=cmd_memscope)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()

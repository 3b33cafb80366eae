"""The three workloads: op sets, set-up and the timed loops.

Every workload runs whole passes over a fixed op set, each pass in an
order drawn from the seed, until at least ``seconds`` have passed, so a
changed seed changes only the order of the ops, never which ops run.
``sweep_cold`` and ``oversub_verdict`` passes take longer than the
benchmark's run length and therefore run exactly once.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import VerdictWorker
from ops import (
    CompileOp,
    Outcome,
    check_compiled,
    compile_op,
    maxrss_mb,
    verdict,
    warm_up,
)
from repro.models import registry
from repro.pipeline.cache import CompileCache
from repro.pipeline.compile import compile_run
from repro.runtime.engine import EngineOptions
from repro.serve import PlanService, ServeConfig, plan_digest
from spans import OP, PARENT, SID

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Fig. 12/13 grid on the GTX 1080Ti: the paper's models, the four
#: memory-saving policies, two batch sizes around TSPLIT's limit.
SWEEP_GPU = "gtx_1080ti"
SWEEP_POLICIES = ("vdnn_all", "superneurons", "checkpoints", "tsplit")
SWEEP_BATCHES = {
    "vgg16": (256, 512),
    "resnet50": (256, 384),
    "resnet101": (256, 384),
    "inception_v4": (128, 160),
    "transformer": (128, 256),
    "bert_large": (16, 32),
}

#: Fixed graphs under TSPLIT on a GTX 1080Ti shrunk to these capacity
#: shares: each graph's full device, then dense steps through the range
#: where the planner works for its verdict (sub-second ops that barely
#: plan would put the median among the noisiest timings). Includes the
#: two lowering crashes (transformer b=16 at 5%, bert_large b=8 at 10%)
#: and one runaway planner (resnet50 b=64 at 4.5%); resnet50 stops there
#: because every smaller share runs away too, and vgg16 skips 4% and
#: 6.25%, whose verdicts take 17-19 s, too close to the deadline.
OVERSUB_GRAPHS = {
    ("vgg16", 64): (1.0, 0.25, 0.2, 0.175, 0.15, 0.125, 0.1, 0.09, 0.075,
                    0.07, 0.05, 0.03),
    ("resnet50", 64): (1.0, 0.3, 0.275, 0.25, 0.225, 0.2, 0.175, 0.15,
                       0.125, 0.1, 0.09, 0.085, 0.08, 0.075, 0.045),
    ("transformer", 16): (1.0, 0.25, 0.05),
    ("bert_large", 8): (1.0, 0.5, 0.1),
}
#: Per-op wall-clock deadline. The slowest decided op takes about 9 s
#: and the runaway one minutes, so no op sits near the cut.
OVERSUB_DEADLINE_S = 20.0

#: Plan-mode requests of the warm daemon: several models, batch sizes,
#: devices, policies and capacity shares.
SERVE_PLAN_CONFIGS = (
    [{"model": "vgg16", "policy": "tsplit", "gpu": "rtx_titan", "batch": b}
     for b in (8, 16, 32, 48, 64)]
    + [{"model": "vgg16", "policy": "base", "gpu": "gtx_1080ti", "batch": b}
       for b in (8, 16, 32)]
    + [{"model": "resnet50", "policy": "tsplit", "gpu": "rtx_titan",
        "batch": b} for b in (8, 16, 32)]
    + [{"model": "resnet50", "policy": "superneurons", "gpu": "gtx_1080ti",
        "batch": b} for b in (8, 16)]
    + [{"model": "transformer", "policy": "tsplit", "gpu": "rtx_titan",
        "batch": b} for b in (8, 16)]
    + [{"model": "bert_large", "policy": "checkpoints", "gpu": "rtx_titan",
        "batch": 8}]
    + [{"model": "vgg16", "policy": "tsplit", "gpu": "rtx_titan", "batch": 32,
        "capacity_frac": frac} for frac in (0.75, 0.5)]
    + [{"model": "resnet50", "policy": "tsplit", "gpu": "gtx_1080ti",
        "batch": 64, "capacity_frac": 0.25}]
)
#: Run-mode requests: lowering and three engine iterations per request.
SERVE_RUN_CONFIGS = (
    {"model": "vgg16", "policy": "tsplit", "gpu": "rtx_titan", "batch": 16,
     "mode": "run", "iterations": 3},
    {"model": "vgg16", "policy": "base", "gpu": "gtx_1080ti", "batch": 16,
     "mode": "run", "iterations": 3},
    {"model": "resnet50", "policy": "tsplit", "gpu": "rtx_titan", "batch": 16,
     "mode": "run", "iterations": 3},
    {"model": "transformer", "policy": "superneurons", "gpu": "gtx_1080ti",
     "batch": 8, "mode": "run", "iterations": 3},
)
SERVE_WORKERS = 2
SERVE_CLIENTS = 2


@dataclass
class Run:
    """What a workload measured."""

    outcomes: list[Outcome]
    passes: int
    #: Host seconds the ops kept the system busy (``ops_per_s`` base).
    busy_s: float
    setup_samples: list[float]
    rss_mb: float
    spans: list = field(default_factory=list)
    #: Per-layer counters read from the program's own statistics.
    counters: dict = field(default_factory=dict)
    #: Other problems the checks found (not tied to one op).
    issues: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)


def _passes(items: list, seed: int):
    """Endless seeded permutations of ``items``, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def _spawn_setup_samples(trace: bool, keep_last: bool):
    """Time ``SETUP_REPEATS`` worker start-ups (spawn, import, warm-up)."""
    samples, worker = [], None
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()
        worker = VerdictWorker(trace)
        samples.append(worker.ready_s)
    if not keep_last:
        worker.close()
        worker = None
    return samples, worker


def _counters(cache_stats: list[dict], ops: int, coalescing_ratio=0.0,
              rejected=0) -> dict:
    """Per-layer counters read from the program's own statistics."""
    lookups = sum(s["lookups"] for s in cache_stats)
    hits = sum(s["total_hits"] for s in cache_stats)
    return {
        "pipeline.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "pipeline.cache.disk_hits":
            sum(s["disk_hits"] for s in cache_stats) / max(ops, 1),
        "serve.service.coalescing_ratio": coalescing_ratio,
        "serve.service.rejected": rejected / max(ops, 1),
    }


# -- sweep_cold ---------------------------------------------------------------

def sweep_ops() -> list[CompileOp]:
    return [
        CompileOp(model, batch, policy, SWEEP_GPU)
        for model, batches in SWEEP_BATCHES.items()
        for batch in batches
        for policy in SWEEP_POLICIES
    ]


def run_sweep_cold(seed: int, seconds: float, tracer) -> Run:
    """Serial cold sweep; each pass starts with one empty shared cache."""
    setup_samples, _ = _spawn_setup_samples(False, keep_last=False)
    warm_up()
    if tracer is not None:
        tracer.install()
    outcomes, stats, passes = [], [], 0
    started = time.perf_counter()
    for order in _passes(sweep_ops(), seed):
        cache = CompileCache()
        for op in order:
            if tracer is None:
                outcome, graph, compiled = compile_op(
                    op, cache=cache, address_plan=True)
            else:
                with tracer.op(op.id):
                    outcome, graph, compiled = compile_op(
                        op, cache=cache, address_plan=True)
            outcome.issues += check_compiled(outcome, graph, compiled)
            if outcome.verdict == "exception":  # none in the baseline
                outcome.issues.append(f"{op.id}: raised {outcome.error}")
            outcomes.append(outcome)
        stats.append(cache.stats())
        passes += 1
        if time.perf_counter() - started >= seconds:
            break
    return Run(
        outcomes=outcomes, passes=passes,
        busy_s=sum(o.latency_s for o in outcomes),
        setup_samples=setup_samples, rss_mb=maxrss_mb(),
        spans=tracer.spans if tracer is not None else [],
        counters=_counters(stats, len(outcomes)),
    )


# -- oversub_verdict ----------------------------------------------------------

def oversub_ops() -> list[CompileOp]:
    return [
        CompileOp(model, batch, "tsplit", "gtx_1080ti", frac)
        for (model, batch), fracs in OVERSUB_GRAPHS.items()
        for frac in fracs
    ]


def run_oversub_verdict(seed: int, seconds: float, tracer) -> Run:
    """Verdicts under a deadline, in a respawned worker process."""
    trace = tracer is not None
    setup_samples, worker = _spawn_setup_samples(trace, keep_last=True)
    outcomes, spans, passes, respawn_s = [], [], 0, 0.0
    rss_mb = worker.rss_mb
    started = time.perf_counter()
    try:
        for order in _passes(oversub_ops(), seed):
            for op in order:
                outcome, op_spans, alive = worker.run(op, OVERSUB_DEADLINE_S)
                outcomes.append(outcome)
                spans.extend(_tag(op_spans, op.id, len(outcomes)))
                if not alive:
                    rss_mb = max(rss_mb, worker.rss_mb)
                    worker = VerdictWorker(trace)
                    respawn_s += worker.ready_s
            passes += 1
            if time.perf_counter() - started >= seconds:
                break
    finally:
        rss_mb = max(rss_mb, worker.rss_mb)
        worker.close()
    return Run(
        outcomes=outcomes, passes=passes,
        busy_s=sum(o.latency_s for o in outcomes) + respawn_s,
        setup_samples=setup_samples, rss_mb=max(rss_mb, maxrss_mb()),
        spans=spans,
        counters=_counters([], len(outcomes)),
    )


def _tag(spans: list, op_id: str, index: int) -> list:
    """Make a worker's span ids unique across workers and ops."""
    base = index << 32
    for span in spans:
        span[SID] += base
        if span[PARENT] is not None:
            span[PARENT] += base
        span[OP] = op_id
    return spans


# -- serve_warm ---------------------------------------------------------------

def serve_configs() -> list[dict]:
    return [dict(c) for c in (*SERVE_PLAN_CONFIGS, *SERVE_RUN_CONFIGS)]


def _op_of(config: dict) -> CompileOp:
    return CompileOp(config["model"], config["batch"], config["policy"],
                     config["gpu"], config.get("capacity_frac", 1.0))


def config_id(config: dict) -> str:
    return _op_of(config).id + ("/run" if config.get("mode") == "run" else "")


def _fill(cache_dir: Path, configs: list[dict]):
    """Compile every config into a fresh disk cache, as a prior sweep
    would; returns the direct answers, the fill time and check issues."""
    cache = CompileCache(disk_dir=cache_dir)
    direct, issues, fill_s = {}, [], 0.0
    for config in configs:
        op = _op_of(config)
        gpu = op.device()
        run_mode = config.get("mode") == "run"
        started = time.perf_counter()
        graph = registry.build_model(op.model, op.batch)
        compiled = compile_run(
            graph, op.policy, gpu, cache=cache,
            engine_options=(
                EngineOptions(record_trace=False) if run_mode else None),
            iterations=config.get("iterations"),
        )
        fill_s += time.perf_counter() - started
        trace = compiled.result.trace
        planned = compiled.plan.feasible
        answer = Outcome(
            config_id(config),
            verdict(compiled.result.feasible if run_mode else planned,
                    planned, run_mode),
            0.0,
            plan_digest=plan_digest(compiled.plan.plan),
            throughput=trace.throughput if run_mode and trace else 0.0,
            peak_memory=trace.peak_memory if run_mode and trace else 0,
            capacity=gpu.memory_bytes,
        )
        issues += check_compiled(answer, graph, compiled)
        direct[answer.op] = answer
    return direct, fill_s, issues


def _outcome_of(config: dict, body: dict, latency: float) -> Outcome:
    run_mode = config.get("mode") == "run"
    return Outcome(
        config_id(config),
        verdict(body["feasible"], bool(body["plan_digest"]), run_mode),
        latency,
        plan_digest=body["plan_digest"],
        throughput=body.get("throughput", 0.0),
        peak_memory=body.get("peak_memory", 0),
        capacity=_op_of(config).device().memory_bytes,
    )


def _check_served(outcome: Outcome, direct: Outcome) -> list[str]:
    """A served answer equals the direct ``compile_run`` one."""
    issues = []
    for name in ("verdict", "plan_digest", "throughput", "peak_memory"):
        served, expected = getattr(outcome, name), getattr(direct, name)
        if served != expected:
            issues.append(
                f"{outcome.op}: served {name} {served!r} != direct "
                f"{expected!r}"
            )
    if outcome.verdict == "trains" and outcome.peak_memory > outcome.capacity:
        issues.append(f"{outcome.op}: peak exceeds capacity")
    return issues


def _start_service(cache_dir: Path, configs: list[dict]):
    """Start a service over the disk cache and serve every config once."""
    started = time.perf_counter()
    service = PlanService(ServeConfig(
        workers=SERVE_WORKERS, cache_dir=str(cache_dir),
    ))
    for config in configs:
        service.handle_plan(dict(config))
    return service, time.perf_counter() - started


def run_serve_warm(seed: int, seconds: float, tracer, scratch: Path) -> Run:
    """Closed loop of two clients against a restarted warm service."""
    configs = serve_configs()
    cache_dir = scratch / "serve-cache"
    service = None
    try:
        warm_up()
        samples, issues = [], []
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
            direct, fill_s, fill_issues = _fill(cache_dir, configs)
            issues += fill_issues
            service, restart_s = _start_service(cache_dir, configs)
            samples.append(fill_s + restart_s)
        before = service.stats()
        if tracer is not None:
            tracer.install()
        outcomes, loop_s = _client_loop(
            service, configs, seed, seconds, tracer)
        after = service.stats()
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    for outcome in outcomes:
        outcome.issues += _check_served(outcome, direct[outcome.op])
    passes = len(outcomes) // len(configs)
    flights = after["coalescing"]["flights"] - before["coalescing"]["flights"]
    joins = after["coalescing"]["joins"] - before["coalescing"]["joins"]
    rejected = sum(
        after["admission"][k] - before["admission"][k]
        for k in ("rejected_queue", "rejected_tenant")
    )
    cache_delta = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("lookups", "total_hits", "disk_hits")
    }
    counters = _counters(
        [cache_delta], len(outcomes),
        coalescing_ratio=(flights + joins) / flights if flights else 0.0,
        rejected=rejected,
    )
    return Run(
        outcomes=outcomes, passes=passes, busy_s=loop_s,
        setup_samples=samples, rss_mb=maxrss_mb(),
        spans=tracer.spans if tracer is not None else [],
        counters=counters, issues=issues,
    )


def _client_loop(service, configs, seed, seconds, tracer):
    """``SERVE_CLIENTS`` closed-loop clients sharing one seeded request
    order; a client stops at the first pass boundary after ``seconds``.
    Returns the outcomes and the loop's wall time."""
    lock = threading.Lock()
    schedule: list[dict] = []
    passes = _passes(configs, seed)
    outcomes: list[Outcome] = []
    state = {"next": 0}
    started = time.perf_counter()

    def take():
        with lock:
            index = state["next"]
            if index % len(configs) == 0:
                if time.perf_counter() - started >= seconds:
                    return None
            if index == len(schedule):
                schedule.extend(next(passes))
            state["next"] = index + 1
            return schedule[index]

    def client():
        while (config := take()) is not None:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    body = service.handle_plan(dict(config))
                else:
                    with tracer.op(config_id(config)):
                        body = service.handle_plan(dict(config))
            except Exception as exc:  # counted, never fatal to the loop
                outcome = Outcome(
                    config_id(config), "exception",
                    time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                outcome = _outcome_of(
                    config, body, time.perf_counter() - t0)
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - started

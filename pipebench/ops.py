"""One benchmark op: compile a configuration and judge the outcome.

Shared by the in-process sweep and the over-subscription worker
process. An op builds the model's training graph and runs it through
``compile_run``; its outcome is a verdict plus the simulated numbers
the checks and the per-op digests need. Checks run after the op's
clock has stopped.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field

from repro.core.verify import verify_program
from repro.hardware.gpu import GPU_PRESETS
from repro.models import registry
from repro.pipeline.compile import compile_run
from repro.serve import plan_digest


@dataclass(frozen=True)
class CompileOp:
    """One (model, batch, policy, device, capacity share) configuration."""

    model: str
    batch: int
    policy: str
    gpu: str
    capacity_frac: float = 1.0

    @property
    def id(self) -> str:
        return (f"{self.model}/b{self.batch}/{self.policy}/{self.gpu}"
                f"@{self.capacity_frac:g}")

    def device(self):
        gpu = GPU_PRESETS[self.gpu]
        if self.capacity_frac != 1.0:
            gpu = gpu.with_memory(int(gpu.memory_bytes * self.capacity_frac))
        return gpu


@dataclass
class Outcome:
    """What one op produced, how long it took and what its checks found."""

    op: str
    #: ``trains``, ``fits`` (a plan-only request got a plan that fits),
    #: ``engine_oom``, ``planning_error``, ``exception`` (the program
    #: raised) or ``timeout`` (no verdict before the per-op deadline).
    verdict: str
    latency_s: float
    plan_digest: str = ""
    #: Simulated training throughput (samples per simulated second).
    throughput: float = 0.0
    peak_memory: int = 0
    capacity: int = 0
    #: ``"Type: message"`` of an exception the program raised.
    error: str = ""
    #: Correctness problems found by the checks.
    issues: list = field(default_factory=list)

    @property
    def decided(self) -> bool:
        return self.verdict != "timeout"

    @property
    def failed(self) -> bool:
        """The program raised, or an output failed a check."""
        return self.verdict == "exception" or bool(self.issues)

    @property
    def feasible(self) -> bool:
        return self.verdict in ("trains", "fits")

    def digest(self) -> str:
        """Everything about the outcome that must not depend on timing,
        seed or tracing."""
        return json.dumps([
            self.op, self.verdict, self.plan_digest, repr(self.throughput),
            self.peak_memory, self.error,
        ])


def verdict(feasible: bool, planned: bool, run_mode: bool = True) -> str:
    """The verdict of a compile that did not raise; ``run_mode=False``
    for a plan-only request, whose success means a plan that fits."""
    if feasible:
        return "trains" if run_mode else "fits"
    return "engine_oom" if planned else "planning_error"


def compile_op(op: CompileOp, cache=None, address_plan=False):
    """Run one op; returns ``(outcome, graph, compiled)``.

    ``graph`` and ``compiled`` are ``None`` when the program raised.
    """
    gpu = op.device()
    started = time.perf_counter()
    try:
        graph = registry.build_model(op.model, op.batch)
        compiled = compile_run(
            graph, op.policy, gpu, cache=cache, address_plan=address_plan,
        )
    except Exception as exc:  # the op's verdict, not the benchmark's
        return Outcome(
            op.id, "exception", time.perf_counter() - started,
            capacity=gpu.memory_bytes, error=f"{type(exc).__name__}: {exc}",
        ), None, None
    latency = time.perf_counter() - started
    result = compiled.result
    trace = result.trace
    return Outcome(
        op.id, verdict(result.feasible, compiled.plan.feasible), latency,
        plan_digest=plan_digest(compiled.plan.plan),
        throughput=trace.throughput if trace else 0.0,
        peak_memory=trace.peak_memory if trace else 0,
        capacity=gpu.memory_bytes,
    ), graph, compiled


def check_compiled(outcome: Outcome, graph, compiled) -> list[str]:
    """Lowered programs verify clean; feasible runs fit the device."""
    issues = []
    if compiled is not None and compiled.lowered is not None:
        issues += [
            f"{outcome.op}: verify_program: {issue}"
            for issue in verify_program(graph, compiled.lowered.program)
        ]
    if outcome.verdict == "trains" and outcome.peak_memory > outcome.capacity:
        issues.append(
            f"{outcome.op}: peak {outcome.peak_memory} B exceeds capacity "
            f"{outcome.capacity} B"
        )
    return issues


#: A small op touching every compile stage; run before any timed op so
#: lazy imports and first-call set-up are paid during set-up.
WARM_UP = CompileOp("vgg16", 8, "tsplit", "gtx_1080ti")


def warm_up() -> None:
    outcome, graph, compiled = compile_op(WARM_UP, address_plan=True)
    if outcome.verdict != "trains" or check_compiled(outcome, graph, compiled):
        raise RuntimeError(f"warm-up op failed: {outcome}")


def maxrss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

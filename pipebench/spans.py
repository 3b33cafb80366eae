"""Per-layer tracing from outside the program.

The traced run wraps the pipeline's layer entry points (module functions
and class methods, listed in :data:`LAYERS`) with a recorder, so no file
of the program changes. Every call becomes one span: layer name, start,
end, the span that caused it, the benchmark op it belongs to, the name
of the exception it raised (if any) and a few per-layer counts.
Spans are kept in memory and written out when the run ends;
:func:`layer_table` turns them into the per-layer metrics.

Functions that other modules imported by name (``build_model``,
``graph_signature``, ``augment_graph``, ``plan_addresses``) are rebound
in every loaded ``repro`` module, so calls through those aliases are
recorded too.

The serve daemon hands each request from the caller's thread to a
worker slot through an executor. ``PlanService._submit`` is wrapped to
remember the caller's open span and ``PlanService._compute`` to adopt
it as its parent, so a request's spans form one tree across the hop and
``handle_plan``'s self time is the envelope plus the wait for a slot.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


def _lowered_instrs(args, kwargs, result) -> dict | None:
    if result is None:
        return None
    return {"instrs": len(result.program.instructions)}


def _executed_instrs(args, kwargs, result) -> dict:
    program = args[1] if len(args) > 1 else kwargs["program"]
    return {"instrs": len(program.instructions)}


def _iterated_instrs(args, kwargs, result) -> dict:
    program = args[1] if len(args) > 1 else kwargs["program"]
    iterations = args[2] if len(args) > 2 else kwargs["iterations"]
    return {"instrs": len(program.instructions) * iterations}


def _decision(args, kwargs, result) -> dict | None:
    # The planner refreshes the cost model once per plan and then once
    # per decision, passing the decision's tensors as ``changed``.
    changed = args[2] if len(args) > 2 else kwargs.get("changed")
    return {"decisions": 1} if changed is not None else None


#: (layer name, module, attribute path, per-call counts) of every
#: wrapped entry point. Two entry points may share a layer name (the
#: engine's single- and multi-iteration paths). A counts function gets
#: the call's arguments and result (``None`` when it raised).
LAYERS = (
    ("models.build_model", "repro.models.registry", "build_model", None),
    ("pipeline.cache.graph_signature", "repro.pipeline.cache",
     "graph_signature", None),
    ("pipeline.cache.get", "repro.pipeline.cache", "CompileCache.get", None),
    ("core.profiler.profile", "repro.core.profiler", "Profiler.profile",
     None),
    ("core.planner.plan", "repro.core.planner", "TsplitPlanner.plan", None),
    ("core.cost_model.nonsplit_candidates", "repro.core.cost_model",
     "CostModel.nonsplit_candidates", None),
    ("core.cost_model.split_candidates", "repro.core.cost_model",
     "CostModel.split_candidates", None),
    ("core.cost_model.regen_candidates", "repro.core.cost_model",
     "CostModel.regen_candidates", None),
    ("core.cost_model.refresh", "repro.core.cost_model", "CostModel.refresh",
     _decision),
    ("core.simulate.curve_apply", "repro.core.simulate", "MemoryCurve.apply",
     None),
    ("core.augment.lower", "repro.core.augment", "augment_graph",
     _lowered_instrs),
    ("planner.address_plan", "repro.planner.address_plan", "plan_addresses",
     None),
    ("runtime.engine.execute", "repro.runtime.engine", "Engine.execute",
     _executed_instrs),
    ("runtime.engine.execute", "repro.runtime.engine",
     "Engine.execute_iterations", _iterated_instrs),
    ("serve.service.handle_plan", "repro.serve.service",
     "PlanService.handle_plan", None),
    ("serve.service.compute", "repro.serve.service", "PlanService._compute",
     None),
)

#: Timed layers in report order (each yields five per-layer metrics).
TIMED_LAYERS = tuple(dict.fromkeys(name for name, *_ in LAYERS))

#: Root span of one benchmark op; its children are the layer calls.
OP_SPAN = "bench.op"

# Span record fields (a list per span keeps recording cheap).
SID, PARENT, NAME, START, END, OP, ERROR, EXTRA = range(8)


class Tracer:
    """Records spans for the wrapped layers (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._handoff: dict[int, list] = {}
        self._handoff_lock = threading.Lock()

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [
            next(self._ids),
            parent[SID] if parent else None,
            name,
            time.perf_counter(),
            None,
            op if parent is None else parent[OP],
            None,
            None,
        ]
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self, op_id: str):
        """Root span of one benchmark op; layer calls nest under it."""
        span = self._open(OP_SPAN, op=op_id)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording one span per call under layer ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                if counts is not None:
                    span[EXTRA] = counts(args, kwargs, None)
                raise
            finally:
                tracer._close(span)
            if counts is not None:
                span[EXTRA] = counts(args, kwargs, result)
            return result

        return traced

    def _wrap_submit(self, fn):
        """Remember the caller's open span for the worker-slot hop."""
        tracer = self

        @functools.wraps(fn)
        def submit(service, request):
            stack = tracer._stack()
            if stack:
                with tracer._handoff_lock:
                    tracer._handoff[id(request)] = stack[-1]
            try:
                return fn(service, request)
            finally:
                with tracer._handoff_lock:
                    tracer._handoff.pop(id(request), None)

        return submit

    def _adopt(self, fn):
        """Run ``fn`` (already span-wrapped) under the submitter's span."""
        tracer = self

        @functools.wraps(fn)
        def compute(service, request):
            with tracer._handoff_lock:
                parent = tracer._handoff.get(id(request))
            stack = tracer._stack()
            if parent is not None:
                stack.append(parent)
            try:
                return fn(service, request)
            finally:
                if parent is not None:
                    stack.pop()

        return compute

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` (call once per process)."""
        for name, module_name, attr, counts in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                wrapped = self.wrap(name, owner.__dict__[method], counts)
                if attr == "PlanService._compute":
                    wrapped = self._adopt(wrapped)
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counts)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
        service = importlib.import_module("repro.serve.service")
        service.PlanService._submit = self._wrap_submit(
            service.PlanService.__dict__["_submit"],
        )

    # -- export -----------------------------------------------------------

    def abort(self) -> list[list]:
        """Every span recorded, the open ones closed now as ``Killed``."""
        now = time.perf_counter()
        for span in self.spans:
            if span[END] is None:
                span[END] = now
                span[ERROR] = "Killed"
        spans, self.spans = self.spans, []
        return spans

    def drain(self) -> list[list]:
        """Hand over the closed spans recorded so far and forget them."""
        closed = [span for span in self.spans if span[END] is not None]
        self.spans = [span for span in self.spans if span[END] is None]
        return closed


def tail_percentile(n: int) -> float:
    """Percentile of the tail statistic for ``n`` samples.

    The highest percentile with at least ten samples beyond it,
    ``100 * (1 - 10/n)``; with 20 samples or fewer that falls below the
    median, and the tail is the median instead.
    """
    return 50.0 if n <= 20 else 100.0 * (1.0 - 10.0 / n)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (``0 < q < 1``).

    A Beta((n+1)q, (n+1)(1-q))-weighted average of the order statistics,
    with the Beta CDF integrated numerically on a grid. A plain
    percentile jumps between neighbouring ops whenever noise reorders
    them: on ``sweep_cold``'s 48 ops its tail spread measured above the
    0.25 bound in two of three sets of runs (figures in README.md).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else 0.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = 16
    t = np.linspace(0.0, 1.0, steps * n + 1)
    inner = np.clip(t, 1e-12, 1.0 - 1e-12)
    log_pdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    weights = np.diff(cdf[::steps])
    return float(weights @ x / weights.sum())


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values) -> float:
    """The quantile at :func:`tail_percentile`."""
    return quantile(values, tail_percentile(len(values)) / 100.0)


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def layer_table(spans: list[list], ops: int, verdicts: dict) -> dict:
    """Per-layer metrics from the spans of ``ops`` attempted ops.

    ``verdicts`` maps op id to its verdict, for the planner's useful
    ratio (plans that then trained, over plans produced).
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]),
            )
    per_op = 1.0 / max(ops, 1)
    metrics: dict[str, float] = {}
    by_layer: dict[str, list] = {name: [] for name in TIMED_LAYERS}
    for span in spans:
        if span[NAME] in by_layer:
            by_layer[span[NAME]].append(span)
    for name, layer_spans in by_layer.items():
        durations = [s[END] - s[START] for s in layer_spans]
        self_time = sum(
            (s[END] - s[START])
            - _covered(s[START], s[END], children.get(s[SID], []))
            for s in layer_spans
        )
        metrics[f"{name}.calls"] = len(layer_spans) * per_op
        metrics[f"{name}.ms"] = sum(durations) * 1e3 * per_op
        metrics[f"{name}.self_ms"] = self_time * 1e3 * per_op
        metrics[f"{name}.p50_ms"] = median(durations) * 1e3
        metrics[f"{name}.tail_ms"] = tail(durations) * 1e3

    def extra(name: str, key: str) -> int:
        return sum(
            (s[EXTRA] or {}).get(key, 0) for s in by_layer.get(name, [])
        )

    planner = by_layer["core.planner.plan"]
    decisions = extra("core.cost_model.refresh", "decisions")
    planner_s = sum(s[END] - s[START] for s in planner)
    metrics["core.planner.decisions"] = decisions * per_op
    metrics["core.planner.decisions_per_s"] = (
        decisions / planner_s if planner_s else 0.0
    )
    planned_ops = {s[OP] for s in planner if s[ERROR] is None}
    trained = sum(1 for op in planned_ops if verdicts.get(op) == "trains")
    metrics["core.planner.useful_ratio"] = (
        trained / len(planned_ops) if planned_ops else 0.0
    )
    lowers = by_layer["core.augment.lower"]
    metrics["core.augment.instrs"] = (
        extra("core.augment.lower", "instrs") / len(lowers) if lowers else 0.0
    )
    engine = by_layer["runtime.engine.execute"]
    engine_instrs = extra("runtime.engine.execute", "instrs")
    metrics["runtime.engine.us_per_instr"] = (
        sum(s[END] - s[START] for s in engine) * 1e6 / engine_instrs
        if engine_instrs else 0.0
    )
    metrics["runtime.engine.oom"] = per_op * sum(
        1 for s in engine if s[ERROR] == "OutOfMemoryError"
    )
    metrics["bench.spans"] = len(spans) * per_op
    return metrics

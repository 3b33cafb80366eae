"""Static memory simulation of a plan — the planner's ``M_i``.

Given a graph, a schedule and a :class:`~repro.core.plan.Plan`, compute
the per-step GPU memory requirement the paper's planner checks against
device capacity (Algorithm 2, line 3). The model mirrors the runtime
augmenter's behaviour:

* RESIDE tensors occupy memory over their whole live interval.
* SWAP / RECOMPUTE tensors occupy memory from allocation to their last
  forward use, vanish, and reappear around their first backward use (the
  Figure-4b "re-generation" tail). Swapped tensors reappear one op early
  (prefetch); recomputed ones at the consumer itself.
* Parameters and optimizer state under SWAP (FairScale-style sharding)
  are resident only in a window around each use.
* CPU-pinned tensors never occupy GPU memory.
* A split tensor whose micro-tensors are evicted eagerly occupies only
  ``ceil(2 * size / p_num)`` at its producer and regeneration sites
  (double-buffered streaming: one micro-tensor in flight over PCIe while
  the next is computed).
* Operator workspace is charged at the op's step, divided by the split
  count when the op runs as micro-kernels.

The dynamic engine (``repro.runtime``) adds transfer timing and stalls
on top, dispatching in chronological order so its ``peak_memory`` is the
exact chronological peak — including the window where a buffer stays
live until both its eviction transfer and its last consumer finish;
byte-feasibility here is designed to be a faithful upper bound of that
chronologically-exact accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import MemOption, Plan, TensorConfig
from repro.core.split_rules import effective_split, op_exec_split
from repro.graph.graph import Graph
from repro.graph.liveness import PERSISTENT_KINDS, LivenessInfo, compute_liveness
from repro.graph.ops import Phase
from repro.graph.tensor import TensorKind, TensorSpec

#: Micro-tensors kept resident simultaneously while streaming a split
#: tensor through PCIe (produce one while the previous is in flight).
STREAM_DEPTH = 2

#: How many ops before the backward consumer a swap-in is issued.
PREFETCH_OPS = 4


@dataclass(frozen=True)
class TensorTimeline:
    """Schedule positions relevant to one tensor's memory behaviour."""

    alloc: int          # producer position (or 0 for persistent kinds)
    free: int           # last-use position
    fwd_end: int        # last use in the forward phase (>= alloc)
    bwd_uses: tuple[int, ...]  # positions of backward/update-phase uses
    use_positions: tuple[int, ...]  # all consumer positions


def tensor_timeline(
    graph: Graph,
    liveness: LivenessInfo,
    tensor: TensorSpec,
) -> TensorTimeline | None:
    """Compute the phase-aware timeline of one tensor, or None if dead."""
    if tensor.tensor_id not in liveness.alloc_step:
        return None
    alloc, free = liveness.interval(tensor.tensor_id)
    position = liveness.position
    fwd_end = alloc
    bwd_uses: list[int] = []
    uses: list[int] = []
    for consumer_id in tensor.consumers:
        pos = position.get(consumer_id)
        if pos is None:
            continue
        uses.append(pos)
        op = graph.ops[consumer_id]
        if op.phase is Phase.FORWARD:
            fwd_end = max(fwd_end, pos)
        else:
            bwd_uses.append(pos)
    return TensorTimeline(
        alloc=alloc,
        free=free,
        fwd_end=fwd_end,
        bwd_uses=tuple(sorted(bwd_uses)),
        use_positions=tuple(sorted(uses)),
    )


def needs_whole_staging(graph: Graph, plan: Plan, op, pos: int,
                        timeline_of) -> bool:
    """Whether executing the op at ``pos`` first stages a whole tensor.

    Two cases, mirrored exactly by the augmenter's region-formation
    rule:

    * an input is RECOMPUTE-configured and regenerates at this position
      (the chain re-materialises the full tensor before the op runs);
    * an input is the *unsplit* output of the immediately preceding
      (split-executing) op — that buffer only completes at the
      producer's last micro-kernel, so no streaming region can span it.
    """
    from repro.core.plan import MemOption as _MemOption

    for tid in op.inputs:
        tensor = graph.tensors[tid]
        cfg = plan.config_for(tid)
        if cfg.opt is _MemOption.RECOMPUTE:
            timeline = timeline_of(tid)
            if (
                timeline is not None
                and pos in timeline.bwd_uses
                and pos > timeline.fwd_end
            ):
                return True
        if tensor.kind in PERSISTENT_KINDS or tensor.producer is None:
            continue
        timeline = timeline_of(tid)
        if timeline is None or timeline.alloc != pos - 1:
            continue
        if effective_split(graph, plan, tensor) is not None:
            continue
        producer_op = graph.ops[tensor.producer]
        if op_exec_split(graph, plan, producer_op) is not None:
            return True
    return False


def _streamed_bytes(size: int, p_num: int) -> int:
    """Resident bytes of an eagerly-evicted split tensor at its hot sites."""
    micro = -(-size // p_num)  # ceil
    return min(size, STREAM_DEPTH * micro)


def recompute_extra(
    graph: Graph,
    plan: Plan,
    free_step: dict[int, int],
    tensor: TensorSpec,
    timeline: TensorTimeline,
    deps: set[int] | None = None,
) -> int:
    """Chain-transient bytes charged at a RECOMPUTE tensor's regen step.

    Regenerating a tensor may require re-materialising dead ancestors;
    free-as-you-go execution bounds the transient to the largest chain
    op's working set (see :func:`repro.core.recompute.chain_extra_bytes`).
    ``deps`` collects the tensor ids whose configuration the chain read
    (even on failure), so incremental callers know when to re-evaluate.
    """
    from repro.core.recompute import chain_extra_bytes, planning_chain
    from repro.errors import PlanningError

    if not timeline.bwd_uses:
        return 0
    try:
        chain = planning_chain(
            graph, tensor.tensor_id, plan, free_step,
            timeline.bwd_uses[0], max_len=512, deps=deps,
        )
    except PlanningError:
        return 0  # impossible chain: the augmenter will report it properly
    return chain_extra_bytes(graph, chain, tensor.tensor_id)


def _contributions(
    graph: Graph,
    tensor: TensorSpec,
    timeline: TensorTimeline,
    cfg: TensorConfig,
    last_step: int,
    chain_extra: int = 0,
    exec_split_at=None,
    breaks_at=None,
) -> list[tuple[int, int, int]]:
    """(start, end, bytes) intervals this tensor occupies, inclusive.

    ``exec_split_at(pos)`` reports which (dim, p_num) the op at a
    schedule position executes with under the plan; streaming windows
    (``hot`` instead of ``size``) are only granted where the adjacent
    operators genuinely execute with this tensor's split — mirroring the
    augmenter's region formation. Without the callback the model is
    optimistic (used only by tests).
    """
    size = tensor.size_bytes
    opt = cfg.opt

    if opt is MemOption.CPU:
        return []

    split = (cfg.dim, cfg.p_num) if cfg.is_split else None

    def streams_at(pos: int) -> bool:
        if split is None:
            return False
        if exec_split_at is None:
            return True
        return exec_split_at(pos) == split

    def broken_at(pos: int) -> bool:
        return breaks_at(pos) if breaks_at is not None else False

    persistent = tensor.kind in PERSISTENT_KINDS
    if opt is MemOption.RESIDE:
        if persistent:
            return [(0, last_step, size)]
        if (
            split is not None
            and timeline.free == timeline.alloc + 1
            and streams_at(timeline.alloc)
            and all(streams_at(p) for p in timeline.use_positions)
            and not broken_at(timeline.free)
        ):
            # Split without eviction, producer and final consumer
            # adjacent in one streaming region: micro pieces are freed by
            # the consumer's micro-kernels as soon as produced, so the
            # whole life is one streaming window. This is the
            # backward-pass input/output memory-reuse of Step 2
            # (gradients streaming through split backward operators).
            hot = _streamed_bytes(size, cfg.p_num)
            return [(timeline.alloc, timeline.free, hot)]
        return [(timeline.alloc, timeline.free, size)]

    if persistent or tensor.kind in (TensorKind.GRAD_PARAM,):
        # Sharded weights / offloaded gradients: resident only around uses.
        windows: list[tuple[int, int, int]] = []
        if tensor.kind is TensorKind.GRAD_PARAM:
            windows.append((timeline.alloc, timeline.alloc, size))
        for use in timeline.use_positions:
            start = max(0, use - 1)
            windows.append((start, use, size))
        return windows

    # Activation (or activation gradient) under swap/recompute.
    hot = _streamed_bytes(size, cfg.p_num) if split else size
    # A single consumer that cannot execute this split forces a merge,
    # which permanently collapses the tensor back to whole form — after
    # that, no site can stream it micro-wise.
    never_merged = split is not None and all(
        streams_at(p) for p in timeline.use_positions
    )
    prod_streams = streams_at(timeline.alloc)
    cons_streams = timeline.fwd_end == timeline.alloc or (
        timeline.fwd_end == timeline.alloc + 1
        and streams_at(timeline.fwd_end)
        and not broken_at(timeline.fwd_end)
    )
    windows = []
    if split is not None and prod_streams and cons_streams:
        # Streamed production (and adjacent consumption): micro-tensors
        # are evicted as soon as produced/consumed within the region.
        windows.append((timeline.alloc, timeline.fwd_end, hot))
    else:
        # No streaming region: fully resident through the forward part.
        windows.append((timeline.alloc, timeline.fwd_end, size))
    if timeline.bwd_uses:
        first_bwd = timeline.bwd_uses[0]
        # Only swapped tensors regenerate micro-wise (the runtime streams
        # their swap-ins just in time inside the consumer's region);
        # recompute chains re-materialise the whole tensor. The micro
        # form must additionally have survived the forward pass (no
        # merges at any consumer).
        if (
            split is not None
            and opt is MemOption.SWAP
            and never_merged
            and prod_streams
        ):
            regen, nbytes = first_bwd, hot
        elif opt is MemOption.SWAP:
            # Whole-tensor prefetch: resident from the prefetch point.
            regen = max(timeline.fwd_end + 1, first_bwd - PREFETCH_OPS)
            nbytes = size
        else:
            regen, nbytes = first_bwd, size
        regen = min(regen, timeline.free)
        windows.append((regen, timeline.free, nbytes))
        if chain_extra > 0:
            windows.append((first_bwd, first_bwd, chain_extra))
    return windows


def simulate_memory(
    graph: Graph,
    schedule: list[int],
    plan: Plan,
    liveness: LivenessInfo | None = None,
) -> np.ndarray:
    """Per-step memory requirement (bytes) under a plan."""
    if liveness is None:
        liveness = compute_liveness(graph, schedule)
    steps = len(schedule)
    last = steps - 1
    delta = np.zeros(steps + 1, dtype=np.float64)

    exec_cache: dict[int, tuple[str, int] | None] = {}
    break_cache: dict[int, bool] = {}
    timelines: dict[int, TensorTimeline | None] = {}

    def timeline_of(tid: int) -> TensorTimeline | None:
        if tid not in timelines:
            timelines[tid] = tensor_timeline(graph, liveness, graph.tensors[tid])
        return timelines[tid]

    def exec_split_at(pos: int) -> tuple[str, int] | None:
        if pos not in exec_cache:
            exec_cache[pos] = op_exec_split(
                graph, plan, graph.ops[schedule[pos]],
            )
        return exec_cache[pos]

    def breaks_at(pos: int) -> bool:
        if pos not in break_cache:
            break_cache[pos] = needs_whole_staging(
                graph, plan, graph.ops[schedule[pos]], pos, timeline_of,
            )
        return break_cache[pos]

    for tensor in graph.tensors.values():
        timeline = tensor_timeline(graph, liveness, tensor)
        if timeline is None:
            continue
        cfg = plan.config_for(tensor.tensor_id)
        if cfg.is_split and effective_split(graph, plan, tensor) is None:
            # Configured split is not executable: behave as unsplit.
            cfg = TensorConfig(opt=cfg.opt)
        chain_extra = 0
        if cfg.opt is MemOption.RECOMPUTE:
            chain_extra = recompute_extra(
                graph, plan, liveness.free_step, tensor, timeline,
            )
        for start, end, nbytes in _contributions(
            graph, tensor, timeline, cfg, last, chain_extra, exec_split_at,
            breaks_at,
        ):
            if end < start:
                continue
            delta[start] += nbytes
            delta[min(end + 1, steps)] -= nbytes

    curve = np.cumsum(delta[:steps])

    for idx, op_id in enumerate(schedule):
        op = graph.ops[op_id]
        if not op.workspace_bytes:
            continue
        split = exec_split_at(idx)
        p_num = split[1] if split else 1
        curve[idx] += op.workspace_bytes / p_num
    return curve


def plan_peak_memory(
    graph: Graph,
    schedule: list[int],
    plan: Plan,
    liveness: LivenessInfo | None = None,
) -> int:
    """Peak of the simulated memory curve, in bytes."""
    curve = simulate_memory(graph, schedule, plan, liveness)
    return int(curve.max()) if len(curve) else 0


class MemoryCurve:
    """Incrementally-maintained :func:`simulate_memory` curve.

    Holds the per-tensor occupancy intervals of one (graph, schedule,
    plan) triple and updates them in place when a single tensor's config
    changes (:meth:`apply`), instead of re-walking every tensor. The
    planner's greedy loop applies one decision per iteration, so the
    update cost is O(affected span), not O(tensors x steps).

    Correctness rests on a structural dependency radius: a tensor ``u``'s
    contribution reads (a) its own config, (b) the execution splits of
    ops adjacent to ``u`` — which depend on configs of *their* adjacent
    tensors, (c) the whole-staging predicate at ``u``'s consumer
    positions — which additionally reads the exec splits of the producers
    of those consumers' inputs, and (d) for RECOMPUTE tensors, the
    configs queried while building the regeneration chain. Inverting
    that: when ``t`` changes, the affected set is ``t``, every tensor
    sharing an op with ``t``, every tensor adjacent to a consumer of an
    output of an op adjacent to ``t``, plus the recorded chain
    dependants. All interval bytes are integers (< 2^53), so removal and
    re-addition are exact and the curve stays byte-identical to a from-
    scratch :func:`simulate_memory` — asserted by the equivalence tests.
    """

    def __init__(
        self,
        graph: Graph,
        schedule: list[int],
        plan: Plan,
        liveness: LivenessInfo | None = None,
    ) -> None:
        self.graph = graph
        self.schedule = list(schedule)
        self.plan = plan
        self.liveness = liveness or compute_liveness(graph, schedule)
        self.steps = len(self.schedule)
        self._delta = np.zeros(self.steps + 1, dtype=np.float64)
        self._workspace = np.zeros(self.steps, dtype=np.float64)
        self._windows: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._timelines: dict[int, TensorTimeline | None] = {}
        #: RECOMPUTE tensor id -> tensor ids its chain read.
        self._chain_deps: dict[int, tuple[int, ...]] = {}
        #: tensor id -> RECOMPUTE tensors whose chains read it.
        self._dep_index: dict[int, set[int]] = {}
        self._values: np.ndarray | None = None

        exec_memo: dict[int, tuple[str, int] | None] = {}
        break_memo: dict[int, bool] = {}
        added: list[tuple[int, int, int]] = []
        for tid in graph.tensors:
            added.extend(self._add_tensor(tid, exec_memo, break_memo))
        self._bump(added, 1.0)
        for pos in range(self.steps):
            self._workspace[pos] = self._workspace_at(pos, exec_memo)

    # -- queries ---------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The per-step requirement curve (bytes); do not mutate."""
        if self._values is None:
            self._values = (
                np.cumsum(self._delta[: self.steps]) + self._workspace
            )
        return self._values

    def peak(self) -> int:
        """Peak of the maintained curve, in bytes."""
        curve = self.values
        return int(curve.max()) if len(curve) else 0

    def over_budget(self, budget: float) -> np.ndarray:
        """Schedule positions whose requirement exceeds ``budget``."""
        return np.nonzero(self.values > budget)[0]

    # -- incremental update ----------------------------------------------------

    def apply(
        self,
        tensor_id: int,
        old_config: TensorConfig | None = None,
        new_config: TensorConfig | None = None,
    ) -> None:
        """Re-derive every interval affected by one tensor's config change.

        The owning :class:`~repro.core.plan.Plan` must already hold the
        new config; ``old_config``/``new_config`` are advisory (equal
        configs short-circuit). Multi-tensor decisions are applied by
        calling this once per member after updating the plan — the union
        of per-member affected sets covers the joint change because the
        dependency radius is structural, not config-dependent.
        """
        if (
            old_config is not None
            and new_config is not None
            and old_config == new_config
        ):
            return
        tensors, positions = self._affected(tensor_id)
        exec_memo: dict[int, tuple[str, int] | None] = {}
        break_memo: dict[int, bool] = {}
        removed: list[tuple[int, int, int]] = []
        added: list[tuple[int, int, int]] = []
        for tid in tensors:
            removed.extend(self._remove_tensor(tid))
        for tid in tensors:
            added.extend(self._add_tensor(tid, exec_memo, break_memo))
        self._bump(removed, -1.0)
        self._bump(added, 1.0)
        for pos in positions:
            self._workspace[pos] = self._workspace_at(pos, exec_memo)
        self._values = None

    def _affected(self, tensor_id: int) -> tuple[set[int], set[int]]:
        """(tensor ids, workspace positions) to re-derive for one change."""
        graph = self.graph
        tensor = graph.tensors[tensor_id]
        first_ops: set[int] = set(tensor.consumers)
        if tensor.producer is not None:
            first_ops.add(tensor.producer)
        ops = set(first_ops)
        for op_id in first_ops:
            for out in graph.ops[op_id].outputs:
                ops.update(graph.tensors[out].consumers)
        tensors: set[int] = {tensor_id}
        positions: set[int] = set()
        position = self.liveness.position
        for op_id in ops:
            op = graph.ops[op_id]
            tensors.update(op.inputs)
            tensors.update(op.outputs)
            pos = position.get(op_id)
            if pos is not None:
                positions.add(pos)
        tensors.update(self._dep_index.get(tensor_id, ()))
        return tensors, positions

    # -- bookkeeping -----------------------------------------------------------

    def _timeline(self, tid: int) -> TensorTimeline | None:
        if tid not in self._timelines:
            self._timelines[tid] = tensor_timeline(
                self.graph, self.liveness, self.graph.tensors[tid],
            )
        return self._timelines[tid]

    def _bump(
        self, windows: list[tuple[int, int, int]], sign: float,
    ) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) interval deltas."""
        for start, end, nbytes in windows:
            value = sign * nbytes
            self._delta[start] += value
            self._delta[min(end + 1, self.steps)] -= value

    def _remove_tensor(self, tid: int) -> tuple[tuple[int, int, int], ...]:
        windows = self._windows.pop(tid, ())
        for dep in self._chain_deps.pop(tid, ()):
            dependants = self._dep_index.get(dep)
            if dependants is not None:
                dependants.discard(tid)
        return windows

    def _add_tensor(
        self,
        tid: int,
        exec_memo: dict[int, tuple[str, int] | None],
        break_memo: dict[int, bool],
    ) -> tuple[tuple[int, int, int], ...]:
        graph, plan = self.graph, self.plan
        tensor = graph.tensors[tid]
        timeline = self._timeline(tid)
        if timeline is None:
            return ()
        cfg = plan.config_for(tid)
        if cfg.is_split and effective_split(graph, plan, tensor) is None:
            cfg = TensorConfig(opt=cfg.opt)
        chain_extra = 0
        if cfg.opt is MemOption.RECOMPUTE:
            deps: set[int] = set()
            chain_extra = recompute_extra(
                graph, plan, self.liveness.free_step, tensor, timeline,
                deps=deps,
            )
            deps.discard(tid)
            if deps:
                self._chain_deps[tid] = tuple(deps)
                for dep in deps:
                    self._dep_index.setdefault(dep, set()).add(tid)

        def exec_split_at(pos: int) -> tuple[str, int] | None:
            if pos not in exec_memo:
                exec_memo[pos] = op_exec_split(
                    graph, plan, graph.ops[self.schedule[pos]],
                )
            return exec_memo[pos]

        def breaks_at(pos: int) -> bool:
            if pos not in break_memo:
                break_memo[pos] = needs_whole_staging(
                    graph, plan, graph.ops[self.schedule[pos]], pos,
                    self._timeline,
                )
            return break_memo[pos]

        windows = tuple(
            (start, end, nbytes)
            for start, end, nbytes in _contributions(
                graph, tensor, timeline, cfg, self.steps - 1, chain_extra,
                exec_split_at, breaks_at,
            )
            if end >= start
        )
        if windows:
            self._windows[tid] = windows
        return windows

    def _workspace_at(
        self, pos: int, exec_memo: dict[int, tuple[str, int] | None],
    ) -> float:
        op = self.graph.ops[self.schedule[pos]]
        if not op.workspace_bytes:
            return 0.0
        if pos not in exec_memo:
            exec_memo[pos] = op_exec_split(self.graph, self.plan, op)
        split = exec_memo[pos]
        p_num = split[1] if split else 1
        return op.workspace_bytes / p_num

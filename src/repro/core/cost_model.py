"""Analytic cost models for swap / recompute / split — Equations 2-6.

For a memory bottleneck at operation ``Op_i``, the planner needs, for
every candidate (tensor, strategy): the memory reduction ``ΔM_i`` at the
bottleneck and the extra iteration time ``ΔT``. Three mechanisms:

* **swap** (Eq. 2-3): ΔM is the tensor size; ΔT is the part of the PCIe
  transfer that cannot hide behind idle link time — computed against a
  simulated PCIe occupancy ``Oc_u`` per scheduled op (Section V-B: ideal
  swap-out begins at generation time, ideal swap-in a few ops before the
  backward use).
* **recompute** (Eq. 2, 4): ΔM is the tensor size; ΔT is the profiled
  time of the regeneration chain from the nearest resident checkpoints
  (memory-centric accounting).
* **split** (Eq. 5-6): applies to the bottleneck op's own input/output
  tensors; ΔM is the reduction from streaming micro-tensors
  (``size - 2*size/p``, plus the workspace shrink); ΔT combines the
  micro-tensor swap/recompute cost (now overlappable with the split op's
  own compute), the kernel-efficiency degradation of running ``p``
  micro-kernels, and merge copies for consumers that cannot execute
  split.

The source text of the paper omits Equations 4-5 (OCR loss); they are
reconstructed here from the surrounding prose and documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import RESIDE, MemOption, Plan, TensorConfig
from repro.core.profiler import ProfileData
from repro.core.recompute import chain_compute_time, planning_chain
from repro.core.simulate import (
    PREFETCH_OPS,
    TensorTimeline,
    _contributions,
    needs_whole_staging,
    recompute_extra,
    tensor_timeline,
)
from repro.errors import PlanningError
from repro.graph.graph import Graph
from repro.graph.liveness import LivenessInfo, compute_liveness
from repro.graph.tensor import (
    DIM_ATTRIBUTE,
    DIM_PARAMETER,
    DIM_SAMPLE,
    TensorKind,
    TensorSpec,
)
from repro.core.split_rules import (
    effective_split_config,
    op_exec_split,
    op_supports_split,
)
from repro.units import MB


@dataclass(frozen=True)
class Candidate:
    """One strategy choice the planner can apply.

    ``configs`` holds one or more (tensor id, config) assignments applied
    atomically — a single-tensor swap/recompute decision, or a *group*
    split aligning every tensor of the bottleneck op to one (dim, p_num).
    """

    configs: tuple[tuple[int, TensorConfig], ...]
    delta_m: float
    delta_t: float
    #: Members' configs *before* this candidate (for the cycle guard: the
    #: same assignment may be retried from a different starting state).
    prior: tuple[tuple[int, TensorConfig], ...] = ()

    #: The planner's greedy key ΔT / ΔM (lower is better). Materialised
    #: at construction: ``_better`` reads it twice per pairwise
    #: comparison, which a property would recompute every time.
    ratio: float = field(init=False)

    def __post_init__(self) -> None:
        ratio = (
            self.delta_t / self.delta_m if self.delta_m > 0 else float("inf")
        )
        object.__setattr__(self, "ratio", ratio)

    @property
    def key(self) -> tuple[frozenset, frozenset]:
        """Cycle-guard identity: the (before -> after) transition."""
        return (frozenset(self.prior), frozenset(self.configs))

    @property
    def tensor_id(self) -> int:
        """Primary tensor (first member), for reports."""
        return self.configs[0][0]

    @property
    def config(self) -> TensorConfig:
        """Primary config (first member), for reports."""
        return self.configs[0][1]

    @property
    def kind(self) -> str:
        """Coarse strategy classification for provenance and reports.

        ``"swap"`` / ``"recompute"`` for whole-tensor evictions,
        ``"split"`` for pure streaming splits, ``"split-swap"`` /
        ``"split-recompute"`` when the group's evicting members pair a
        split with an eviction (the paper's split-swap / split-recompute
        mechanisms).
        """
        has_split = any(cfg.is_split for _, cfg in self.configs)
        evict_opt = next(
            (cfg.opt.value for _, cfg in self.configs if cfg.evicts), None,
        )
        if has_split:
            return f"split-{evict_opt}" if evict_opt else "split"
        return evict_opt or self.configs[0][1].opt.value

    def describe(self) -> str:
        """Compact form: member configs plus the scored deltas."""
        members = ", ".join(
            f"t{tid}:{cfg.describe()}" for tid, cfg in self.configs
        )
        return (
            f"[{self.kind}] {members} "
            f"(dM={self.delta_m / MB:.1f}MB, dT={self.delta_t * 1e3:.3f}ms)"
        )


@dataclass(frozen=True)
class CostModelOptions:
    """Tuning knobs of the cost model / candidate generation."""

    prefetch_ops: int = PREFETCH_OPS
    split_p_nums: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128)
    min_split_bytes: int = 8 * MB
    min_evict_bytes: int = 1 * MB
    max_recompute_chain: int = 96
    allow_split: bool = True
    allow_recompute: bool = True
    allow_swap: bool = True


_CONFIG_INTERN: dict[tuple[MemOption, int, str], TensorConfig] = {}


def _intern_config(
    opt: MemOption, p_num: int = 1, dim: str = "sample",
) -> TensorConfig:
    """Value-interned :class:`TensorConfig` constructor.

    Candidate generation builds the same few hundred configs hundreds of
    thousands of times per planning run; interning skips the dataclass
    construction and hash precomputation.
    """
    key = (opt, p_num, dim)
    cfg = _CONFIG_INTERN.get(key)
    if cfg is None:
        cfg = TensorConfig(opt=opt, p_num=p_num, dim=dim)
        _CONFIG_INTERN[key] = cfg
    return cfg


class _ProbePlan:
    """Read-only plan overlay used for candidate probes.

    Candidate scoring evaluates thousands of hypothetical plans per
    decision; copying the committed config dict for each would dominate
    the planner. Probes only ever *read* configs, so an overlay with the
    candidate's member configs on top of the committed plan suffices.
    """

    __slots__ = ("_base", "_overrides")

    def __init__(self, base: Plan, overrides: dict[int, TensorConfig]) -> None:
        self._base = base
        self._overrides = overrides

    def config_for(self, tensor_id: int) -> TensorConfig:
        """The override if present, else the committed config."""
        cfg = self._overrides.get(tensor_id)
        return cfg if cfg is not None else self._base.config_for(tensor_id)


class CostModel:
    """ΔM / ΔT evaluation under a concrete plan state.

    The model holds a per-op timeline (execution times under the current
    split factors and op begin times) plus a simulated PCIe occupancy for
    both link directions; these are refreshed via :meth:`refresh` after
    every applied planner decision, so candidate evaluation itself is
    O(1) per candidate (prefix sums).
    """

    def __init__(
        self,
        graph: Graph,
        schedule: list[int],
        profile: ProfileData,
        options: CostModelOptions | None = None,
    ) -> None:
        self.graph = graph
        self.schedule = list(schedule)
        self.profile = profile
        self.options = options or CostModelOptions()
        self.liveness: LivenessInfo = compute_liveness(graph, schedule)
        self._timelines: dict[int, TensorTimeline | None] = {}
        # Filled by refresh():
        self.op_times = np.zeros(len(schedule))
        self.op_begin = np.zeros(len(schedule) + 1)
        self._idle_d2h = np.zeros(len(schedule) + 1)
        self._idle_h2d = np.zeros(len(schedule) + 1)
        # Caches valid for the *committed* plan object last passed to
        # refresh(); probe plans bypass them (identity-checked). They let
        # candidate generation reuse point evaluations across decisions:
        # an incremental refresh(plan, changed=...) invalidates only the
        # entries within the changed tensors' structural dependency
        # radius, a full refresh clears them wholesale.
        self._cached_plan: Plan | None = None
        self._exec_cache: dict[int, tuple[str, int] | None] = {}
        self._break_cache: dict[int, bool] = {}
        #: tensor id -> committed occupancy windows (start, end, bytes).
        self._windows_cache: dict[int, tuple[tuple[int, int, int], ...]] = {}
        #: RECOMPUTE contribution chain deps: tid -> read tids / inverse.
        self._contrib_deps: dict[int, tuple[int, ...]] = {}
        self._contrib_index: dict[int, set[int]] = {}
        #: tensor id -> {probe delta key -> windows}: candidate probes
        #: repeat across decisions (the same split ladder is re-scored at
        #: every bottleneck), so probe-side windows are cached too, keyed
        #: by the probe's (tid, config) delta over the committed plan.
        self._probe_cache: dict[
            int, dict[tuple, tuple[tuple[int, int, int], ...]],
        ] = {}
        self._probe_deps: dict[tuple[int, tuple], tuple[int, ...]] = {}
        self._probe_index: dict[int, set[tuple[int, tuple]]] = {}
        # Recompute-ΔT survives across decisions: entries are invalidated
        # per-tensor through the recorded chain dependencies.
        self._rdt_cache: dict[int, float | PlanningError] = {}
        self._rdt_deps: dict[int, tuple[int, ...]] = {}
        self._rdt_index: dict[int, set[int]] = {}
        # Static structural dependency sets (lazy) and static ΔT values.
        self._op_adjacency: dict[int, frozenset[int]] = {}
        self._break_deps: dict[int, frozenset[int]] = {}
        #: tensor id -> break-predicate positions whose dep set holds it.
        self._break_index: dict[int, set[int]] = {}
        self._pswap_cache: dict[int, float] = {}
        #: Step-1 eligible tensors (static filter), built lazily.
        self._eviction_pool: list | None = None
        #: (bottleneck, entries) — eviction pool narrowed by the static
        #: per-step guards; see :meth:`_nonsplit_pool_at`.
        self._nonsplit_eligible: tuple[int, list] | None = None
        #: Columnar (alloc, free, fwd_end, positions) arrays over the
        #: non-persistent pool entries plus the persistent positions —
        #: the static guards of :meth:`_nonsplit_pool_at`, vectorised.
        self._pool_static: tuple | None = None
        #: (tensor id, config) -> effective split. Pure in its key for a
        #: fixed graph, so it never needs invalidation — valid across
        #: committed plans and probes alike.
        self._esplit_memo: dict[
            tuple[int, TensorConfig], tuple[str, int] | None
        ] = {}
        #: Op id -> (outputs + inputs) tuple, in :func:`op_exec_split`'s
        #: priority order. Graph structure is immutable during planning.
        self._op_tids: dict[int, tuple[int, ...]] = {}
        #: Committed point values at one step: every candidate of a
        #: decision is scored at the same bottleneck, so the plan-side
        #: window sums repeat. Cleared by refresh() and on step change.
        self._point_step: int | None = None
        self._point_cache: dict[int, float] = {}

    # -- timelines ------------------------------------------------------------

    def timeline(self, tensor_id: int) -> TensorTimeline | None:
        """Cached phase-aware timeline of one tensor."""
        if tensor_id not in self._timelines:
            self._timelines[tensor_id] = tensor_timeline(
                self.graph, self.liveness, self.graph.tensors[tensor_id],
            )
        return self._timelines[tensor_id]

    # -- refresh under a plan ----------------------------------------------------

    def refresh(self, plan: Plan, changed: list[int] | None = None) -> None:
        """Recompute op times, begin times and PCIe occupancy for a plan.

        ``changed`` names the tensors whose configs were modified since
        the previous refresh of the *same* plan object: only the ops
        adjacent to them can change execution split factor, so only those
        schedule positions are re-timed (per-tensor invalidation). The
        PCIe occupancy is always re-simulated — transfers queue globally,
        but the simulation is proportional to the number of configured
        tensors, not to the schedule. Without ``changed`` (or for a new
        plan object) everything is rebuilt.
        """
        self._point_step = None
        self._point_cache.clear()
        steps = len(self.schedule)
        if changed is None or self._cached_plan is not plan:
            times = np.empty(steps)
            for idx, op_id in enumerate(self.schedule):
                p_num = self._op_split_factor(plan, op_id)
                times[idx] = self.profile.split_op_time(op_id, p_num)
            self.op_times = times
            self._rdt_cache.clear()
            self._rdt_deps.clear()
            self._rdt_index.clear()
            self._exec_cache.clear()
            self._break_cache.clear()
            self._windows_cache.clear()
            self._contrib_deps.clear()
            self._contrib_index.clear()
            self._probe_cache.clear()
            self._probe_deps.clear()
            self._probe_index.clear()
        else:
            position = self.liveness.position
            ops: set[int] = set()
            for tid in changed:
                tensor = self.graph.tensors[tid]
                if tensor.producer is not None:
                    ops.add(tensor.producer)
                ops.update(tensor.consumers)
            for op_id in ops:
                pos = position.get(op_id)
                if pos is None:
                    continue
                p_num = self._op_split_factor(plan, op_id)
                self.op_times[pos] = self.profile.split_op_time(op_id, p_num)
                self._exec_cache.pop(pos, None)
            for tid in changed:
                self._invalidate_rdt(tid)
                for dependant in list(self._rdt_index.get(tid, ())):
                    self._invalidate_rdt(dependant)
                for pos in self._break_index.get(tid, ()):
                    self._break_cache.pop(pos, None)
                for victim in self._affected_tensors(tid):
                    self._invalidate_contrib(victim)
                for dependant in list(self._contrib_index.get(tid, ())):
                    self._invalidate_contrib(dependant)
                for entry in list(self._probe_index.get(tid, ())):
                    entry_tid, entry_key = entry
                    per_tensor = self._probe_cache.get(entry_tid)
                    if per_tensor is not None:
                        per_tensor.pop(entry_key, None)
                    self._drop_probe_deps(entry)
        begin = np.zeros(steps + 1)
        np.cumsum(self.op_times, out=begin[1:])
        self.op_begin = begin
        self._simulate_pcie(plan)
        self._cached_plan = plan

    def _invalidate_rdt(self, tid: int) -> None:
        self._rdt_cache.pop(tid, None)
        for dep in self._rdt_deps.pop(tid, ()):
            dependants = self._rdt_index.get(dep)
            if dependants is not None:
                dependants.discard(tid)

    def _invalidate_contrib(self, tid: int) -> None:
        self._windows_cache.pop(tid, None)
        for dep in self._contrib_deps.pop(tid, ()):
            dependants = self._contrib_index.get(dep)
            if dependants is not None:
                dependants.discard(tid)
        per_tensor = self._probe_cache.pop(tid, None)
        if per_tensor:
            for key in per_tensor:
                self._drop_probe_deps((tid, key))

    def _drop_probe_deps(self, entry: tuple[int, tuple]) -> None:
        for dep in self._probe_deps.pop(entry, ()):
            entries = self._probe_index.get(dep)
            if entries is not None:
                entries.discard(entry)

    def _affected_tensors(self, tensor_id: int) -> set[int]:
        """Tensors whose point contribution may read ``tensor_id``'s config.

        Mirrors :meth:`repro.core.simulate.MemoryCurve._affected`: the
        tensor itself, every tensor sharing an op with it (exec splits at
        adjacent positions), and every tensor adjacent to a consumer of
        an output of an adjacent op (the whole-staging predicate's
        producer lookback). Chain dependants are tracked separately.
        """
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
        for op_id in ops:
            op = graph.ops[op_id]
            tensors.update(op.inputs)
            tensors.update(op.outputs)
        return tensors

    def _op_split_factor(self, plan: Plan, op_id: int) -> int:
        split = op_exec_split(self.graph, plan, self.graph.ops[op_id])
        return split[1] if split else 1

    def _simulate_pcie(self, plan: Plan) -> None:
        """Simulate ideal transfer placement; build idle-time prefix sums.

        Swap-outs queue on the D2H engine starting at the producing op's
        end; swap-ins queue on the H2D engine starting ``prefetch_ops``
        ops before their backward consumer. Each engine is serial. The
        result is, per op interval, how much of the link is already
        occupied (``Oc_u``) — stored as remaining-idle prefix sums.
        """
        steps = len(self.schedule)
        busy_d2h = np.zeros(steps)
        busy_h2d = np.zeros(steps)
        out_requests: list[tuple[float, float]] = []  # (ready_time, duration)
        in_requests: list[tuple[float, float]] = []
        for tid, cfg in plan.configs.items():
            if cfg.opt is not MemOption.SWAP:
                continue
            timeline = self.timeline(tid)
            if timeline is None:
                continue
            tensor = self.graph.tensors[tid]
            duration = self.profile.transfer_time(tensor.size_bytes)
            out_ready = self.op_begin[min(timeline.fwd_end + 1, steps)]
            out_requests.append((out_ready, duration))
            if timeline.bwd_uses:
                start_pos = max(0, timeline.bwd_uses[0] - self.options.prefetch_ops)
                in_requests.append((self.op_begin[start_pos], duration))

        for requests, busy in ((out_requests, busy_d2h), (in_requests, busy_h2d)):
            requests.sort()
            clock = 0.0
            for ready, duration in requests:
                start = max(clock, ready)
                end = start + duration
                clock = end
                self._mark_busy(busy, start, end)

        durations = self.op_times
        idle_d2h = np.maximum(durations - busy_d2h, 0.0)
        idle_h2d = np.maximum(durations - busy_h2d, 0.0)
        self._idle_d2h = np.concatenate(([0.0], np.cumsum(idle_d2h)))
        self._idle_h2d = np.concatenate(([0.0], np.cumsum(idle_h2d)))

    def _mark_busy(self, busy: np.ndarray, start: float, end: float) -> None:
        """Distribute a transfer interval over per-op busy accumulators."""
        begin = self.op_begin
        steps = len(busy)
        lo = int(np.searchsorted(begin, start, side="right") - 1)
        lo = max(0, min(lo, steps - 1))
        pos = lo
        while pos < steps and begin[pos] < end:
            seg_start = max(start, begin[pos])
            seg_end = min(end, begin[pos + 1])
            if seg_end > seg_start:
                busy[pos] += seg_end - seg_start
            pos += 1

    # -- idle-capacity queries ------------------------------------------------

    def idle_d2h(self, lo: int, hi: int) -> float:
        """Idle D2H seconds over op positions [lo, hi] inclusive."""
        lo = max(lo, 0)
        hi = min(hi, len(self.schedule) - 1)
        if hi < lo:
            return 0.0
        return float(self._idle_d2h[hi + 1] - self._idle_d2h[lo])

    def idle_h2d(self, lo: int, hi: int) -> float:
        """Idle H2D seconds over op positions [lo, hi] inclusive."""
        lo = max(lo, 0)
        hi = min(hi, len(self.schedule) - 1)
        if hi < lo:
            return 0.0
        return float(self._idle_h2d[hi + 1] - self._idle_h2d[lo])

    # -- per-strategy ΔT -------------------------------------------------------

    def swap_delta_t(self, tensor: TensorSpec, bottleneck: int) -> float:
        """Equation 3: un-hidable part of swap-out + swap-in transfers."""
        timeline = self.timeline(tensor.tensor_id)
        assert timeline is not None
        transfer = self.profile.transfer_time(tensor.size_bytes)
        out_cost = max(
            transfer - self.idle_d2h(timeline.fwd_end + 1, bottleneck - 1),
            0.0,
        )
        in_cost = 0.0
        if timeline.bwd_uses:
            q = timeline.bwd_uses[0]
            window_lo = max(bottleneck, q - self.options.prefetch_ops)
            in_cost = max(transfer - self.idle_h2d(window_lo, q - 1), 0.0)
        return out_cost + in_cost

    def recompute_delta_t(self, tensor: TensorSpec, plan: Plan) -> float:
        """Equation 4 (reconstructed): profiled chain regeneration time.

        The chain is the one the augmenter will actually emit: swapped
        tensors count as sources (their swap-in cost is charged to their
        own configuration), RESIDE tensors only while still alive at the
        regeneration step. Results for the committed plan are cached per
        tensor and invalidated through the chain's recorded config
        dependencies (see :meth:`refresh`).
        """
        tid = tensor.tensor_id
        committed = plan is self._cached_plan
        if committed:
            cached = self._rdt_cache.get(tid)
            if cached is not None:
                if isinstance(cached, PlanningError):
                    raise cached
                return cached
        timeline = self.timeline(tid)
        regen = timeline.bwd_uses[0] if timeline and timeline.bwd_uses else 0
        deps: set[int] | None = set() if committed else None
        try:
            chain = planning_chain(
                self.graph, tid, plan,
                self.liveness.free_step, regen,
                max_len=self.options.max_recompute_chain,
                deps=deps,
            )
        except PlanningError as exc:
            if committed:
                self._record_rdt(tid, exc, deps)
            raise
        value = chain_compute_time(chain, self.profile.op_time)
        if committed:
            self._record_rdt(tid, value, deps)
        return value

    def _record_rdt(
        self, tid: int, value: float | PlanningError, deps: set[int],
    ) -> None:
        deps.discard(tid)
        self._rdt_cache[tid] = value
        self._rdt_deps[tid] = tuple(deps)
        for dep in deps:
            self._rdt_index.setdefault(dep, set()).add(tid)

    def split_delta_t(
        self,
        tensor: TensorSpec,
        cfg: TensorConfig,
        plan: Plan,
        bottleneck: int,
    ) -> float:
        """Equation 6: micro-tensor memory cost + split kernel overheads."""
        timeline = self.timeline(tensor.tensor_id)
        assert timeline is not None
        p_num = cfg.p_num
        producer = tensor.producer

        # (1) micro-tensor swap/recompute cost, overlappable with the
        # split op's own pipelined execution. RESIDE+split (streaming
        # free at the last consumer) moves no bytes at all.
        if cfg.opt is MemOption.RESIDE:
            memory_cost = 0.0
        elif cfg.opt is MemOption.SWAP:
            transfer = self.profile.transfer_time(tensor.size_bytes)
            pipeline = 0.0
            if producer is not None:
                pipeline = (
                    self.profile.split_op_time(producer, p_num)
                    * (p_num - 1) / p_num
                )
            out_cost = max(
                transfer
                - pipeline
                - self.idle_d2h(timeline.fwd_end + 1, bottleneck - 1),
                0.0,
            )
            in_cost = 0.0
            if timeline.bwd_uses:
                q = timeline.bwd_uses[0]
                consumer = self.schedule[q]
                back_pipeline = (
                    self.profile.split_op_time(consumer, p_num)
                    * (p_num - 1) / p_num
                )
                window_lo = max(bottleneck, q - self.options.prefetch_ops)
                in_cost = max(
                    transfer - back_pipeline - self.idle_h2d(window_lo, q - 1),
                    0.0,
                )
            memory_cost = out_cost + in_cost
        else:
            memory_cost = self.recompute_delta_t(tensor, plan)

        # (2) + (3) split/merge copies and kernel degradation.
        overhead = 0.0
        adjacent_ops: set[int] = set()
        if producer is not None:
            adjacent_ops.add(producer)
        adjacent_ops.update(tensor.consumers)
        for op_id in adjacent_ops:
            op = self.graph.ops[op_id]
            if op_supports_split(op.op_type, cfg.dim):
                overhead += self.profile.split_overhead(op_id, p_num)
            else:
                # Consumer/producer cannot run split: materialise a merge
                # (or split) copy of the full tensor.
                overhead += self.profile.memcpy_time(tensor.size_bytes)
        return memory_cost + overhead

    # -- ΔM at the bottleneck ----------------------------------------------------

    def _op_adj(self, op_id: int) -> frozenset[int]:
        """Tensors whose configs decide the op's execution split."""
        adj = self._op_adjacency.get(op_id)
        if adj is None:
            op = self.graph.ops[op_id]
            adj = frozenset(list(op.inputs) + list(op.outputs))
            self._op_adjacency[op_id] = adj
        return adj

    def _break_dep_set(self, pos: int) -> frozenset[int]:
        """Tensors whose configs decide ``needs_whole_staging`` at ``pos``.

        Superset by construction: the op's inputs (own config +
        effective split), plus — for each input with a producer — that
        producer's adjacency (its execution split).
        """
        deps = self._break_deps.get(pos)
        if deps is None:
            op = self.graph.ops[self.schedule[pos]]
            acc: set[int] = set(op.inputs)
            for tid in op.inputs:
                producer = self.graph.tensors[tid].producer
                if producer is not None:
                    acc |= self._op_adj(producer)
            deps = frozenset(acc)
            self._break_deps[pos] = deps
            for tid in deps:
                self._break_index.setdefault(tid, set()).add(pos)
        return deps

    def _esplit(
        self, tensor: TensorSpec, cfg: TensorConfig,
    ) -> tuple[str, int] | None:
        """Memoised :func:`effective_split_config`."""
        if not cfg.is_split:
            return None
        key = (tensor.tensor_id, cfg)
        try:
            return self._esplit_memo[key]
        except KeyError:
            value = effective_split_config(self.graph, tensor, cfg)
            self._esplit_memo[key] = value
            return value

    def _op_exec_split(self, plan: Plan, op) -> tuple[str, int] | None:
        """:func:`op_exec_split` through the effective-split memo."""
        tensors = self.graph.tensors
        tids = self._op_tids.get(op.op_id)
        if tids is None:
            tids = tuple(op.outputs) + tuple(op.inputs)
            self._op_tids[op.op_id] = tids
        config_for = plan.config_for
        for tid in tids:
            split = self._esplit(tensors[tid], config_for(tid))
            if split is not None and op_supports_split(op.op_type, split[0]):
                return split
        return None

    def _exec_split_at(
        self,
        plan: Plan,
        pos: int,
        changed: frozenset[int] | None = None,
    ) -> tuple[str, int] | None:
        """Execution split of the op at ``pos``, cached for the committed
        plan; probe plans reuse the committed value when ``changed`` is
        disjoint from the op's adjacency."""
        if plan is not self._cached_plan and (
            changed is None
            or self._cached_plan is None
            or not changed.isdisjoint(
                self._op_adj(self.schedule[pos]))
        ):
            return self._op_exec_split(
                plan, self.graph.ops[self.schedule[pos]],
            )
        cache = self._exec_cache
        if pos not in cache:
            cache[pos] = self._op_exec_split(
                plan, self.graph.ops[self.schedule[pos]],
            )
        return cache[pos]

    def _breaks_at(
        self,
        plan: Plan,
        pos: int,
        changed: frozenset[int] | None = None,
    ) -> bool:
        """Whole-staging predicate at ``pos``, cached like
        :meth:`_exec_split_at` (dependency set: :meth:`_break_dep_set`)."""
        if plan is not self._cached_plan and (
            changed is None
            or self._cached_plan is None
            or not changed.isdisjoint(self._break_dep_set(pos))
        ):
            return needs_whole_staging(
                self.graph, plan, self.graph.ops[self.schedule[pos]],
                pos, self.timeline,
            )
        cache = self._break_cache
        if pos not in cache:
            self._break_dep_set(pos)  # register the invalidation index
            cache[pos] = needs_whole_staging(
                self.graph, plan, self.graph.ops[self.schedule[pos]],
                pos, self.timeline,
            )
        return cache[pos]

    def contribution(
        self,
        tensor: TensorSpec,
        plan: Plan,
        step: int,
        changed: frozenset[int] | None = None,
        probe_key: tuple | None = None,
    ) -> float:
        """Bytes ``tensor`` occupies at ``step`` under ``plan``.

        Mirrors :func:`repro.core.simulate._contributions` — including
        the recompute-chain transient and the streaming-region rules —
        evaluated point-wise so candidates can be scored without a full
        curve recomputation. Evaluations against the committed plan are
        cached per (tensor, step) until the next :meth:`refresh`; probe
        evaluations pass ``changed`` (the probe's modified tensor ids) so
        the point predicates can reuse committed results where their
        dependency sets are untouched.
        """
        tid = tensor.tensor_id
        committed = plan is self._cached_plan
        cacheable_probe = (
            not committed and changed is not None
            and self._cached_plan is not None
        )
        if committed:
            if self._point_step != step:
                self._point_step = step
                self._point_cache.clear()
            else:
                point = self._point_cache.get(tid)
                if point is not None:
                    return point
        windows: tuple[tuple[int, int, int], ...] | None = None
        if committed:
            windows = self._windows_cache.get(tid)
        elif cacheable_probe:
            if probe_key is None:
                probe_key = tuple(
                    (cid, plan.config_for(cid)) for cid in sorted(changed)
                )
            per_tensor = self._probe_cache.get(tid)
            if per_tensor is not None:
                windows = per_tensor.get(probe_key)

        if windows is None:
            timeline = self.timeline(tid)
            if timeline is None:
                if committed:
                    self._point_cache[tid] = 0.0
                return 0.0
            cfg = plan.config_for(tid)
            if cfg.is_split and self._esplit(tensor, cfg) is None:
                cfg = _intern_config(cfg.opt)
            chain_extra = 0
            deps: set[int] | None = None
            if cfg.opt is MemOption.RECOMPUTE:
                deps = set() if committed or cacheable_probe else None
                chain_extra = recompute_extra(
                    self.graph, plan, self.liveness.free_step, tensor,
                    timeline, deps=deps,
                )
                if deps is not None:
                    deps.discard(tid)
            windows = tuple(_contributions(
                self.graph, tensor, timeline, cfg, len(self.schedule) - 1,
                chain_extra,
                lambda pos: self._exec_split_at(plan, pos, changed),
                lambda pos: self._breaks_at(plan, pos, changed),
            ))
            if committed:
                self._windows_cache[tid] = windows
                if deps:
                    self._contrib_deps[tid] = tuple(deps)
                    for dep in deps:
                        self._contrib_index.setdefault(dep, set()).add(tid)
            elif cacheable_probe:
                self._probe_cache.setdefault(tid, {})[probe_key] = windows
                if deps:
                    entry = (tid, probe_key)
                    self._probe_deps[entry] = tuple(deps)
                    for dep in deps:
                        self._probe_index.setdefault(dep, set()).add(entry)

        total = 0.0
        for start, end, nbytes in windows:
            if start <= step <= end:
                total += nbytes
        if committed:
            self._point_cache[tid] = total
        return total

    def group_delta_m(
        self,
        members: list[tuple[TensorSpec, TensorConfig]],
        plan: Plan,
        probe: Plan,
        step: int,
    ) -> float:
        """Memory reduction at ``step`` from applying a config group.

        ``probe`` must already contain the group's configs. Includes the
        workspace shrink of the op executing at ``step``.
        """
        changed = frozenset(tensor.tensor_id for tensor, _ in members)
        probe_key = tuple(
            (cid, probe.config_for(cid)) for cid in sorted(changed)
        )
        reduction = 0.0
        contribution = self.contribution
        for tensor, _ in members:
            reduction += contribution(tensor, plan, step)
            reduction -= contribution(
                tensor, probe, step, changed=changed, probe_key=probe_key,
            )
        op = self.graph.ops[self.schedule[step]]
        if op.workspace_bytes:
            old_split = self._exec_split_at(plan, step)
            new_split = self._exec_split_at(probe, step, changed=changed)
            old_p = old_split[1] if old_split else 1
            new_p = new_split[1] if new_split else 1
            reduction += op.workspace_bytes * (1 / old_p - 1 / new_p)
        return reduction

    # -- candidate generation -------------------------------------------------

    def _eviction_candidates(self):
        """Yield Step-1-eligible tensors: the size, kind and lifetime
        guards depend only on the graph, never on the plan or the
        bottleneck, so :meth:`_nonsplit_pool_at` materialises this once
        (``_eviction_pool``) instead of re-filtering every tensor on
        every decision."""
        persistent_kinds = (
            TensorKind.PARAM, TensorKind.OPTIMIZER_STATE,
            TensorKind.GRAD_PARAM,
        )
        for tensor in self.graph.tensors.values():
            if tensor.size_bytes < self.options.min_evict_bytes:
                continue
            persistent = tensor.kind in persistent_kinds
            if not persistent and tensor.kind is not TensorKind.ACTIVATION:
                continue
            timeline = self.timeline(tensor.tensor_id)
            if timeline is None:
                continue
            yield tensor, timeline, persistent

    def persistent_swap_delta_t(self, tensor: TensorSpec) -> float:
        """ΔT of sharding a parameter / optimizer-state tensor to host.

        Conservative: one swap-in + swap-out round trip per use window,
        with no overlap credit — the planner should only reach for
        persistent tensors once activations are exhausted (which is when
        the paper's parameter-scale experiments need it).
        """
        tid = tensor.tensor_id
        cached = self._pswap_cache.get(tid)
        if cached is not None:
            return cached
        timeline = self.timeline(tid)
        if timeline is None:
            return 0.0
        transfer = self.profile.transfer_time(tensor.size_bytes)
        windows = max(1, len(timeline.use_positions))
        value = 2.0 * windows * transfer
        self._pswap_cache[tid] = value
        return value

    def _nonsplit_pool_at(self, bottleneck: int) -> list:
        """Step-1 victims whose *static* guards pass at ``bottleneck``.

        The exclusion set, persistent-use coverage and activation
        lifetime-window checks depend only on the graph and the
        bottleneck step — never on the plan — and a bottleneck persists
        across many consecutive decisions, so the eviction pool is
        filtered once per bottleneck step instead of once per decision.
        Entries are (tensor, timeline, persistent) in graph order, which
        decides ties between equally good candidates.
        """
        cached = self._nonsplit_eligible
        if cached is not None and cached[0] == bottleneck:
            return cached[1]
        current_op = self.graph.ops[self.schedule[bottleneck]]
        excluded = set(current_op.inputs) | set(current_op.outputs)
        if self._eviction_pool is None:
            self._eviction_pool = list(self._eviction_candidates())
        pool = self._eviction_pool
        if self._pool_static is None:
            nonp = [i for i, entry in enumerate(pool) if not entry[2]]
            self._pool_static = (
                np.fromiter(
                    (pool[i][1].alloc for i in nonp), np.int64, len(nonp),
                ),
                np.fromiter(
                    (pool[i][1].free for i in nonp), np.int64, len(nonp),
                ),
                np.fromiter(
                    (pool[i][1].fwd_end for i in nonp), np.int64, len(nonp),
                ),
                np.asarray(nonp, dtype=np.intp),
                [i for i, entry in enumerate(pool) if entry[2]],
            )
        alloc, free, fwd_end, nonp_pos, pers_pos = self._pool_static
        # Activation lifetime windows, all entries at once.
        keep = nonp_pos[
            (alloc < bottleneck) & (free > bottleneck)
            & (fwd_end < bottleneck)
        ].tolist()
        if self.options.allow_swap:
            for i in pers_pos:
                tensor, timeline, _ = pool[i]
                covered = any(
                    use - 1 <= bottleneck <= use
                    for use in timeline.use_positions
                )
                if tensor.kind is TensorKind.GRAD_PARAM:
                    covered = covered or timeline.alloc == bottleneck
                if not covered:
                    keep.append(i)
            keep.sort()
        eligible = [
            pool[i] for i in keep
            if pool[i][0].tensor_id not in excluded
        ]
        self._nonsplit_eligible = (bottleneck, eligible)
        return eligible

    def nonsplit_candidates(
        self, bottleneck: int, plan: Plan,
    ) -> list[Candidate]:
        """Step 1 of Algorithm 2: swap/recompute for live resident tensors.

        Enumerated from the per-bottleneck static pool
        (:meth:`_nonsplit_pool_at`), so only the plan-dependent guards
        run per decision.
        """
        candidates: list[Candidate] = []
        configs = plan.configs
        reside = MemOption.RESIDE
        swap_cfg = _intern_config(MemOption.SWAP)
        option_order = [
            option for option, allowed in (
                (MemOption.SWAP, self.options.allow_swap),
                (MemOption.RECOMPUTE, self.options.allow_recompute),
            ) if allowed
        ]
        for tensor, timeline, persistent in self._nonsplit_pool_at(bottleneck):
            tid = tensor.tensor_id
            cfg = configs.get(tid, RESIDE)
            if cfg.opt is not reside:
                continue  # already evicted; upgrades happen via split path
            if persistent:
                # Shard to host, resident only around uses (parameters,
                # optimizer state, ZeRO-style gradient offload). ΔM is
                # closed-form: full size, the pool having dropped the
                # tensors with a use window over the bottleneck.
                candidates.append(Candidate(
                    ((tid, swap_cfg),), float(tensor.size_bytes),
                    self.persistent_swap_delta_t(tensor),
                    prior=((tid, cfg),),
                ))
                continue
            for option in option_order:
                new_cfg = _intern_config(option, cfg.p_num, cfg.dim)
                probe = _ProbePlan(plan, {tid: new_cfg})
                dm = self.group_delta_m(
                    [(tensor, new_cfg)], plan, probe, bottleneck,
                )
                if dm <= 0:
                    continue
                try:
                    dt = (
                        self.swap_delta_t(tensor, bottleneck)
                        if option is MemOption.SWAP
                        else self.recompute_delta_t(tensor, plan)
                    )
                except PlanningError:
                    continue
                candidates.append(Candidate(
                    ((tid, new_cfg),), dm, dt,
                    prior=((tid, cfg),),
                ))
        return candidates

    def split_candidates(
        self, bottleneck: int, plan: Plan,
    ) -> list[Candidate]:
        """Step 2 of Algorithm 2: split the bottleneck op's tensors.

        Splitting an operation splits its tensors *together*: a group
        candidate aligns every eligible input/output of the bottleneck op
        to one (dim, p_num), which is what lets the augmenter form a
        coherent streaming region (mismatched part counts would force
        merges and destroy the reuse the split is meant to buy).
        """
        if not self.options.allow_split:
            return []
        current_op = self.graph.ops[self.schedule[bottleneck]]
        candidates: list[Candidate] = []
        # One-hop window: include the chained neighbour ops so their
        # shared tensors land in the same group and the streaming region
        # extends across them with one coherent (dim, p_num).
        window_ops = [current_op]
        if bottleneck + 1 < len(self.schedule):
            nxt = self.graph.ops[self.schedule[bottleneck + 1]]
            if set(nxt.inputs) & set(current_op.outputs):
                window_ops.append(nxt)
        if bottleneck - 1 >= 0:
            prv = self.graph.ops[self.schedule[bottleneck - 1]]
            if set(prv.outputs) & set(current_op.inputs):
                window_ops.append(prv)
        eligible_map: dict[int, TensorSpec] = {}
        for op in window_ops:
            for tensor in self._split_eligible(op, plan):
                eligible_map[tensor.tensor_id] = tensor
        eligible = list(eligible_map.values())
        if not eligible:
            return []
        touching: dict[int, list] = {
            t.tensor_id: [
                op for op in window_ops
                if t.tensor_id in op.inputs or t.tensor_id in op.outputs
            ]
            for t in eligible
        }
        for dim in (DIM_SAMPLE, DIM_PARAMETER, DIM_ATTRIBUTE):
            if not op_supports_split(current_op.op_type, dim):
                continue
            group_base = [
                t for t in eligible
                if dim in t.split_axes
                and op_supports_split(
                    self.graph.ops[t.producer].op_type, dim,
                )
                and all(
                    op_supports_split(op.op_type, dim)
                    for op in touching[t.tensor_id]
                )
            ]
            if not group_base:
                continue
            evict_options: list[MemOption] = []
            if self.options.allow_swap:
                evict_options.append(MemOption.SWAP)
            if self.options.allow_recompute:
                evict_options.append(MemOption.RECOMPUTE)
            if not evict_options:
                evict_options = [MemOption.RESIDE]
            for p_num in self.options.split_p_nums:
                if all(
                    tensor.shape[tensor.split_axes[dim]] < p_num
                    for tensor in group_base
                ):
                    break
                for evict_opt in evict_options:
                    members: list[tuple[TensorSpec, TensorConfig]] = []
                    changed = False
                    for tensor in group_base:
                        axis = tensor.split_axes[dim]
                        if tensor.shape[axis] < p_num:
                            continue
                        cfg = self._member_config(
                            tensor, plan, dim, p_num, evict_opt,
                        )
                        if cfg is None:
                            continue
                        members.append((tensor, cfg))
                        if plan.config_for(tensor.tensor_id) != cfg:
                            changed = True
                    if not members or not changed:
                        continue
                    probe = _ProbePlan(plan, {
                        tensor.tensor_id: cfg for tensor, cfg in members
                    })
                    dm = self.group_delta_m(members, plan, probe, bottleneck)
                    if dm <= 0:
                        continue
                    dt = 0.0
                    try:
                        for tensor, cfg in members:
                            dt += self.split_delta_t(
                                tensor, cfg, plan, bottleneck,
                            )
                    except PlanningError:
                        continue
                    candidates.append(Candidate(
                        tuple(
                            (tensor.tensor_id, cfg)
                            for tensor, cfg in members
                        ),
                        dm, dt,
                        prior=tuple(
                            (tensor.tensor_id,
                             plan.config_for(tensor.tensor_id))
                            for tensor, _ in members
                        ),
                    ))
        return candidates

    def regen_candidates(
        self, bottleneck: int, plan: Plan,
    ) -> list[Candidate]:
        """Split upgrades for evicted tensors whose regeneration window
        covers the bottleneck.

        A whole-tensor swap is prefetched a few ops early and occupies
        full size from the prefetch point; upgrading it to swap+split
        streams the pieces just-in-time inside its backward consumer and
        shrinks the window to the streaming depth.
        """
        if not self.options.allow_split or not self.options.allow_swap:
            return []
        candidates: list[Candidate] = []
        current_op = self.graph.ops[self.schedule[bottleneck]]
        local = set(current_op.inputs) | set(current_op.outputs)
        for tensor in self.graph.tensors.values():
            tid = tensor.tensor_id
            if tid in local:
                continue
            if tensor.kind is not TensorKind.ACTIVATION:
                continue
            old_cfg = plan.config_for(tid)
            if old_cfg.opt is not MemOption.SWAP:
                continue
            # Already-split tensors stay eligible: re-splitting to the
            # consumer's part count repairs a mismatched alignment that
            # would otherwise force whole-tensor regeneration.
            if tensor.size_bytes < self.options.min_split_bytes:
                continue
            timeline = self.timeline(tid)
            if timeline is None or not timeline.bwd_uses:
                continue
            first_bwd = timeline.bwd_uses[0]
            if not (first_bwd - self.options.prefetch_ops
                    <= bottleneck <= timeline.free):
                continue
            consumer = self.graph.ops[self.schedule[first_bwd]]
            producer = tensor.producer
            if producer is None:
                continue
            # Part counts worth trying: the backward consumer's and every
            # forward consumer's established split (streaming requires
            # agreement with all of them), then the generic ladder.
            exec_ps: list[int] = []
            for use in (first_bwd, *(
                p for p in timeline.use_positions if p <= timeline.fwd_end
            )):
                use_exec = op_exec_split(
                    self.graph, plan, self.graph.ops[self.schedule[use]],
                )
                if use_exec is not None and use_exec[1] not in exec_ps:
                    exec_ps.append(use_exec[1])
            for dim, axis in tensor.split_axes.items():
                if not op_supports_split(consumer.op_type, dim):
                    continue
                if not op_supports_split(
                    self.graph.ops[producer].op_type, dim,
                ):
                    continue
                p_choices: tuple[int, ...] = tuple(
                    dict.fromkeys((*exec_ps, *self.options.split_p_nums)),
                )
                for p_num in p_choices:
                    if p_num > tensor.shape[axis]:
                        continue
                    new_cfg = TensorConfig(
                        opt=MemOption.SWAP, p_num=p_num, dim=dim,
                    )
                    if new_cfg == old_cfg:
                        continue
                    probe = _ProbePlan(plan, {tid: new_cfg})
                    dm = self.group_delta_m(
                        [(tensor, new_cfg)], plan, probe, bottleneck,
                    )
                    if dm <= 0:
                        continue
                    try:
                        dt = self.split_delta_t(
                            tensor, new_cfg, plan, bottleneck,
                        )
                    except PlanningError:
                        continue
                    candidates.append(Candidate(
                        ((tid, new_cfg),), dm, dt,
                        prior=((tid, old_cfg),),
                    ))
        return candidates

    def _split_eligible(
        self, op, plan: Plan,
    ) -> list[TensorSpec]:
        """Tensors of an op that may participate in a split group."""
        eligible: list[TensorSpec] = []
        for tid in dict.fromkeys(list(op.inputs) + list(op.outputs)):
            tensor = self.graph.tensors[tid]
            if tensor.kind not in (
                TensorKind.ACTIVATION, TensorKind.GRAD_ACTIVATION,
            ):
                continue
            if tensor.size_bytes < self.options.min_split_bytes:
                continue
            if tensor.producer is None:
                continue
            eligible.append(tensor)
        return eligible

    def _member_config(
        self,
        tensor: TensorSpec,
        plan: Plan,
        dim: str,
        p_num: int,
        evict_opt: MemOption,
    ) -> TensorConfig | None:
        """Config a tensor gets inside a split group, or None to skip.

        Gradients stream in place (RESIDE); short-lived forward tensors
        free as they are consumed; long-lived activations are evicted
        micro-wise with ``evict_opt`` (the group generator proposes both
        a swap-preferring and a recompute-preferring variant and lets the
        ΔT/ΔM comparison decide).
        """
        if tensor.kind is TensorKind.GRAD_ACTIVATION:
            return TensorConfig(opt=MemOption.RESIDE, p_num=p_num, dim=dim)
        timeline = self.timeline(tensor.tensor_id)
        if timeline is None:
            return None
        if not timeline.bwd_uses and timeline.free <= timeline.alloc + 1:
            # Short-lived forward tensor: streaming free, no eviction.
            return TensorConfig(opt=MemOption.RESIDE, p_num=p_num, dim=dim)
        if evict_opt is MemOption.RESIDE:
            return None
        return TensorConfig(opt=evict_opt, p_num=p_num, dim=dim)

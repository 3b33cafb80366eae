"""The model-guided planner — Algorithm 2 of the paper.

Given an operation schedule and a GPU memory budget, the planner
simulates the memory requirement ``M_i`` at every op and, whenever it
exceeds the budget (a *memory bottleneck*), greedily applies the
candidate strategy with the smallest ``ΔT / ΔM``:

* **Step 1** — non-split strategies (swap / recompute) on live tensors
  that are not the current op's inputs/outputs;
* **Step 2** — split strategies on the current op's input/output tensors
  (including upgrading an already-evicted tensor to an evicted *split*
  tensor, which shrinks its regeneration footprint);
* **Step 3** — the better of the two is committed.

Planning terminates when every bottleneck is eliminated, or raises
:class:`~repro.errors.PlanningError` when no candidate remains (the
paper's "fail because of no more available tensors").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost_model import Candidate, CostModel, CostModelOptions
from repro.core.plan import Plan
from repro.core.profiler import ProfileData, Profiler
from repro.core.recompute import RecomputeStrategy
from repro.core.simulate import MemoryCurve
from repro.errors import PlanningError
from repro.graph.graph import Graph
from repro.graph.scheduler import dfs_schedule
from repro.hardware.gpu import GPUSpec
from repro.telemetry import get_telemetry
from repro.telemetry.provenance import PlanExplanation, PlanRecorder
from repro.units import format_bytes


@dataclass(frozen=True)
class PlannerOptions:
    """Planner tuning knobs.

    ``memory_margin`` reserves a slice of device memory for allocator
    slack (fragmentation, alignment); the planner plans against
    ``capacity * (1 - memory_margin)``.
    """

    memory_margin: float = 0.02
    max_decisions: int = 20_000
    cost: CostModelOptions = field(default_factory=CostModelOptions)
    recompute_strategy: RecomputeStrategy = RecomputeStrategy.MEMORY_CENTRIC
    #: Victim-selection ordering: "ratio" (the paper's ΔT/ΔM greedy),
    #: "largest" (biggest ΔM first) or "fifo" (earliest-generated tensor
    #: first) — the latter two exist for the victim-selection ablation.
    ordering: str = "ratio"


@dataclass
class PlanResult:
    """Outcome of a planning run."""

    plan: Plan
    schedule: list[int]
    peak_memory: int
    baseline_peak: int
    estimated_time: float
    baseline_time: float
    decisions: list[Candidate]

    @property
    def explanation(self) -> PlanExplanation | None:
        """Decision provenance, when recorded (see :mod:`repro.telemetry`)."""
        return self.plan.explanation

    @property
    def estimated_overhead(self) -> float:
        """ΔT(C) / T — the planner's own estimate of the slowdown."""
        if self.baseline_time <= 0:
            return 0.0
        return (self.estimated_time - self.baseline_time) / self.baseline_time

    def describe(self) -> str:
        return (
            f"plan[{self.plan.policy}]: peak "
            f"{format_bytes(self.baseline_peak)} -> "
            f"{format_bytes(self.peak_memory)}, est. time "
            f"{self.baseline_time * 1e3:.1f} -> "
            f"{self.estimated_time * 1e3:.1f} ms, "
            f"{len(self.decisions)} decisions"
        )


class TsplitPlanner:
    """Profiling-based planner (Algorithm 2).

    Parameters
    ----------
    gpu:
        Target device (capacity + performance model).
    options:
        Planner options; ``options.cost.allow_split=False`` yields the
        "TSPLIT w/o Split" ablation of Figure 14a.
    policy_name:
        Recorded on the produced plan.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        options: PlannerOptions | None = None,
        *,
        policy_name: str = "tsplit",
        profiler: Profiler | None = None,
    ) -> None:
        self.gpu = gpu
        self.options = options or PlannerOptions()
        self.policy_name = policy_name
        self.profiler = profiler or Profiler(gpu)

    def plan(
        self,
        graph: Graph,
        schedule: list[int] | None = None,
        profile: ProfileData | None = None,
        *,
        explain: bool | None = None,
    ) -> PlanResult:
        """Search a strategy combination that fits the GPU memory budget.

        ``explain=True`` records decision provenance
        (:class:`~repro.telemetry.provenance.PlanExplanation`) on the
        produced plan; ``None`` follows the active telemetry session.
        Provenance is observation only — the decision sequence is
        byte-identical with it on or off.

        Raises
        ------
        PlanningError
            If some bottleneck cannot be eliminated with the available
            tensors and strategies.
        """
        if schedule is None:
            schedule = dfs_schedule(graph)
        if profile is None:
            profile = self.profiler.profile(graph)

        budget = self.gpu.memory_bytes * (1.0 - self.options.memory_margin)
        plan = Plan(policy=self.policy_name)
        if explain is None:
            explain = get_telemetry().provenance
        recorder: PlanRecorder | None = None
        if explain:
            recorder = PlanRecorder(
                graph, schedule,
                policy=self.policy_name,
                capacity=self.gpu.memory_bytes,
                budget=budget,
            )
        cost_model = CostModel(graph, schedule, profile, self.options.cost)
        cost_model.refresh(plan)
        curve_state = MemoryCurve(graph, schedule, plan, cost_model.liveness)
        curve = curve_state.values
        baseline_peak = int(curve.max()) if len(curve) else 0
        baseline_time = profile.total_compute_time(schedule)
        if recorder is not None:
            recorder.begin(baseline_peak, baseline_time)
        extra_time = 0.0
        decisions: list[Candidate] = []
        # Cycle guard: a (tensor, config) pair is applied at most once, so
        # reconfiguration (upgrading an earlier choice) cannot oscillate.
        tried: set[tuple[frozenset, frozenset]] = set()

        while True:
            over_budget = np.nonzero(curve > budget)[0]
            if len(over_budget) == 0:
                break
            if len(decisions) >= self.options.max_decisions:
                raise PlanningError(
                    f"{graph.name}: exceeded {self.options.max_decisions} "
                    f"planning decisions; giving up"
                )
            # Attack the earliest bottleneck with remaining candidates.
            # A later bottleneck may be reducible (e.g. by re-aligning a
            # backward region's split) even when the earliest one is
            # only a side effect of it.
            candidate = None
            bottleneck = int(over_budget[0])
            pool: list[Candidate] | None = (
                [] if recorder is not None else None
            )
            for step in over_budget:
                if pool is not None:
                    pool.clear()
                candidate = self._best_candidate(
                    cost_model, int(step), plan, tried, pool=pool,
                )
                if candidate is not None:
                    bottleneck = int(step)
                    break
            if candidate is None:
                raise PlanningError(
                    f"{graph.name}: memory bottleneck at op "
                    f"{graph.ops[schedule[bottleneck]].name!r} (step "
                    f"{bottleneck}, needs {format_bytes(curve[bottleneck])}, "
                    f"budget {format_bytes(budget)}) has no remaining "
                    f"candidates"
                )
            peak_before = int(curve.max()) if recorder is not None else 0
            old_configs = {
                tid: plan.config_for(tid) for tid, _ in candidate.configs
            }
            for tid, config in candidate.configs:
                plan.set(tid, config)
            tried.add(candidate.key)
            extra_time += candidate.delta_t
            decisions.append(candidate)
            cost_model.refresh(plan, changed=[tid for tid, _ in candidate.configs])
            for tid, config in candidate.configs:
                curve_state.apply(tid, old_configs[tid], config)
            curve = curve_state.values
            if recorder is not None:
                recorder.record(
                    candidate,
                    step=bottleneck,
                    rejected=self._rejections(candidate, pool, tried),
                    peak_before=peak_before,
                    peak_after=int(curve.max()) if len(curve) else 0,
                )

        final_peak = int(curve.max()) if len(curve) else 0
        if recorder is not None:
            plan.explanation = recorder.finish(
                final_peak, baseline_time + extra_time,
            )
        return PlanResult(
            plan=plan,
            schedule=schedule,
            peak_memory=final_peak,
            baseline_peak=baseline_peak,
            estimated_time=baseline_time + extra_time,
            baseline_time=baseline_time,
            decisions=decisions,
        )

    def _best_candidate(
        self,
        cost_model: CostModel,
        bottleneck: int,
        plan: Plan,
        tried: set[tuple[frozenset, frozenset]],
        pool: list[Candidate] | None = None,
    ) -> Candidate | None:
        """Steps 1-3 of Algorithm 2: propose, compare, select.

        ``pool``, when given, receives every generated candidate
        (including cycle-guarded ones) for provenance recording; it
        never influences the selection.
        """
        best: Candidate | None = None
        step1 = cost_model.nonsplit_candidates(bottleneck, plan)
        step2 = cost_model.split_candidates(bottleneck, plan)
        step2b = cost_model.regen_candidates(bottleneck, plan)
        for candidate in step1 + step2 + step2b:
            if pool is not None:
                pool.append(candidate)
            if candidate.key in tried:
                continue
            if best is None or _better(candidate, best, self.options.ordering):
                best = candidate
        return best

    def _rejections(
        self,
        accepted: Candidate,
        pool: list[Candidate] | None,
        tried: set[tuple[frozenset, frozenset]],
    ) -> list[tuple[Candidate, str]]:
        """Pair each non-accepted pool candidate with its rejection reason."""
        if not pool:
            return []
        ordering = self.options.ordering
        rejected: list[tuple[Candidate, str]] = []
        for candidate in pool:
            if candidate is accepted:
                continue
            if candidate.key in tried and candidate.key != accepted.key:
                reason = "cycle guard: transition already applied"
            elif ordering == "ratio":
                reason = (
                    f"dT/dM {candidate.ratio:.3e} not better than "
                    f"accepted {accepted.ratio:.3e}"
                )
            else:
                reason = f"lost {ordering!r} victim-selection ordering"
            rejected.append((candidate, reason))
        return rejected


def _better(a: Candidate, b: Candidate, ordering: str = "ratio") -> bool:
    """Candidate ordering under the configured victim-selection rule."""
    if ordering == "largest":
        if a.delta_m != b.delta_m:
            return a.delta_m > b.delta_m
        return a.delta_t < b.delta_t
    if ordering == "fifo":
        if a.tensor_id != b.tensor_id:
            return a.tensor_id < b.tensor_id
        return a.ratio < b.ratio
    # The paper's greedy: smaller ΔT/ΔM wins; ties go to larger ΔM.
    if a.ratio != b.ratio:
        return a.ratio < b.ratio
    return a.delta_m > b.delta_m

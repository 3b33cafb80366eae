"""Planner oracles: the incremental curve, fresh-model replay, golden digests.

The planner keeps a :class:`MemoryCurve` and a :class:`CostModel` warm
across decisions instead of rebuilding them after each one. Three
oracles check that this changes nothing:

* :func:`simulate_memory` — the curve after every decision must equal a
  from-scratch simulation bit for bit (every interval is integer bytes,
  so the difference-array update is exact, not approximate).
* Fresh-model replay — every decision must be re-derived by a cost
  model built from scratch on the plan so far, and every probe-scored
  candidate's ΔM must equal a value recomputed with no cache from
  :mod:`repro.core.simulate`'s functions alone.
* Golden digests — ``tests/data/planner_golden.json`` pins the decision
  sequence and the plan of a fixed set of configurations. Regenerate it
  only for an intended plan change::

      PYTHONPATH=src python tests/test_incremental_simulate.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost_model import CostModel, CostModelOptions
from repro.core.plan import MemOption, Plan, TensorConfig
from repro.core.planner import PlannerOptions, TsplitPlanner
from repro.core.profiler import Profiler
from repro.core.simulate import (
    MemoryCurve,
    _contributions,
    needs_whole_staging,
    recompute_extra,
    simulate_memory,
    tensor_timeline,
)
from repro.core.split_rules import effective_split, op_exec_split
from repro.errors import PlanningError
from repro.graph.scheduler import dfs_schedule
from repro.graph.tensor import TensorKind
from repro.hardware.gpu import GPU_PRESETS
from repro.models.random_net import build_random_cnn
from repro.models.registry import build_model
from repro.serve.service import plan_digest


def replay_decisions(model: str, batch: int, gpu_name: str) -> int:
    """Re-apply a planned decision sequence, checking the curve after
    every decision against a from-scratch simulation."""
    graph = build_model(model, batch)
    gpu = GPU_PRESETS[gpu_name]
    result = TsplitPlanner(gpu).plan(graph)
    assert result.decisions, "planner made no decisions; test is vacuous"

    schedule = result.schedule
    plan = Plan(policy="replay")
    curve = MemoryCurve(graph, schedule, plan)
    np.testing.assert_array_equal(
        curve.values, simulate_memory(graph, schedule, plan),
    )
    for decision in result.decisions:
        old = {tid: plan.config_for(tid) for tid, _ in decision.configs}
        for tid, config in decision.configs:
            plan.set(tid, config)
        for tid, config in decision.configs:
            curve.apply(tid, old[tid], config)
        expected = simulate_memory(graph, schedule, plan)
        np.testing.assert_array_equal(curve.values, expected)
    assert curve.peak() == result.peak_memory
    return len(result.decisions)


class TestDecisionReplay:
    def test_vgg16(self):
        assert replay_decisions("vgg16", 512, "gtx_1080ti") > 0

    def test_bert_large(self):
        assert replay_decisions("bert_large", 64, "gtx_1080ti") > 0


class TestRandomPlans:
    """Property test: arbitrary config mutations on random graphs."""

    OPTIONS = [
        TensorConfig(opt=MemOption.RESIDE),
        TensorConfig(opt=MemOption.SWAP),
        TensorConfig(opt=MemOption.RECOMPUTE),
        TensorConfig(opt=MemOption.RESIDE, p_num=2, dim="sample"),
        TensorConfig(opt=MemOption.SWAP, p_num=4, dim="sample"),
        TensorConfig(opt=MemOption.RECOMPUTE, p_num=2, dim="sample"),
        TensorConfig(opt=MemOption.RESIDE, p_num=2, dim="parameter"),
    ]

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_mutation_sequence(self, seed):
        rng = random.Random(seed)
        graph = build_random_cnn(seed)
        schedule = dfs_schedule(graph)
        plan = Plan(policy="fuzz")
        curve = MemoryCurve(graph, schedule, plan)
        tensor_ids = sorted(graph.tensors)
        for _ in range(30):
            tid = rng.choice(tensor_ids)
            old = plan.config_for(tid)
            new = rng.choice(self.OPTIONS)
            plan.set(tid, new)
            curve.apply(tid, old, new)
            np.testing.assert_array_equal(
                curve.values, simulate_memory(graph, schedule, plan),
            )

    def test_noop_apply_keeps_curve(self):
        graph = build_random_cnn(7)
        schedule = dfs_schedule(graph)
        plan = Plan(policy="fuzz")
        curve = MemoryCurve(graph, schedule, plan)
        before = curve.values.copy()
        tid = sorted(graph.tensors)[0]
        cfg = plan.config_for(tid)
        curve.apply(tid, cfg, cfg)
        np.testing.assert_array_equal(curve.values, before)


#: Persistent swaps are priced in closed form (full size unless a use
#: window covers the bottleneck), not by a probe, so the from-scratch ΔM
#: does not apply to them: it disagrees wherever the tensor does not
#: exist yet at the bottleneck (a gradient allocated later), which the
#: golden resnet50 b=64 at 8% entry pins until that pricing is fixed.
CLOSED_FORM_KINDS = (
    TensorKind.PARAM, TensorKind.OPTIMIZER_STATE, TensorKind.GRAD_PARAM,
)


def scratch_bytes_at(graph, schedule, liveness, plan, tensor, step) -> float:
    """Bytes ``tensor`` occupies at ``step``, from simulate.py alone."""
    timeline = tensor_timeline(graph, liveness, tensor)
    if timeline is None:
        return 0.0
    cfg = plan.config_for(tensor.tensor_id)
    if cfg.is_split and effective_split(graph, plan, tensor) is None:
        cfg = TensorConfig(opt=cfg.opt)
    chain_extra = 0
    if cfg.opt is MemOption.RECOMPUTE:
        chain_extra = recompute_extra(
            graph, plan, liveness.free_step, tensor, timeline,
        )

    def timeline_of(tid):
        return tensor_timeline(graph, liveness, graph.tensors[tid])

    windows = _contributions(
        graph, tensor, timeline, cfg, len(schedule) - 1, chain_extra,
        lambda pos: op_exec_split(graph, plan, graph.ops[schedule[pos]]),
        lambda pos: needs_whole_staging(
            graph, plan, graph.ops[schedule[pos]], pos, timeline_of,
        ),
    )
    total = 0.0
    for start, end, nbytes in windows:
        if start <= step <= end:
            total += nbytes
    return total


def scratch_delta_m(graph, schedule, liveness, plan, candidate, step) -> float:
    """A candidate's ΔM at ``step``, on a copied plan with no cache."""
    probe = plan.copy()
    for tid, cfg in candidate.configs:
        probe.set(tid, cfg)
    reduction = 0.0
    for tid, _ in candidate.configs:
        tensor = graph.tensors[tid]
        reduction += scratch_bytes_at(graph, schedule, liveness, plan, tensor, step)
        reduction -= scratch_bytes_at(graph, schedule, liveness, probe, tensor, step)
    op = graph.ops[schedule[step]]
    if op.workspace_bytes:
        old_split = op_exec_split(graph, plan, op)
        new_split = op_exec_split(graph, probe, op)
        old_p = old_split[1] if old_split else 1
        new_p = new_split[1] if new_split else 1
        reduction += op.workspace_bytes * (1 / old_p - 1 / new_p)
    return reduction


def fresh_model_replay(graph, gpu, options: PlannerOptions | None = None) -> int:
    """Re-derive every decision of a planning run with a fresh cost model.

    A model built from scratch for each decision carries no state across
    decisions, so agreement checks every invalidation rule of the warm
    model (recompute-ΔT, committed and probe windows, exec/staging
    predicates, the per-bottleneck pool). Returns the number of
    candidate ΔMs checked against :func:`scratch_delta_m`.
    """
    options = options or PlannerOptions()
    profile = Profiler(gpu).profile(graph)
    planner = TsplitPlanner(gpu, options)
    result = planner.plan(graph, profile=profile)
    schedule = result.schedule
    budget = gpu.memory_bytes * (1.0 - options.memory_margin)
    plan = Plan(policy=planner.policy_name)
    tried: set = set()
    checked = 0
    for index, decision in enumerate(result.decisions):
        model = CostModel(graph, schedule, profile, options.cost)
        model.refresh(plan)
        curve = simulate_memory(graph, schedule, plan, model.liveness)
        pool: list = []
        found = None
        for step in np.nonzero(curve > budget)[0]:
            pool.clear()
            found = planner._best_candidate(
                model, int(step), plan, tried, pool=pool,
            )
            if found is not None:
                break
        assert found is not None, f"decision {index}: no candidate"
        assert (found.key, found.delta_m, found.delta_t) == (
            decision.key, decision.delta_m, decision.delta_t,
        ), f"decision {index}"
        for candidate in pool:
            if graph.tensors[candidate.tensor_id].kind in CLOSED_FORM_KINDS:
                continue
            expected = scratch_delta_m(
                graph, schedule, model.liveness, plan, candidate, int(step),
            )
            assert candidate.delta_m == expected, (
                f"decision {index}: {candidate.describe()} "
                f"scored {candidate.delta_m!r}, from scratch {expected!r}"
            )
            checked += 1
        for tid, cfg in decision.configs:
            plan.set(tid, cfg)
        tried.add(decision.key)
    assert plan == result.plan
    return checked


def device(gpu_name: str, capacity_frac: float = 1.0):
    gpu = GPU_PRESETS[gpu_name]
    if capacity_frac != 1.0:
        gpu = gpu.with_memory(int(gpu.memory_bytes * capacity_frac))
    return gpu


def tight_options() -> PlannerOptions:
    return PlannerOptions(
        cost=CostModelOptions(min_split_bytes=0, min_evict_bytes=0),
    )


class TestFreshModelReplay:
    @pytest.mark.parametrize("model,batch,gpu_name,capacity_frac", [
        ("vgg16", 512, "gtx_1080ti", 1.0),
        ("resnet50", 256, "v100_16gb", 1.0),
        # Has persistent swaps (the closed-form exemption above).
        ("resnet50", 64, "gtx_1080ti", 0.08),
    ])
    def test_registry_model(self, model, batch, gpu_name, capacity_frac):
        graph = build_model(model, batch)
        gpu = device(gpu_name, capacity_frac)
        assert fresh_model_replay(graph, gpu) > 0

    def test_tight_tiny_cnn(self):
        from tests.conftest import BIG_GPU, build_tiny_cnn

        graph = build_tiny_cnn(batch=64, image=32)
        baseline = TsplitPlanner(BIG_GPU).plan(graph).baseline_peak
        gpu = BIG_GPU.with_memory(int(baseline * 0.7))
        assert fresh_model_replay(graph, gpu, tight_options()) > 0

    def test_random_cnns(self):
        """Random nets at 70% and 50% of their unplanned peak; a budget the
        planner cannot meet has no decisions to replay."""
        from tests.conftest import BIG_GPU

        feasible = 0
        for seed in range(12):
            graph = build_random_cnn(seed)
            baseline = TsplitPlanner(BIG_GPU).plan(graph).baseline_peak
            for fraction in (0.7, 0.5):
                gpu = BIG_GPU.with_memory(int(baseline * fraction))
                try:
                    checked = fresh_model_replay(graph, gpu, tight_options())
                except PlanningError:
                    continue
                assert checked > 0
                feasible += 1
        assert feasible == 18


# -- golden decision digests --------------------------------------------------

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "planner_golden.json"

#: pipebench ``sweep_cold``'s TSPLIT grid on a GTX 1080Ti, resnet50 on a
#: V100, the bert_large case :class:`TestDecisionReplay` uses, and a
#: budget tight enough for persistent swaps (model, batch, GPU preset,
#: capacity share).
GOLDEN_CONFIGS = [
    *(
        (model, batch, "gtx_1080ti", 1.0)
        for model, batches in (
            ("vgg16", (256, 512)),
            ("resnet50", (256, 384)),
            ("resnet101", (256, 384)),
            ("inception_v4", (128, 160)),
            ("transformer", (128, 256)),
            ("bert_large", (16, 32)),
        )
        for batch in batches
    ),
    ("resnet50", 256, "v100_16gb", 1.0),
    ("bert_large", 64, "gtx_1080ti", 1.0),
    ("resnet50", 64, "gtx_1080ti", 0.08),
]


def golden_id(model: str, batch: int, gpu_name: str, capacity_frac: float) -> str:
    return f"{model}/b{batch}/{gpu_name}@{capacity_frac:g}"


def golden_entry(result) -> dict:
    """What the golden file pins about one planning run."""
    sequence = [
        [
            [[tid, cfg.opt.value, cfg.p_num, cfg.dim] for tid, cfg in d.configs],
            repr(d.delta_m), repr(d.delta_t),
        ]
        for d in result.decisions
    ]
    return {
        "decisions": len(result.decisions),
        "decision_digest": hashlib.sha256(
            json.dumps(sequence).encode()).hexdigest(),
        "plan_digest": plan_digest(result.plan),
        "peak_memory": result.peak_memory,
        "estimated_time": repr(result.estimated_time),
    }


def plan_golden_config(model, batch, gpu_name, capacity_frac) -> dict:
    graph = build_model(model, batch)
    return golden_entry(
        TsplitPlanner(device(gpu_name, capacity_frac)).plan(graph),
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenDigests:
    def test_file_covers_every_config(self, golden):
        assert sorted(golden) == sorted(golden_id(*c) for c in GOLDEN_CONFIGS)

    @pytest.mark.parametrize(
        "config", GOLDEN_CONFIGS, ids=[golden_id(*c) for c in GOLDEN_CONFIGS],
    )
    def test_plan_matches_golden(self, golden, config):
        assert plan_golden_config(*config) == golden[golden_id(*config)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Planner golden digests.")
    parser.add_argument(
        "--write", action="store_true",
        help=f"re-plan every golden config and rewrite {GOLDEN_PATH.name}")
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("nothing to do; pass --write")
    entries = {golden_id(*c): plan_golden_config(*c) for c in GOLDEN_CONFIGS}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

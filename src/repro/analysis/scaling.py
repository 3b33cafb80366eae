"""Maximum trainable scale searches (Tables IV, V, VI, VII).

*Sample scale* fixes the parameter size and searches the largest batch a
policy can train on a given GPU; *parameter scale* fixes the batch at 16
and searches the largest channel/hidden multiplier. Both use exponential
growth followed by binary search over the feasibility predicate
"the policy plans AND the engine executes without OOM".
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from repro.analysis.parallel import sweep
from repro.analysis.runner import EvalResult, evaluate
from repro.core.augment import AugmentOptions
from repro.hardware.gpu import GPUSpec
from repro.pipeline import CompileCache
from repro.policies.base import MemoryPolicy, get_policy
from repro.runtime.engine import EngineOptions

#: Batch the paper fixes for parameter-scale experiments (Table V).
PARAM_SCALE_BATCH = 16

_FAST_ENGINE = EngineOptions(record_trace=False)


def _feasible(
    model: str | Callable,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    batch: int,
    param_scale: float,
    augment_options: AugmentOptions | None,
    cache: CompileCache | None = None,
    **overrides,
) -> EvalResult:
    return evaluate(
        model, policy, gpu, batch,
        param_scale=param_scale,
        augment_options=augment_options,
        engine_options=_FAST_ENGINE,
        cache=cache,
        **overrides,
    )


def _search_max(predicate: Callable[[int], bool], start: int, cap: int) -> int:
    """Largest integer n in [0, cap] with predicate(n); 0 if none.

    Exponential probe from ``start`` then binary search. ``predicate``
    is assumed monotone (feasible below, infeasible above).
    """
    if cap < 1 or not predicate(max(1, start)):
        # Even the starting point fails: search downward range [1, start].
        lo, hi = 0, max(1, start)
        if hi == 1:
            return 1 if cap >= 1 and predicate(1) else 0
    else:
        lo = max(1, start)
        hi = lo
        while hi < cap:
            nxt = min(cap, hi * 2)
            if nxt == hi:
                break
            if predicate(nxt):
                lo = hi = nxt
            else:
                hi = nxt
                break
        if hi >= cap and predicate(cap):
            return cap
    # Invariant: feasible(lo) (or lo == 0), infeasible(hi).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_sample_scale(
    model: str | Callable,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    *,
    param_scale: float = 1.0,
    start: int = 8,
    cap: int = 4096,
    augment_options: AugmentOptions | None = None,
    cache: CompileCache | None = None,
    **overrides,
) -> int:
    """Largest trainable batch size; 0 when even batch 1 fails."""
    if isinstance(policy, str):
        policy = get_policy(policy)

    def predicate(batch: int) -> bool:
        return _feasible(
            model, policy, gpu, batch, param_scale, augment_options,
            cache=cache, **overrides,
        ).feasible

    return _search_max(predicate, start, cap)


def max_param_scale(
    model: str | Callable,
    policy: MemoryPolicy | str,
    gpu: GPUSpec,
    *,
    batch: int = PARAM_SCALE_BATCH,
    start: int = 1,
    cap: int = 512,
    augment_options: AugmentOptions | None = None,
    cache: CompileCache | None = None,
    **overrides,
) -> int:
    """Largest trainable integer parameter-scale multiplier; 0 if none."""
    if isinstance(policy, str):
        policy = get_policy(policy)

    def predicate(k: int) -> bool:
        return _feasible(
            model, policy, gpu, batch, float(k), augment_options,
            cache=cache, **overrides,
        ).feasible

    return _search_max(predicate, start, cap)


def scale_table(
    models: list[str],
    policies: list[str],
    gpu: GPUSpec,
    *,
    axis: str = "sample",
    parallel: int | bool | None = None,
    backend: str | None = None,
    cache: CompileCache | None = None,
    cache_dir: str | None = None,
    **kwargs,
) -> dict[str, dict[str, int]]:
    """Reproduce one of the paper's scale tables.

    Returns ``{model: {policy: max_scale}}``; 0 encodes both "infeasible
    at any scale" and "policy inapplicable" (the paper's "x").

    Each (model, policy) cell is an independent search, so ``parallel=``
    fans the cells out over the chosen ``backend``; each search is
    itself sequential (exponential probe + binary search). The shared
    ``cache`` (threads) or the ``cache_dir`` disk tier (processes) lets
    different policies probing the same (model, scale) point reuse one
    profile.
    """
    if axis not in ("sample", "parameter"):
        raise ValueError(f"axis must be 'sample' or 'parameter', not {axis!r}")
    search = max_sample_scale if axis == "sample" else max_param_scale
    cells = [(model, policy) for model in models for policy in policies]
    results = sweep(
        [
            functools.partial(search, model, policy, gpu, **kwargs)
            for model, policy in cells
        ],
        parallel, backend=backend, cache=cache, cache_dir=cache_dir,
    )
    table: dict[str, dict[str, int]] = {model: {} for model in models}
    for (model, policy), value in zip(cells, results):
        table[model][policy] = value
    return table

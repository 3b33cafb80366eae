"""Shared fan-out helpers for the analysis sweeps.

Sweep points are independent (graph build + compile + simulated
execution per point), so the sweeps expose ``parallel=`` / ``backend=``
knobs and fan out through :func:`sweep`. A sweep point is a
``functools.partial`` of a module-level function that takes ``cache=``
— never a closure — so the same point list drives every backend, and
:func:`sweep` alone decides which :class:`~repro.pipeline.CompileCache`
each call gets. Two pools are available, and the distinction matters
because the planner and the discrete-event engine are **pure Python** —
the GIL serialises them in threads:

* ``backend="thread"`` shares one in-memory
  :class:`~repro.pipeline.CompileCache` by reference, so it is the right
  choice when most points are cache hits (re-plans against a warm
  profile) or when point work is dominated by the blocking IO of a
  disk-backed cache. Compute-bound points do **not** overlap.
* ``backend="process"`` sidesteps the GIL entirely and is the right
  choice for compute-bound sweeps (cold profiling + planning). Worker
  processes cannot share memory, so the points must be picklable
  (registry model/policy names, module-level builders) and cache
  sharing goes through the persistent disk tier (``cache_dir=``):
  :func:`worker_cache` gives each worker one cache per directory.
* ``backend="serial"`` runs the plain list comprehension.

Result order always matches input order and the per-point computation is
deterministic, so all three backends produce byte-identical point lists.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import pickle
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass

from repro.pipeline import CompileCache

BACKENDS = ("serial", "thread", "process")

#: Environment override capping every resolved worker count (useful on
#: shared CI machines where ``os.cpu_count()`` over-reports). When a
#: :func:`worker_budget` context is active the cap is treated as a
#: *machine-wide* budget: the budget carves each concurrent caller's
#: share out of it rather than granting the full cap to everyone.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Context-local worker budget (``None`` = unbudgeted). Set by layers
#: that multiplex many concurrent sweeps over one machine — the serve
#: daemon enters :func:`worker_budget` around each request so N
#: concurrent ``backend="process"`` sweeps cannot each claim the whole
#: ``REPRO_MAX_WORKERS`` cap and oversubscribe N × cap workers.
_WORKER_BUDGET: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_worker_budget", default=None,
)


def _max_workers_cap() -> int | None:
    """The ``REPRO_MAX_WORKERS`` cap, or ``None`` when unset/invalid."""
    raw = os.environ.get(MAX_WORKERS_ENV)
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        return None
    return cap if cap >= 1 else None


def active_worker_budget() -> int | None:
    """The context's worker budget, or ``None`` when unbudgeted."""
    return _WORKER_BUDGET.get()


@contextmanager
def worker_budget(budget: int | None):
    """Scope a worker budget over the calling context.

    Every :func:`resolve_workers` call made while the context is active
    (including deep inside a sweep) resolves at most ``budget`` workers,
    regardless of what ``parallel=`` asked for. Budgets compose by
    shrinking: entering a smaller budget inside a larger one tightens
    the cap, entering a larger one does not loosen it. ``None`` is a
    no-op scope (useful for optional plumbing).

    This is the hook pool-like layers use to treat the machine — not
    each request — as the unit of provisioning: a server with W request
    slots enters ``worker_budget(machine_cap // W)`` around each
    request, so W concurrent sweeps collectively stay within the
    machine cap instead of oversubscribing W × cap workers.
    """
    if budget is not None:
        budget = max(1, int(budget))
        current = _WORKER_BUDGET.get()
        if current is not None:
            budget = min(budget, current)
    token = _WORKER_BUDGET.set(budget)
    try:
        yield budget
    finally:
        _WORKER_BUDGET.reset(token)


def resolve_workers(
    parallel: int | bool | None,
    n_items: int,
    *,
    budget: int | None = None,
) -> int:
    """Worker count for a ``parallel=`` setting.

    ``None``/``False``/``0``/``1`` mean serial; ``True`` uses the full
    machine (``os.cpu_count()``); an integer caps the pool. Never more
    workers than items, and the ``REPRO_MAX_WORKERS`` environment
    variable, when set, caps every resolved count.

    ``budget`` (explicit argument, or the enclosing
    :func:`worker_budget` context when the argument is ``None``) caps
    the count further: it is the caller's *share* of the machine when
    several sweeps run concurrently, so the environment cap holds
    machine-wide instead of per-sweep.
    """
    if not parallel or n_items <= 1:
        return 1
    if parallel is True:
        workers = os.cpu_count() or 4
    else:
        workers = int(parallel)
    cap = _max_workers_cap()
    if cap is not None:
        workers = min(workers, cap)
    if budget is None:
        budget = _WORKER_BUDGET.get()
    if budget is not None:
        workers = min(workers, max(1, int(budget)))
    return max(1, min(workers, n_items))


def resolve_backend(
    backend: str | None, parallel: int | bool | None,
) -> str:
    """Normalise a ``backend=`` setting against the ``parallel=`` knob.

    ``None`` keeps the historical behaviour: threads when ``parallel``
    asks for workers, serial otherwise. An explicit backend name is
    validated against :data:`BACKENDS`.
    """
    if backend is None:
        return "thread" if parallel else "serial"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _check_picklable(fn: Callable, items: Sequence) -> None:
    """Fail fast (and helpfully) before handing work to child processes.

    Probes the task function plus **one item per distinct item type** —
    a heterogeneous item list (say, sweep points with one stray
    closure among them) used to pass a first-item-only probe and
    then die deep inside the pool with an opaque ``PicklingError``; the
    per-type probe stays cheap (one ``pickle.dumps`` per type, not per
    item) while naming the failing index and type.
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise ValueError(
            "backend='process' requires a picklable task function "
            "(a module-level function, not a closure or local "
            f"callable); pickling {fn!r} failed with: {exc}"
        ) from exc
    probed: set[type] = set()
    for index, item in enumerate(items):
        item_type = type(item)
        if item_type in probed:
            continue
        probed.add(item_type)
        try:
            pickle.dumps(item)
        except Exception as exc:
            raise ValueError(
                "backend='process' requires picklable sweep points "
                "(registry model/policy names, not closures or local "
                f"callables); item {index} of type {item_type.__name__} "
                f"failed to pickle with: {exc}"
            ) from exc


def parallel_map(
    fn: Callable,
    items: Iterable,
    parallel: int | bool | None = None,
    *,
    backend: str | None = None,
) -> list:
    """``[fn(x) for x in items]``, optionally across a worker pool.

    ``backend`` selects the pool (:data:`BACKENDS`); ``None`` means
    threads when ``parallel`` is set, serial otherwise. Result order
    always matches input order, so every backend produces identical
    point lists.
    """
    items = items if isinstance(items, Sequence) else list(items)
    backend = resolve_backend(backend, parallel)
    if backend == "process":
        # Before the one-worker shortcut, so whether a process sweep
        # accepts a point does not depend on how many points there are.
        _check_picklable(fn, items)
    workers = resolve_workers(parallel, len(items))
    if backend == "serial" or workers <= 1:
        return [fn(item) for item in items]
    if backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


#: Process-global cache registry: one CompileCache per cache directory
#: (``None`` -> one shared in-memory cache for the whole process).
_CACHES: dict[str | None, CompileCache] = {}
_CACHES_LOCK = threading.Lock()


def worker_cache(cache_dir: str | os.PathLike | None) -> CompileCache:
    """The calling process's :class:`CompileCache` for a cache directory.

    Created on first use and then reused for the process lifetime, so
    every point a worker executes shares one in-memory tier; with a
    ``cache_dir`` the cache is additionally disk-backed and shared
    across workers and sessions.
    """
    key = (
        os.path.abspath(os.path.expanduser(os.fspath(cache_dir)))
        if cache_dir is not None
        else None
    )
    with _CACHES_LOCK:
        cache = _CACHES.get(key)
        if cache is None:
            cache = CompileCache(disk_dir=key)
            _CACHES[key] = cache
        return cache


def canonical_point_bytes(points) -> bytes:
    """Canonical byte encoding of a sweep's point list.

    Dataclass points are flattened to sorted-key JSON; floats keep their
    shortest round-trip repr, so two lists encode identically iff every
    field is bit-identical. This is how tests and benchmarks assert that
    serial, thread and process sweeps agree — comparing raw pickles
    would false-negative on memoisation framing (the serial list shares
    string objects across points; IPC-returned points do not).
    """
    return json.dumps(
        [asdict(p) if is_dataclass(p) else p for p in points],
        sort_keys=True, default=str,
    ).encode()


def _call_with_cache(cache: CompileCache, point: Callable):
    return point(cache=cache)


def _call_with_worker_cache(cache_dir: str | None, point: Callable):
    return point(cache=worker_cache(cache_dir))


def sweep(
    points: Iterable[Callable],
    parallel: int | bool | None = None,
    *,
    backend: str | None = None,
    cache: CompileCache | None = None,
    cache_dir: str | None = None,
) -> list:
    """``[point(cache=...) for point in points]`` on the chosen backend.

    Each point is a ``functools.partial`` of a module-level function
    taking ``cache=``; this is the one place that picks that cache.
    Serial and thread sweeps share the caller's ``cache`` — or a fresh
    one, disk-backed when ``cache_dir`` is set — by reference. Process
    sweeps reject an in-memory ``cache``, which cannot cross process
    boundaries; each worker uses :func:`worker_cache` for ``cache_dir``
    instead. Result order matches ``points`` on every backend.
    """
    backend = resolve_backend(backend, parallel)
    if backend == "process":
        if cache is not None:
            raise ValueError(
                "backend='process' cannot share the driver's in-memory "
                "CompileCache; pass cache_dir= to share artifacts "
                "through the persistent disk tier instead"
            )
        run = functools.partial(_call_with_worker_cache, cache_dir)
    else:
        if cache is None:
            cache = CompileCache(disk_dir=cache_dir)
        run = functools.partial(_call_with_cache, cache)
    return parallel_map(run, points, parallel, backend=backend)

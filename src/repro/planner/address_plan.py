"""Spatio-temporal address planning: strip-packing tensors over time.

The runtime pool places allocations *online* (best-fit at the instant of
each request), so a split-heavy TSPLIT stream survives only with
capacity headroom against external fragmentation — the allocator
ablation bench measures ~1.5x on VGG-16. But the lowered program's
allocation stream is fully known ahead of execution: every tensor's
birth, death and aligned size. Following STAlloc (arXiv 2507.16274),
this module assigns concrete addresses *offline* by 2D strip-packing
over address x time, making feasibility exact (``packed peak <=
capacity``) instead of pool-dependent.

Pipeline:

* :func:`extract_intervals` turns a traced run's allocation log into
  lifetime intervals. Interference is computed over **event indices**
  (position in the recorded stream), not timestamps: at equal
  timestamps the engine's ledger can apply a zero-duration op's output
  allocation *before* its inputs' frees, so two tensors distinct in
  time order can coexist at one timestamp — half-open time intervals
  would let the packer overlap them.
* :func:`plan_addresses` packs the intervals with a deterministic
  best-fit-decreasing heuristic (largest tensors first, smallest
  adequate gap among the lifetime-overlapping placements, lowest offset
  on ties; the persistent region is pinned at offset 0), computes the
  *chronological best-fit* baseline as well (the exact placements an
  unbounded online best-fit pool would produce), and keeps whichever
  packing has the smaller address extent — so the packed peak never
  exceeds what the runtime pool would have needed.
* The resulting :class:`AddressPlan` is executed by the memory pool's
  ``"planned"`` strategy (:mod:`repro.hardware.memory_pool`): O(1)
  cursor lookup per allocation, loud best-fit fallback on any
  unplanned request (fault-recovery refetches, hot-swapped programs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.hardware.memory_pool import (
    ALIGNMENT,
    PERSISTENT_LABEL,
    AllocationReplayer,
    MemoryPool,
    _align,
)
from repro.runtime.trace import ExecutionTrace


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


@dataclass(frozen=True)
class AllocationInterval:
    """One allocation's lifetime in the recorded event stream.

    ``start``/``end`` are half-open **event indices** into the stream
    (persistent region = event 0 when present); ``birth``/``death`` are
    the simulated-clock times, kept for reporting only — packing never
    consults them. ``death is None`` means the allocation was never
    freed (lives to the end of the stream).
    """

    seq: int
    label: str
    nbytes: int
    size: int
    start: int
    end: int
    birth: float
    death: float | None = None


@dataclass(frozen=True)
class PlannedAlloc:
    """One planned placement: the stream's ``seq``-th allocation."""

    seq: int
    label: str
    nbytes: int
    size: int
    offset: int
    birth: float
    death: float | None = None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "label": self.label,
            "nbytes": self.nbytes,
            "size": self.size,
            "offset": self.offset,
            "birth": self.birth,
            "death": self.death,
        }


@dataclass(frozen=True)
class AddressPlan:
    """Concrete addresses for one program's allocation stream.

    ``entries`` are in stream (allocation) order — the pool's
    ``"planned"`` strategy walks them with a cursor, so entry ``i`` is
    the expected ``i``-th allocation; entry 0 is the persistent region
    when one exists. ``packed_peak`` is the exact address-space extent
    the plan needs (``max(offset + size)``), so :meth:`feasible` is an
    exact capacity test, not a pool-dependent estimate.
    ``baseline_extent`` is what an unbounded online best-fit pool would
    have needed on the same stream; ``packed_peak <= baseline_extent``
    holds by construction (the planner keeps the better packing).
    """

    name: str
    alignment: int
    persistent_size: int
    packed_peak: int
    baseline_extent: int
    heuristic: str
    end_time: float
    source_key: str = ""
    entries: tuple[PlannedAlloc, ...] = ()
    #: Cursor restart index for multi-iteration streams: past the
    #: persistent entry (allocated once, never re-requested).
    loop_start: int = 0

    def feasible(self, capacity: int) -> bool:
        """Exact admission test: does the packed stream fit?"""
        return self.packed_peak <= capacity

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "alignment": self.alignment,
            "persistent_size": self.persistent_size,
            "packed_peak": self.packed_peak,
            "baseline_extent": self.baseline_extent,
            "heuristic": self.heuristic,
            "end_time": self.end_time,
            "source_key": self.source_key,
            "loop_start": self.loop_start,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def digest(self) -> str:
        """Content hash of the full plan (determinism contract)."""
        return _digest(self.to_dict())


def _replay(
    trace: ExecutionTrace, pool: MemoryPool | None = None,
) -> tuple[list[AllocationInterval], int, list[int]]:
    """:func:`extract_intervals`, optionally placing into ``pool``.

    With a ``pool`` every allocation is also placed in it and the third
    element lists the offsets in interval order (a failed placement
    raises :class:`~repro.errors.OutOfMemoryError`); without one it is
    empty.
    """
    replayer = AllocationReplayer(pool)
    events = trace.alloc_events
    if trace.persistent_bytes:
        events = [(0.0, PERSISTENT_LABEL, trace.persistent_bytes), *events]
    births: list[tuple[str, int, int, float]] = []
    ends: dict[int, tuple[int, float]] = {}
    offsets: list[int] = []
    for index, (time, label, nbytes) in enumerate(events):
        if nbytes > 0:
            seq = replayer.alloc(time, label, nbytes)
            births.append((label, nbytes, index, time))
            if pool is not None:
                offsets.append(replayer.offset(seq))
        else:
            seq = replayer.free(time, label, -nbytes)
            if seq is not None:
                ends[seq] = (index, time)
    total_events = len(events)
    intervals = []
    for seq, (label, nbytes, start, birth) in enumerate(births):
        end, death = ends.get(seq, (total_events, None))
        intervals.append(AllocationInterval(
            seq=seq, label=label, nbytes=nbytes, size=_align(nbytes),
            start=start, end=end, birth=birth, death=death,
        ))
    return intervals, total_events, offsets


def extract_intervals(
    trace: ExecutionTrace,
) -> tuple[list[AllocationInterval], int]:
    """Lifetime intervals of a traced run's allocation stream.

    Returns ``(intervals, total_events)`` where event index 0 is the
    persistent region (when present) and indices advance one per
    recorded alloc/free event. Frees are matched to live allocations by
    :class:`~repro.hardware.memory_pool.AllocationReplayer`.
    Never-freed intervals end at ``total_events``.
    """
    intervals, total_events, _ = _replay(trace)
    return intervals, total_events


def _pack_bfd(
    intervals: list[AllocationInterval],
) -> tuple[list[int], int]:
    """Best-fit-decreasing strip packing over event-index lifetimes.

    Places the persistent region first (pinned at offset 0), then every
    other interval largest-first (earlier birth, then lower ``seq`` on
    size ties). Each candidate goes into the smallest adequate gap
    between the already-placed blocks whose lifetimes overlap it,
    lowest offset on ties, or on top of them when no gap fits. Returns
    ``(offsets in interval order, packed peak)``.
    """
    n = len(intervals)
    if n == 0:
        return [], 0
    starts = np.fromiter(
        (iv.start for iv in intervals), dtype=np.int64, count=n,
    )
    ends = np.fromiter((iv.end for iv in intervals), dtype=np.int64, count=n)
    sizes = np.fromiter((iv.size for iv in intervals), dtype=np.int64, count=n)
    offsets = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)

    def order_key(i: int) -> tuple:
        return (-intervals[i].size, intervals[i].start, i)

    pinned = [i for i in range(n) if intervals[i].label == PERSISTENT_LABEL]
    rest = sorted(
        (i for i in range(n) if intervals[i].label != PERSISTENT_LABEL),
        key=order_key,
    )
    for i in pinned + rest:
        size = sizes[i]
        mask = placed & (starts < ends[i]) & (ends > starts[i])
        hits = np.nonzero(mask)[0]
        if hits.size == 0:
            offsets[i] = 0
            placed[i] = True
            continue
        lo = offsets[hits]
        hi = lo + sizes[hits]
        by_offset = np.argsort(lo, kind="stable")
        lo = lo[by_offset]
        hi = hi[by_offset]
        top = np.maximum.accumulate(hi)
        gap_starts = np.concatenate(([0], top[:-1]))
        gaps = lo - gap_starts
        adequate = gaps >= size
        if adequate.any():
            pick = int(np.flatnonzero(adequate)[np.argmin(gaps[adequate])])
            offsets[i] = gap_starts[pick]
        else:
            offsets[i] = top[-1]
        placed[i] = True
    peak = int((offsets + sizes).max())
    return [int(offset) for offset in offsets], peak


def _replay_best_fit(
    trace: ExecutionTrace,
) -> tuple[list[AllocationInterval], int, list[int], int]:
    """The placements an unbounded online best-fit pool produces.

    Replays the stream through a real
    :class:`~repro.hardware.memory_pool.MemoryPool` whose capacity is
    generous enough (twice the total aligned footprint) that the top
    free block is always strictly larger than any bounded hole — so
    best-fit only spills onto the high-watermark when no hole fits,
    exactly as an infinite strip would, and the resulting extent is
    capacity-independent. Returns ``(intervals, total_events, offsets
    in interval order, address extent)``.
    """
    footprint = _align(trace.persistent_bytes) + sum(
        _align(nbytes) for _, _, nbytes in trace.alloc_events if nbytes > 0
    )
    pool = MemoryPool(capacity=2 * footprint + ALIGNMENT,
                      strategy="best_fit")
    intervals, total_events, offsets = _replay(trace, pool)
    return intervals, total_events, offsets, pool.stats.peak_extent


def best_fit_extent(trace: ExecutionTrace) -> int:
    """Address extent an unbounded online best-fit pool reaches.

    The reference point for the packer: :func:`plan_addresses`
    guarantees ``packed_peak <=`` this value. It is *not* the exact
    capacity threshold of a bounded best-fit pool: a bounded pool's
    top free block is smaller, so it can place differently and need
    more or less than this extent.
    """
    return _replay_best_fit(trace)[3]


def plan_addresses(
    trace: ExecutionTrace, *, source_key: str = "",
) -> AddressPlan:
    """Pack a traced run's allocation stream into concrete addresses.

    Computes both the best-fit-decreasing packing and the chronological
    best-fit baseline and keeps whichever needs the smaller address
    extent, so ``packed_peak <= baseline_extent`` always holds — the
    planned strategy is never worse than the online pool it replaces.
    Deterministic: the same trace yields a byte-identical plan.
    """
    intervals, _, online_offsets, online_peak = _replay_best_fit(trace)
    bfd_offsets, bfd_peak = _pack_bfd(intervals)
    if bfd_peak <= online_peak:
        offsets, peak, heuristic = bfd_offsets, bfd_peak, "bfd"
    else:  # pragma: no cover - BFD rarely loses, but never silently
        offsets, peak, heuristic = (
            online_offsets, online_peak, "chronological_best_fit",
        )
    persistent_size = _align(trace.persistent_bytes) \
        if trace.persistent_bytes else 0
    entries = tuple(
        PlannedAlloc(
            seq=iv.seq, label=iv.label, nbytes=iv.nbytes, size=iv.size,
            offset=offsets[k], birth=iv.birth, death=iv.death,
        )
        for k, iv in enumerate(intervals)
    )
    return AddressPlan(
        name=trace.name,
        alignment=ALIGNMENT,
        persistent_size=persistent_size,
        packed_peak=peak,
        baseline_extent=online_peak,
        heuristic=heuristic,
        end_time=trace.iteration_time,
        source_key=source_key,
        entries=entries,
        loop_start=1 if trace.persistent_bytes else 0,
    )


def packed_feasible(
    trace: ExecutionTrace, capacity: int, *, plan: AddressPlan | None = None,
) -> bool:
    """Exact feasibility: does the packed stream fit in ``capacity``?

    This is the feedback the planner's admission test consumes: a
    (model, batch) point whose best-fit replay OOMs from fragmentation
    is still admissible when its packed peak fits the device.
    """
    if plan is None:
        plan = plan_addresses(trace)
    return plan.feasible(capacity)


def plan_stale_reasons(trace: ExecutionTrace) -> list[str]:
    """Why an :class:`AddressPlan` no longer matches an executed trace.

    A plan is derived from a clean measurement run of the lowered
    program; any mid-run deviation — dynamic plan hot-swaps, emergency
    evictions and refetches, recovery skips — changes the allocation
    stream, so planned addresses stop corresponding to the requests.
    Returns an empty list when the trace still matches.
    """
    reasons: list[str] = []
    if trace.plan_swaps:
        reasons.append(f"{trace.plan_swaps} plan hot-swap(s)")
    if trace.emergency_evictions:
        reasons.append(
            f"{trace.emergency_evictions} emergency eviction(s)",
        )
    if trace.emergency_refetches:
        reasons.append(f"{trace.emergency_refetches} refetch(es)")
    if trace.recovered_skips:
        reasons.append(f"{trace.recovered_skips} recovered skip(s)")
    return reasons


def program_signature(program) -> str:
    """Content fingerprint of a lowered program's instruction stream.

    The address-plan cache key: two identical instruction streams
    produce identical allocation streams (the engine is deterministic
    without faults), so they share one plan.
    """
    from repro.pipeline.cache import fingerprint

    return fingerprint({
        "name": program.name,
        "batch": program.batch,
        "persistent_bytes": program.persistent_bytes,
        "initial_host": program.initial_host,
        "instructions": [
            (type(instr).__name__, instr) for instr in program.instructions
        ],
    })

"""Replay an execution's allocation sequence through the memory pool.

The engine accounts memory in bytes (capacity feasibility); this module
replays the same allocate/free event stream through the
:class:`~repro.hardware.memory_pool.MemoryPool` to measure *placement*
effects — external fragmentation and failed allocations under best-fit
versus first-fit/worst-fit — backing the Section V-C/V-D design claims
(allocator ablation bench).

The event stream comes from :attr:`ExecutionTrace.alloc_events`
(recorded when engine tracing is on): exact chronological ``(time,
label, +/-bytes)`` entries covering compute outputs, workspaces,
swap-ins and all releases. The persistent region (weights, optimizer
state, inputs) is allocated once up front, as the paper's pre-allocated
pool does.

The stream is fed through
:class:`~repro.hardware.memory_pool.AllocationReplayer`, the one
replayer shared with memscope's shadow pool and the address planner. Its
two rules decide what a ledger free means for the pool: a free releases
the oldest live allocation of its label with the freed size, falling
back to the label's oldest (FIFO) when no size matches; and the free of
an allocation the pool failed to place releases nothing.

The engine itself dispatches in chronological order, so its
``peak_memory`` *is* the chronological peak; :func:`chronological_peak`
re-derives the same number from the allocation log as an independent
cross-check (it is an invariant, not a correction — the two must agree
byte-for-byte).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.hardware.memory_pool import (
    PERSISTENT_LABEL,
    AllocationReplayer,
    MemoryPool,
)
from repro.runtime.trace import ExecutionTrace


@dataclass(frozen=True)
class ReplayResult:
    """Pool behaviour over one execution's allocation stream.

    ``largest_free_block`` and ``free_block_count`` describe the pool's
    free-space structure *at the failure instant* when the replay OOMed
    (the forensically relevant state: a large ``free_block_count`` with
    a small ``largest_free_block`` means the failure was fragmentation,
    not capacity), and at the end of the stream otherwise.

    The ``max_fragmentation_time`` / ``frag_*`` fields freeze the
    free-space shape at the *time-of-max-fragmentation* instant — also
    on non-failing runs, so bench tables and postmortems can compare
    strategies that never OOMed (failure-instant stats alone say
    nothing about a replay that survived).

    ``peak_extent`` is the high-watermark address the placement
    actually touched (``max(offset + size)``); under the ``"planned"``
    strategy it reproduces the address plan's ``packed_peak``
    byte-for-byte when every allocation hit its planned slot
    (``plan_misses == 0``).
    """

    strategy: str
    succeeded: bool
    failed_at: str = ""
    peak_used: int = 0
    max_fragmentation: float = 0.0
    alloc_count: int = 0
    largest_free_block: int = 0
    free_block_count: int = 0
    max_fragmentation_time: float = 0.0
    frag_largest_free_block: int = 0
    frag_free_block_count: int = 0
    frag_free_bytes: int = 0
    peak_extent: int = 0
    plan_hits: int = 0
    plan_misses: int = 0


def chronological_peak(trace: ExecutionTrace) -> int:
    """Peak bytes live at any instant, re-derived from the allocation log.

    Accumulates ``alloc_events`` *in recorded order* on top of the
    persistent region. The log is appended exactly as the engine's
    ledger applies each event, so the recorded order already encodes
    the ledger's conventions — pending frees commit before a later
    allocation at the same instant, but a zero-duration op's output
    allocation lands *before* its inputs' releases at that instant
    (both buffers are resident while the kernel runs). Re-sorting with
    frees-first at equal timestamps would understate the peak in that
    second case. Cross-checks the engine's chronologically-exact
    ``peak_memory``: the two are equal for every traced run.
    """
    used = trace.persistent_bytes
    peak = used
    for _, _, nbytes in trace.alloc_events:
        used += nbytes
        if used > peak:
            peak = used
    return peak


def replay_allocations(
    trace: ExecutionTrace,
    capacity: int,
    *,
    strategy: str = "best_fit",
    plan=None,
) -> ReplayResult:
    """Replay a trace's alloc/free events through a pool.

    Events are applied in recorded order — the engine's exact ledger
    application order, which already commits pending frees before a
    later allocation at the same instant but keeps a zero-duration
    op's inputs resident until after its output allocation. Frees are
    matched to live allocations by the
    :class:`~repro.hardware.memory_pool.AllocationReplayer`; releases
    with nothing live (e.g. events trimmed by tracing) are ignored. The
    replay stops at the first allocation the pool cannot place.

    ``plan`` threads an :class:`~repro.planner.address_plan.AddressPlan`
    into the pool — required by (and only meaningful under) the
    ``"planned"`` strategy.
    """
    pool = MemoryPool(capacity=capacity, strategy=strategy, plan=plan)
    replayer = AllocationReplayer(pool)
    #: Free-space shape at the worst instant so far: (time, largest
    #: free block, free block count, free bytes).
    max_frag = 0.0
    frag_at = (0.0, 0, 0, 0)
    failed_at = ""
    try:
        if trace.persistent_bytes:
            failed_at = "<persistent region>"
            replayer.alloc(0.0, PERSISTENT_LABEL, trace.persistent_bytes)
        for time, label, nbytes in trace.alloc_events:
            failed_at = label
            if nbytes > 0:
                replayer.alloc(time, label, nbytes)
            else:
                replayer.free(time, label, -nbytes)
            frag = pool.fragmentation()
            if frag > max_frag:
                max_frag = frag
                frag_at = (
                    time, pool.largest_free_block, len(pool.free_blocks()),
                    pool.free_bytes,
                )
        succeeded, failed_at = True, ""
    except OutOfMemoryError:
        # Fragmentation at the failure instant, not as of the last
        # successful event — an OOM caused by external fragmentation
        # must not be understated. ``alloc`` likewise mirrors the
        # free-list shape stats at this instant before raising.
        succeeded = False
        max_frag = max(max_frag, pool.fragmentation())
    stats = pool.stats
    return ReplayResult(
        strategy=strategy,
        succeeded=succeeded,
        failed_at=failed_at,
        peak_used=stats.peak_used,
        max_fragmentation=max_frag,
        alloc_count=stats.alloc_count,
        largest_free_block=stats.largest_free_block,
        free_block_count=stats.free_block_count,
        max_fragmentation_time=frag_at[0],
        frag_largest_free_block=frag_at[1],
        frag_free_block_count=frag_at[2],
        frag_free_bytes=frag_at[3],
        peak_extent=stats.peak_extent,
        plan_hits=stats.plan_hits,
        plan_misses=stats.plan_misses,
    )

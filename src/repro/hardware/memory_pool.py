"""Pooled device-memory allocator.

The paper pre-allocates one large region and manages it with a runtime
pool using a *best-fit* placement strategy to keep micro-tensors in
contiguous chunks (Section V-C/V-D). This module implements that pool
over a simulated address space, with first-fit and worst-fit variants for
the allocator ablation bench, full coalescing of adjacent free blocks,
and fragmentation statistics.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

from repro.errors import AllocationError, OutOfMemoryError

_STRATEGIES = ("best_fit", "first_fit", "worst_fit", "segregated", "planned")

#: Allocation granularity; real pools round to 256-byte aligned chunks.
ALIGNMENT = 256

#: Label of the pre-allocated persistent region (weights, optimizer
#: state, inputs). Every :class:`AllocationReplayer` consumer allocates
#: it first under this label, so planned streams line up.
PERSISTENT_LABEL = "<persistent>"

#: "segregated" strategy: allocations below this size are carved from
#: the *top* of the highest free block, keeping micro-tensors away from
#: the large long-lived buffers at the bottom of the address space and
#: preserving big contiguous holes.
SEGREGATION_THRESHOLD = 32 * 1024 * 1024


def _align(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass
class PoolStats:
    """Counters accumulated over a pool's lifetime.

    ``largest_free_block`` and ``free_block_count`` mirror the pool's
    free-list shape as of the *most recent* alloc/free attempt —
    including failed allocations, so an OOM report can state the
    free-space structure at the failure instant, not as of the last
    successful event.
    """

    alloc_count: int = 0
    free_count: int = 0
    failed_allocs: int = 0
    peak_used: int = 0
    bytes_allocated_total: int = 0
    largest_free_block: int = 0
    free_block_count: int = 0
    #: High-watermark address (``max(offset + size)`` over every
    #: placement) — the address-space extent the run actually needed.
    peak_extent: int = 0
    #: ``"planned"`` strategy only: allocations placed at their planned
    #: offset vs allocations that fell back to best-fit.
    plan_hits: int = 0
    plan_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
            "failed_allocs": self.failed_allocs,
            "peak_used": self.peak_used,
            "bytes_allocated_total": self.bytes_allocated_total,
            "largest_free_block": self.largest_free_block,
            "free_block_count": self.free_block_count,
            "peak_extent": self.peak_extent,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
        }


@dataclass(frozen=True)
class PoolSnapshot:
    """The pool's free-space structure at one instant.

    ``free_block_histogram`` buckets the free blocks by size in
    powers-of-two of :data:`ALIGNMENT`-aligned bytes: entry ``i`` counts
    blocks with ``2**i KiB <= size < 2**(i+1) KiB`` (entry 0 holds
    everything below 2 KiB).
    """

    time: float
    used_bytes: int
    free_bytes: int
    largest_free_block: int
    free_block_count: int
    fragmentation: float
    free_block_histogram: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "used_bytes": self.used_bytes,
            "free_bytes": self.free_bytes,
            "largest_free_block": self.largest_free_block,
            "free_block_count": self.free_block_count,
            "fragmentation": self.fragmentation,
            "free_block_histogram": list(self.free_block_histogram),
        }


@dataclass
class AllocationRecord:
    """Provenance of one pool allocation: who, where, and when.

    ``death`` stays ``None`` while the allocation is live; ``offset`` is
    the concrete address within the pool's address space. ``nbytes`` is
    the requested size, ``size`` the :data:`ALIGNMENT`-rounded span the
    allocation actually occupies.
    """

    handle: int
    label: str
    offset: int
    size: int
    nbytes: int
    birth: float
    death: float | None = None
    instr: str = ""

    @property
    def live(self) -> bool:
        return self.death is None

    def to_dict(self) -> dict:
        return {
            "handle": self.handle,
            "label": self.label,
            "offset": self.offset,
            "size": self.size,
            "nbytes": self.nbytes,
            "birth": self.birth,
            "death": self.death,
            "instr": self.instr,
        }


class PoolRecorder:
    """Accumulates per-allocation provenance and per-event snapshots.

    Attach to a :class:`MemoryPool` (``pool.recorder = PoolRecorder()``)
    and every subsequent ``alloc``/``free`` appends an
    :class:`AllocationRecord` / closes one, plus a :class:`PoolSnapshot`
    of the free-space structure after the event. Failed allocations
    record a snapshot too — the forensically interesting instant.

    With no recorder attached the pool pays one ``is not None`` check
    per event and nothing else.
    """

    __slots__ = ("records", "snapshots", "failures", "_by_handle",
                 "snapshot_every", "_events")

    def __init__(self, snapshot_every: int = 1) -> None:
        #: Every allocation ever made, in birth order.
        self.records: list[AllocationRecord] = []
        #: Free-space structure after each recorded event.
        self.snapshots: list[PoolSnapshot] = []
        #: ``(time, label, requested bytes)`` of failed allocations.
        self.failures: list[tuple[float, str, int]] = []
        self._by_handle: dict[int, AllocationRecord] = {}
        #: Snapshot cadence: 1 records the structure after every event;
        #: larger values thin the snapshot stream (records are always
        #: complete).
        self.snapshot_every = max(1, snapshot_every)
        self._events = 0

    def live_records(self) -> list[AllocationRecord]:
        """Records whose allocation is still live, in birth order."""
        return [r for r in self.records if r.death is None]

    def record(self, handle: int) -> AllocationRecord | None:
        """The (live or dead) record for a pool handle, if any."""
        return self._by_handle.get(handle)

    # -- hooks driven by MemoryPool -------------------------------------------

    def on_alloc(
        self, pool: "MemoryPool", handle: int, offset: int, size: int,
        nbytes: int, label: str, time: float, instr: str,
    ) -> None:
        """Open a provenance record for a fresh allocation."""
        record = AllocationRecord(
            handle=handle, label=label, offset=offset, size=size,
            nbytes=nbytes, birth=time, instr=instr,
        )
        self.records.append(record)
        self._by_handle[handle] = record
        self._snapshot(pool, time)

    def on_free(self, pool: "MemoryPool", handle: int, time: float) -> None:
        """Stamp the handle's record dead at ``time``."""
        record = self._by_handle.get(handle)
        if record is not None:
            record.death = time
        self._snapshot(pool, time)

    def on_fail(
        self, pool: "MemoryPool", nbytes: int, label: str, time: float,
    ) -> None:
        """Log a failed allocation and always snapshot the instant."""
        self.failures.append((time, label, nbytes))
        self.snapshots.append(pool.snapshot(time))

    def on_reset(self, pool: "MemoryPool", time: float) -> None:
        """Close every live record at ``time`` and snapshot the wipe."""
        for record in self.records:
            if record.death is None:
                record.death = time
        self.snapshots.append(pool.snapshot(time))

    def _snapshot(self, pool: "MemoryPool", time: float) -> None:
        self._events += 1
        if self._events % self.snapshot_every == 0:
            self.snapshots.append(pool.snapshot(time))


class DeviceMemoryLedger:
    """Chronological byte accounting of device memory.

    The discrete-event engine dispatches work in non-decreasing start
    time; the ledger mirrors that order exactly. ``used`` is the number
    of bytes live at the ledger clock (``time``), allocations are
    applied at their start instant, and frees — which land in the future
    when a transfer or kernel completes — wait in a pending queue until
    the clock advances past them. Because events are applied in
    chronological order, ``peak`` *is* the chronological peak: no
    post-hoc replay of the allocation log is needed to recover it.
    """

    __slots__ = ("capacity", "used", "peak", "time", "_pending", "_seq")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.used = 0
        self.peak = 0
        self.time = 0.0
        #: Min-heap of (free time, sequence, nbytes, label).
        self._pending: list[tuple[float, int, int, str]] = []
        self._seq = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes scheduled to free at some future instant."""
        return sum(entry[2] for entry in self._pending)

    def charge(self, nbytes: int) -> None:
        """Apply an untimed allocation (the persistent region, at t=0)."""
        self.used += nbytes
        self.peak = max(self.peak, self.used)

    def allocate(self, nbytes: int, at: float, on_free=None) -> None:
        """Apply an allocation at instant ``at``.

        Frees due at or before ``at`` are committed first (frees-first at
        equal timestamps, matching the allocator-replay convention), so
        ``used`` and ``peak`` stay chronologically exact.
        """
        self.commit(at, on_free)
        self.time = max(self.time, at)
        self.used += nbytes
        self.peak = max(self.peak, self.used)

    def schedule_free(self, nbytes: int, at: float, label: str = "") -> None:
        """Register ``nbytes`` to be released at instant ``at``."""
        heapq.heappush(self._pending, (at, self._seq, nbytes, label))
        self._seq += 1

    def commit(self, now: float, on_free=None) -> None:
        """Apply every pending free due at or before ``now``."""
        while self._pending and self._pending[0][0] <= now:
            at, _, nbytes, label = heapq.heappop(self._pending)
            self.used -= nbytes
            self.time = max(self.time, at)
            if on_free is not None:
                on_free(at, label, nbytes, self.used)

    def drain(self, on_free=None) -> None:
        """Commit every remaining pending free (end of execution)."""
        self.commit(float("inf"), on_free)

    def earliest_fit(
        self, need: int, not_before: float, *, credit: int = 0,
    ) -> float | None:
        """Earliest instant >= ``not_before`` at which ``need`` bytes fit.

        A pure probe: no state changes. ``credit`` discounts bytes the
        caller will release at the same instant (a merge consuming its
        micro pieces). Returns ``None`` when no amount of waiting on the
        currently-scheduled frees can ever satisfy the request.
        """
        base = self.used - credit
        if base + need <= self.capacity:
            return not_before
        freed = 0
        for at, _, nbytes, _ in sorted(self._pending):
            freed += nbytes
            if base - freed + need <= self.capacity:
                return max(at, not_before)
        return None

    def best_case_free(self, *, credit: int = 0) -> int:
        """Bytes available once every scheduled free has landed."""
        return self.capacity - (self.used - credit - self.pending_bytes)


@dataclass
class _Block:
    offset: int
    size: int


@dataclass
class MemoryPool:
    """Contiguous-address-space allocator with pluggable placement.

    Parameters
    ----------
    capacity:
        Pool size in bytes (the GPU memory handed to the framework).
    strategy:
        ``"best_fit"`` (paper default), ``"first_fit"``, ``"worst_fit"``,
        ``"segregated"``, or ``"planned"`` (requires ``plan``).
    plan:
        An :class:`~repro.planner.address_plan.AddressPlan` (duck-typed:
        anything with ``entries`` carrying ``size``/``label``/``offset``
        and a ``loop_start``) consumed by the ``"planned"`` strategy. A
        cursor walks the plan's entries in stream order; each allocation
        matching the cursor entry (same aligned size and label) is
        carved at its planned offset in O(log n). Any mismatch — an
        unplanned allocation such as a fault-recovery refetch, or a
        planned offset already occupied after an earlier fallback —
        falls back **loudly** to best-fit placement (one
        ``RuntimeWarning`` per pool, ``stats.plan_misses`` counted,
        ``plan_fallbacks`` recorded) without corrupting the pool.
    """

    capacity: int
    strategy: str = "best_fit"
    _free: list[_Block] = field(default_factory=list, repr=False)
    _allocated: dict[int, _Block] = field(default_factory=dict, repr=False)
    _next_handle: int = 0
    stats: PoolStats = field(default_factory=PoolStats)
    #: Optional provenance recorder (:class:`PoolRecorder`); ``None``
    #: keeps alloc/free at one extra ``is not None`` check per event.
    recorder: PoolRecorder | None = field(
        default=None, repr=False, compare=False,
    )
    #: Address plan for the ``"planned"`` strategy (``None`` otherwise).
    plan: object | None = field(default=None, repr=False, compare=False)
    #: ``(time, label, nbytes)`` of every planned-strategy fallback.
    plan_fallbacks: list = field(
        default_factory=list, repr=False, compare=False,
    )
    _plan_cursor: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise AllocationError(f"non-positive pool capacity {self.capacity}")
        if self.strategy not in _STRATEGIES:
            raise AllocationError(
                f"unknown strategy {self.strategy!r}; expected {_STRATEGIES}"
            )
        if self.strategy == "planned" and self.plan is None:
            raise AllocationError(
                "strategy 'planned' requires an AddressPlan (plan=...)"
            )
        self._free = [_Block(0, self.capacity)]

    # -- queries ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(b.size for b in self._allocated.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def largest_free_block(self) -> int:
        return max((b.size for b in self._free), default=0)

    def fragmentation(self) -> float:
        """1 - largest_free / total_free; 0 means perfectly coalesced.

        A pool with no free bytes at all (fully allocated *or* empty
        with zero free space) has no holes to fragment, so the result is
        0.0 — never a division by zero.
        """
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free

    def can_alloc(self, nbytes: int) -> bool:
        return self.largest_free_block >= _align(nbytes)

    def free_blocks(self) -> tuple[tuple[int, int], ...]:
        """The free list as ``(offset, size)`` pairs, address-ordered."""
        return tuple((b.offset, b.size) for b in self._free)

    def allocated_blocks(self) -> tuple[tuple[int, int, int], ...]:
        """Live allocations as ``(offset, size, handle)``, address-ordered."""
        return tuple(sorted(
            (b.offset, b.size, handle)
            for handle, b in self._allocated.items()
        ))

    def block_offset(self, handle: int) -> int:
        """Concrete address of a live allocation."""
        try:
            return self._allocated[handle].offset
        except KeyError:
            raise AllocationError(f"unknown handle {handle}") from None

    def free_block_histogram(self) -> tuple[int, ...]:
        """Free-block counts bucketed by ``floor(log2(size in KiB))``."""
        if not self._free:
            return ()
        buckets: dict[int, int] = {}
        top = 0
        for block in self._free:
            index = max(0, (block.size // 1024).bit_length() - 1)
            buckets[index] = buckets.get(index, 0) + 1
            top = max(top, index)
        return tuple(buckets.get(i, 0) for i in range(top + 1))

    def snapshot(self, time: float = 0.0) -> PoolSnapshot:
        """The free-space structure at this instant as a value object."""
        return PoolSnapshot(
            time=time,
            used_bytes=self.used_bytes,
            free_bytes=self.free_bytes,
            largest_free_block=self.largest_free_block,
            free_block_count=len(self._free),
            fragmentation=self.fragmentation(),
            free_block_histogram=self.free_block_histogram(),
        )

    def _update_shape_stats(self) -> None:
        """Mirror the free-list shape into the lifetime stats."""
        self.stats.largest_free_block = self.largest_free_block
        self.stats.free_block_count = len(self._free)

    # -- allocation --------------------------------------------------------------

    def alloc(
        self, nbytes: int, *, label: str = "", time: float = 0.0,
        instr: str = "",
    ) -> int:
        """Allocate ``nbytes``; returns an opaque handle.

        ``label``, ``time`` and ``instr`` are provenance-only: they are
        recorded when a :class:`PoolRecorder` is attached (owning
        tensor, event-clock birth time, requesting instruction) and
        ignored otherwise.

        Raises
        ------
        OutOfMemoryError
            If no free block is large enough (even if total free space
            would suffice — external fragmentation is real in the pool).
        """
        if nbytes <= 0:
            raise AllocationError(f"non-positive allocation of {nbytes} B")
        size = _align(nbytes)
        offset: int | None = None
        if self.strategy == "planned":
            entry = self._next_plan_entry(size, label)
            if entry is not None and self._carve_at(entry.offset, size):
                offset = entry.offset
                self.stats.plan_hits += 1
            else:
                # Loud fallback: the request is not the next planned
                # allocation (stale plan, recovery refetch) or its
                # planned offset is occupied by an earlier fallback.
                self.stats.plan_misses += 1
                self.plan_fallbacks.append((time, label, nbytes))
                if len(self.plan_fallbacks) == 1:
                    warnings.warn(
                        f"planned pool falling back to best-fit for "
                        f"{label or '<unlabelled>'} ({nbytes} B): "
                        f"allocation not in the address plan",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        if offset is None:
            index = self._pick_block(size)
            if index is None:
                self.stats.failed_allocs += 1
                self._update_shape_stats()
                if self.recorder is not None:
                    self.recorder.on_fail(self, nbytes, label, time)
                raise OutOfMemoryError(
                    requested=size,
                    available=self.largest_free_block,
                    capacity=self.capacity,
                )
            block = self._free[index]
            carve_from_top = (
                self.strategy == "segregated" and size < SEGREGATION_THRESHOLD
            )
            if block.size == size:
                offset = block.offset
                del self._free[index]
            elif carve_from_top:
                block.size -= size
                offset = block.offset + block.size
            else:
                offset = block.offset
                block.offset += size
                block.size -= size
        handle = self._next_handle
        self._next_handle += 1
        self._allocated[handle] = _Block(offset, size)
        self.stats.alloc_count += 1
        self.stats.bytes_allocated_total += size
        self.stats.peak_used = max(self.stats.peak_used, self.used_bytes)
        self.stats.peak_extent = max(self.stats.peak_extent, offset + size)
        self._update_shape_stats()
        if self.recorder is not None:
            self.recorder.on_alloc(
                self, handle, offset, size, nbytes, label, time, instr,
            )
        return handle

    def free(self, handle: int, *, time: float = 0.0) -> None:
        """Release an allocation and coalesce with adjacent free blocks."""
        try:
            block = self._allocated.pop(handle)
        except KeyError:
            raise AllocationError(f"unknown or double-freed handle {handle}") from None
        self.stats.free_count += 1
        self._insert_free(block)
        self._update_shape_stats()
        if self.recorder is not None:
            self.recorder.on_free(self, handle, time)

    def _next_plan_entry(self, size: int, label: str):
        """The plan entry this allocation should land on, or ``None``.

        A cursor walks the plan's entries in stream order; a request
        matches when its aligned size equals the cursor entry's and the
        labels agree (an empty label on either side matches anything —
        callers that do not thread labels still get planned
        placements). On a match the cursor advances *even if the
        subsequent carve fails* — the plan slot is consumed either way.
        An exhausted cursor wraps to ``loop_start`` (past the one-time
        persistent entry) so multi-iteration streams keep matching.
        """
        entries = getattr(self.plan, "entries", ())
        cursor = self._plan_cursor
        if cursor >= len(entries):
            cursor = getattr(self.plan, "loop_start", 0)
            self._plan_cursor = cursor
            if cursor >= len(entries):
                return None
        entry = entries[cursor]
        if entry.size == size and (
            not label or not entry.label or entry.label == label
        ):
            self._plan_cursor = cursor + 1
            return entry
        return None

    def _carve_at(self, offset: int, size: int) -> bool:
        """Carve ``[offset, offset + size)`` out of the free list.

        Binary-searches the (offset-sorted) free list for the block
        containing the range and splits it in place; returns ``False``
        — leaving the free list untouched — when the range is not
        entirely free (the planned-strategy fallback trigger).
        """
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid].offset <= offset:
                lo = mid + 1
            else:
                hi = mid
        index = lo - 1
        if index < 0:
            return False
        block = free[index]
        if offset + size > block.offset + block.size:
            return False
        left = offset - block.offset
        right = block.offset + block.size - (offset + size)
        if left and right:
            block.size = left
            free.insert(index + 1, _Block(offset + size, right))
        elif left:
            block.size = left
        elif right:
            block.offset = offset + size
            block.size = right
        else:
            del free[index]
        return True

    def _pick_block(self, size: int) -> int | None:
        """Index into the free list per the placement strategy.

        The ``"planned"`` strategy only reaches here on fallback and
        places like best-fit.
        """
        if self.strategy == "segregated":
            if size < SEGREGATION_THRESHOLD:
                # Highest-offset hole that fits: micro-tensors cluster
                # at the top of the address space.
                for index in range(len(self._free) - 1, -1, -1):
                    if self._free[index].size >= size:
                        return index
                return None
            # Large buffers: best fit among the low holes.
            strategy = "best_fit"
        elif self.strategy == "planned":
            strategy = "best_fit"
        else:
            strategy = self.strategy
        best_index: int | None = None
        best_size: int | None = None
        for index, block in enumerate(self._free):
            if block.size < size:
                continue
            if strategy == "first_fit":
                return index
            better = (
                best_size is None
                or (strategy == "best_fit" and block.size < best_size)
                or (strategy == "worst_fit" and block.size > best_size)
            )
            if better:
                best_index, best_size = index, block.size
        return best_index

    def _insert_free(self, block: _Block) -> None:
        """Insert into the (offset-sorted) free list, coalescing neighbours."""
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid].offset < block.offset:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, block)
        # Coalesce with successor, then predecessor.
        if lo + 1 < len(free) and block.offset + block.size == free[lo + 1].offset:
            block.size += free[lo + 1].size
            del free[lo + 1]
        if lo > 0 and free[lo - 1].offset + free[lo - 1].size == block.offset:
            free[lo - 1].size += block.size
            del free[lo]

    def reset(self, *, time: float = 0.0) -> None:
        """Free everything (end of iteration); stats are preserved.

        With a recorder attached, every live allocation's provenance
        record is closed at ``time`` so ``live_records()`` never reports
        allocations the pool has already discarded.
        """
        self._allocated.clear()
        self._free = [_Block(0, self.capacity)]
        self._plan_cursor = 0
        self._update_shape_stats()
        if self.recorder is not None:
            self.recorder.on_reset(self, time)


class AllocationReplayer:
    """Replays a byte ledger's alloc/free stream, optionally into a pool.

    The engine's ledger frees by ``(label, bytes)``, not by handle, and
    labels are not unique: one label can hold several live allocations
    of different sizes (a tensor's full buffer and a micro-piece). This
    class is the one place that decides which live allocation a free
    releases, for the allocator replay, memscope's shadow pool and the
    address planner alike:

    * a free releases the oldest live allocation of its label with the
      freed byte count, falling back to the label's oldest (FIFO) when
      no size matches; at each step a placed allocation goes before one
      the pool failed to place;
    * an allocation the pool failed to place stays live, unplaced, so
      its free releases nothing rather than a stranger's block.

    Every allocation gets a sequence number, counting from 0 in stream
    order. Without a pool the replayer only matches frees to sequence
    numbers.
    """

    __slots__ = ("pool", "_next_seq", "_live", "_handles")

    def __init__(self, pool: MemoryPool | None = None) -> None:
        self.pool = pool
        self._next_seq = 0
        #: label -> live ``(seq, requested bytes, placed)``, oldest first.
        self._live: dict[str, list[tuple[int, int, bool]]] = {}
        #: seq -> pool handle of every live placed allocation.
        self._handles: dict[int, int] = {}

    def alloc(
        self, time: float, label: str, nbytes: int, instr: str = "",
    ) -> int:
        """Allocate ``nbytes`` for ``label``; returns its sequence number.

        Raises
        ------
        OutOfMemoryError
            If the pool cannot place it. The allocation is still
            remembered (unplaced), so its later free releases nothing.
        """
        seq = self._next_seq
        self._next_seq += 1
        live = self._live.setdefault(label, [])
        if self.pool is not None:
            try:
                self._handles[seq] = self.pool.alloc(
                    nbytes, label=label, time=time, instr=instr,
                )
            except OutOfMemoryError:
                live.append((seq, nbytes, False))
                raise
        live.append((seq, nbytes, True))
        return seq

    def free(self, time: float, label: str, nbytes: int) -> int | None:
        """Release ``nbytes`` of ``label``; returns the freed allocation's
        sequence number, or ``None`` when the label has nothing live."""
        live = self._live.get(label)
        if not live:
            return None
        pick = 0
        if len(live) > 1:
            pick = min(
                range(len(live)),
                key=lambda i: (live[i][1] != nbytes, not live[i][2], i),
            )
        seq, _, placed = live.pop(pick)
        if placed and self.pool is not None:
            self.pool.free(self._handles.pop(seq), time=time)
        return seq

    def offset(self, seq: int) -> int:
        """Pool address of a live placed allocation."""
        assert self.pool is not None
        return self.pool.block_offset(self._handles[seq])

"""Memscope: an allocation-level memory observatory with OOM forensics.

The engine accounts device memory in bytes (the
:class:`~repro.hardware.memory_pool.DeviceMemoryLedger` has no
addresses), so scalar peaks say nothing about *placement*: which tensors
fence the holes, whether an OOM was capacity or external fragmentation,
what the minimal eviction set would have been. Memscope answers those
questions by driving a **shadow** :class:`~repro.hardware.memory_pool.
MemoryPool` from the engine's observer callbacks:

* :class:`MemscopeObserver` replays every ``on_alloc``/``on_free`` event
  through a shadow pool carrying a :class:`~repro.hardware.memory_pool.
  PoolRecorder`, so each allocation gets a concrete address range and
  birth/death event-clock times — without touching engine state, which
  keeps the executed plan and trace byte-identical to an unobserved run;
* :class:`AddressSpaceTimeline` assembles the provenance into
  address x time occupancy rectangles, exportable as Perfetto counter
  tracks (mergeable with engine/pipeline traces via
  :func:`~repro.telemetry.chrome.merge_traces`) and JSON heatmaps;
* :func:`tensor_residency` rolls the records up into per-tensor
  analytics (time resident, eviction/prefetch counts, PCIe bytes,
  attributable stall time);
* :func:`analyze_failed_alloc` is the OOM postmortem: it classifies a
  failed allocation as ``capacity`` vs ``fragmentation`` (sum of free
  bytes >= request but no hole fits), names the resident tensors fencing
  the largest holes, and computes the minimal eviction set that would
  have admitted the request.

The occupancy samples use the ``used`` values the engine's ledger
delivers through the callbacks, so the exported counter track agrees
with the ledger (and :class:`~repro.runtime.observers.
MemoryTimelineObserver`) at every event by construction; the shadow
pool's own byte count differs by alignment padding and is reported
separately as pool statistics.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.hardware.memory_pool import (
    PERSISTENT_LABEL,
    AllocationRecord,
    AllocationReplayer,
    MemoryPool,
    PoolRecorder,
    PoolSnapshot,
    _align,
)
from repro.runtime.observers import EngineObserver
from repro.runtime.trace import ExecutionTrace
from repro.units import format_bytes, format_time

# ``PERSISTENT_LABEL`` lives in ``repro.hardware.memory_pool`` (the
# address planner needs it without importing analysis code) and stays
# re-exported here for existing importers.

#: Address bands the Perfetto export groups allocation slices into.
_ADDR_BANDS = 16

#: Free blocks detailed in a postmortem's hole table.
_TOP_HOLES = 5


def _digest(payload) -> str:
    """sha256 over the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


# -- OOM postmortem ----------------------------------------------------------


@dataclass(frozen=True)
class EvictionCandidate:
    """One live allocation a postmortem proposes to evict."""

    handle: int
    label: str
    offset: int
    size: int

    def to_dict(self) -> dict:
        return {
            "handle": self.handle, "label": self.label,
            "offset": self.offset, "size": self.size,
        }


@dataclass(frozen=True)
class OOMPostmortem:
    """Forensics of one failed allocation against the shadow pool.

    ``classification`` is ``"fragmentation"`` when the pool's total free
    bytes would have covered the (aligned) request but no single hole
    fit, and ``"capacity"`` otherwise. ``blockers`` names the resident
    tensors immediately fencing the largest free holes; ``eviction_set``
    is the minimal set of live, non-protected allocations whose removal
    opens a contiguous hole admitting the request (empty when even a
    full sweep could not help, e.g. the request exceeds capacity).
    """

    time: float
    label: str
    requested: int
    aligned: int
    capacity: int
    free_bytes: int
    largest_free_block: int
    free_block_count: int
    fragmentation: float
    classification: str
    blockers: tuple[str, ...] = ()
    eviction_set: tuple[EvictionCandidate, ...] = ()
    eviction_bytes: int = 0
    holes: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "label": self.label,
            "requested": self.requested,
            "aligned": self.aligned,
            "capacity": self.capacity,
            "free_bytes": self.free_bytes,
            "largest_free_block": self.largest_free_block,
            "free_block_count": self.free_block_count,
            "fragmentation": self.fragmentation,
            "classification": self.classification,
            "blockers": list(self.blockers),
            "eviction_set": [c.to_dict() for c in self.eviction_set],
            "eviction_bytes": self.eviction_bytes,
            "holes": [list(h) for h in self.holes],
        }

    def describe(self) -> str:
        """Multi-line blame report, markdown-friendly."""
        lines = [
            f"OOM at t={self.time * 1e3:.3f} ms: {self.label!r} requested "
            f"{format_bytes(self.requested)} "
            f"(aligned {format_bytes(self.aligned)})",
            f"- verdict: **{self.classification}** — free "
            f"{format_bytes(self.free_bytes)} in {self.free_block_count} "
            f"hole(s), largest {format_bytes(self.largest_free_block)}, "
            f"fragmentation {self.fragmentation:.1%}",
        ]
        if self.holes:
            holes = ", ".join(
                f"{format_bytes(size)} @ {offset:#x}"
                for offset, size in self.holes
            )
            lines.append(f"- largest holes: {holes}")
        if self.blockers:
            lines.append(
                "- blocking residents fencing those holes: "
                + ", ".join(self.blockers)
            )
        if self.eviction_set:
            victims = ", ".join(
                f"{c.label} ({format_bytes(c.size)} @ {c.offset:#x})"
                for c in self.eviction_set
            )
            lines.append(
                f"- minimal eviction set ({len(self.eviction_set)} "
                f"tensor(s), {format_bytes(self.eviction_bytes)}): "
                f"{victims}"
            )
        elif self.classification == "fragmentation":
            lines.append("- no admissible eviction set (protected "
                         "residents fence every window)")
        return "\n".join(lines)


def minimal_eviction_set(
    pool: MemoryPool,
    nbytes: int,
    *,
    protect: frozenset[str] | set[str] = frozenset(),
    recorder: PoolRecorder | None = None,
) -> tuple[EvictionCandidate, ...]:
    """Smallest set of live allocations whose removal admits ``nbytes``.

    Slides a window of the aligned request size over every candidate
    start offset (each block boundary, clipped to the address space) and
    collects the live blocks overlapping it; windows touching a
    protected label are inadmissible. Minimises ``(count, bytes,
    start)`` so the answer is deterministic. Returns ``()`` when the
    request already fits, exceeds capacity, or no admissible window
    exists.
    """
    size = _align(nbytes)
    if size <= pool.largest_free_block or size > pool.capacity:
        return ()
    allocated = pool.allocated_blocks()
    if not allocated:
        return ()
    labels = {
        handle: (
            record.label
            if recorder is not None
            and (record := recorder.record(handle)) is not None
            else f"handle {handle}"
        )
        for _, _, handle in allocated
    }
    starts = sorted({
        min(boundary, pool.capacity - size)
        for boundary in (
            0,
            *(offset for offset, _, _ in allocated),
            *(offset + blk for offset, blk, _ in allocated),
        )
        if boundary <= pool.capacity - size
    })
    offsets = [offset for offset, _, _ in allocated]
    best: tuple[int, int, int] | None = None
    best_set: tuple[EvictionCandidate, ...] = ()
    for start in starts:
        end = start + size
        # First allocated block that could overlap [start, end).
        index = bisect_right(offsets, start) - 1
        if index >= 0:
            offset, blk, _ = allocated[index]
            if offset + blk <= start:
                index += 1
        else:
            index = 0
        victims: list[EvictionCandidate] = []
        admissible = True
        while index < len(allocated) and allocated[index][0] < end:
            offset, blk, handle = allocated[index]
            if offset + blk > start:
                label = labels[handle]
                if label in protect:
                    admissible = False
                    break
                victims.append(
                    EvictionCandidate(handle, label, offset, blk),
                )
            index += 1
        if not admissible:
            continue
        cost = (len(victims), sum(v.size for v in victims), start)
        if best is None or cost < best:
            best, best_set = cost, tuple(victims)
    return best_set


def eviction_admits(
    pool: MemoryPool,
    eviction_set: tuple[EvictionCandidate, ...] | list[EvictionCandidate],
    nbytes: int,
) -> bool:
    """Replay check: would freeing ``eviction_set`` admit ``nbytes``?

    Pure — merges the pool's current free list with the candidates'
    address ranges and looks for a coalesced hole of the aligned size,
    without mutating the pool.
    """
    size = _align(nbytes)
    intervals = sorted(
        [*pool.free_blocks(), *((c.offset, c.size) for c in eviction_set)],
    )
    merged_end = -1
    merged_start = 0
    for offset, blk in intervals:
        if offset == merged_end:
            merged_end += blk
        else:
            merged_start, merged_end = offset, offset + blk
        if merged_end - merged_start >= size:
            return True
    return False


def analyze_failed_alloc(
    pool: MemoryPool,
    nbytes: int,
    *,
    label: str = "",
    time: float = 0.0,
    recorder: PoolRecorder | None = None,
    protect: frozenset[str] | set[str] = frozenset({PERSISTENT_LABEL}),
) -> OOMPostmortem:
    """Build the blame report for a failed allocation of ``nbytes``.

    Call with the pool in its at-failure state (``MemoryPool.alloc``
    leaves the free list untouched when it raises). ``protect`` labels
    are never proposed for eviction — by default the persistent region.
    """
    aligned = _align(max(nbytes, 1))
    free = pool.free_bytes
    largest = pool.largest_free_block
    classification = (
        "fragmentation" if free >= aligned > largest else "capacity"
    )
    holes = tuple(
        sorted(pool.free_blocks(), key=lambda b: (-b[1], b[0]))[:_TOP_HOLES],
    )
    allocated = pool.allocated_blocks()
    offsets = [offset for offset, _, _ in allocated]

    def _label(handle: int) -> str:
        if recorder is not None:
            record = recorder.record(handle)
            if record is not None:
                return record.label
        return f"handle {handle}"

    blockers: list[str] = []
    for hole_offset, hole_size in holes:
        index = bisect_right(offsets, hole_offset) - 1
        if index >= 0:
            offset, blk, handle = allocated[index]
            if offset + blk == hole_offset:
                blockers.append(_label(handle))
        if index + 1 < len(allocated):
            offset, _, handle = allocated[index + 1]
            if offset == hole_offset + hole_size:
                blockers.append(_label(handle))
    seen: set[str] = set()
    unique_blockers = tuple(
        b for b in blockers if not (b in seen or seen.add(b))
    )
    eviction_set = minimal_eviction_set(
        pool, aligned, protect=protect, recorder=recorder,
    )
    return OOMPostmortem(
        time=time,
        label=label,
        requested=nbytes,
        aligned=aligned,
        capacity=pool.capacity,
        free_bytes=free,
        largest_free_block=largest,
        free_block_count=len(pool.free_blocks()),
        fragmentation=pool.fragmentation(),
        classification=classification,
        blockers=unique_blockers,
        eviction_set=eviction_set,
        eviction_bytes=sum(c.size for c in eviction_set),
        holes=holes,
    )


# -- address-space timeline --------------------------------------------------


@dataclass(frozen=True)
class AddressSpaceTimeline:
    """Address x time occupancy of one run's shadow address space.

    ``records`` carry concrete address ranges and birth/death times;
    ``occupancy`` is the ledger-exact ``(time, used_bytes)`` sample
    stream (agrees with the engine's peak at every event); ``snapshots``
    is the free-space structure after each pool event.
    """

    name: str
    capacity: int
    strategy: str
    end_time: float
    records: tuple[AllocationRecord, ...] = ()
    snapshots: tuple[PoolSnapshot, ...] = ()
    occupancy: tuple[tuple[float, int], ...] = ()

    @classmethod
    def from_trace(
        cls,
        trace: ExecutionTrace,
        capacity: int,
        *,
        strategy: str = "best_fit",
        snapshot_every: int = 1,
        plan=None,
    ) -> "AddressSpaceTimeline":
        """Rebuild a timeline offline from a traced run's allocation log.

        Replays ``trace.alloc_events`` through a fresh shadow pool in
        recorded order (the log is the engine's exact dispatch order, so
        re-sorting would shift same-timestamp placements), with the
        live observer's :class:`~repro.hardware.memory_pool.
        AllocationReplayer` rules, so both paths draw the same
        rectangles. Placement failures are tolerated — the offending
        allocation simply gets no rectangle. ``plan`` threads an
        :class:`~repro.planner.address_plan.AddressPlan` into the
        shadow pool for the ``"planned"`` strategy.
        """
        pool = MemoryPool(capacity=capacity, strategy=strategy, plan=plan)
        recorder = PoolRecorder(snapshot_every=snapshot_every)
        pool.recorder = recorder
        replayer = AllocationReplayer(pool)
        if trace.persistent_bytes:
            with suppress(OutOfMemoryError):
                replayer.alloc(
                    0.0, PERSISTENT_LABEL, trace.persistent_bytes,
                    instr="<run begin>",
                )
        for time, label, nbytes in trace.alloc_events:
            if nbytes > 0:
                with suppress(OutOfMemoryError):
                    replayer.alloc(time, label, nbytes)
            else:
                replayer.free(time, label, -nbytes)
        return cls(
            name=trace.name,
            capacity=capacity,
            strategy=strategy,
            end_time=trace.iteration_time,
            records=tuple(recorder.records),
            snapshots=tuple(recorder.snapshots),
            occupancy=tuple(
                (s.time, s.used_bytes) for s in trace.memory_samples
            ),
        )

    @property
    def peak_occupancy(self) -> int:
        """Largest ledger-used sample (equals the engine's peak)."""
        return max((used for _, used in self.occupancy), default=0)

    def to_chrome_events(self, pid: int = 0) -> list[dict]:
        """The timeline as Chrome trace events (Perfetto-loadable).

        Counter tracks carry the ledger-exact device-memory level, the
        pool fragmentation/free-block shape and the largest free block;
        allocation lifetimes render as "X" slices grouped into address
        bands, approximating the address x time occupancy rectangles.
        """
        from repro.telemetry.chrome import counter_track_events

        events = counter_track_events(
            "device memory (ledger)",
            [(time, used) for time, used in self.occupancy],
            pid=pid,
            process_name=f"memscope: {self.name or 'run'}",
        )
        events += counter_track_events(
            "pool free space",
            [
                (s.time, {
                    "largest_free_block": s.largest_free_block,
                    "free_bytes": s.free_bytes,
                })
                for s in self.snapshots
            ],
            pid=pid,
        )
        events += counter_track_events(
            "pool fragmentation",
            [
                (s.time, {
                    "fragmentation_pct": round(s.fragmentation * 100.0, 3),
                    "free_blocks": s.free_block_count,
                })
                for s in self.snapshots
            ],
            pid=pid,
        )
        band = max(1, -(-self.capacity // _ADDR_BANDS))
        named: set[int] = set()
        for record in self.records:
            tid = 10 + record.offset // band
            if tid not in named:
                named.add(tid)
                lo = (record.offset // band) * band
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid,
                    "args": {"name": (
                        f"addr {format_bytes(lo)}"
                        f"..{format_bytes(min(lo + band, self.capacity))}"
                    )},
                })
            death = record.death if record.death is not None else self.end_time
            events.append({
                "ph": "X", "name": record.label, "cat": "allocation",
                "pid": pid, "tid": tid,
                "ts": record.birth * 1e6,
                "dur": max(death - record.birth, 0.0) * 1e6,
                "args": {
                    "offset": record.offset, "size": record.size,
                    "nbytes": record.nbytes, "instr": record.instr,
                },
            })
        return events

    def heatmap(
        self, time_bins: int = 48, addr_bins: int = 32,
    ) -> dict:
        """Occupancy fraction per (address band, time slice) cell.

        ``cells[a][t]`` is the fraction of address band ``a`` during
        time slice ``t`` covered by live allocations — the JSON form of
        the address x time occupancy rectangles.
        """
        horizon = max(self.end_time, 1e-12)
        dt = horizon / time_bins
        da = self.capacity / addr_bins
        cells = [[0.0] * time_bins for _ in range(addr_bins)]
        for record in self.records:
            t0 = record.birth
            t1 = record.death if record.death is not None else self.end_time
            if t1 <= t0:
                t1 = min(t0 + dt * 1e-6, horizon)  # instantaneous sliver
            a0, a1 = record.offset, record.offset + record.size
            tb0 = max(0, min(time_bins - 1, int(t0 / dt)))
            tb1 = max(0, min(time_bins - 1, int((t1 - 1e-15) / dt)))
            ab0 = max(0, min(addr_bins - 1, int(a0 / da)))
            ab1 = max(0, min(addr_bins - 1, int((a1 - 1) / da)))
            for ab in range(ab0, ab1 + 1):
                alo, ahi = ab * da, (ab + 1) * da
                afrac = (min(a1, ahi) - max(a0, alo)) / da
                for tb in range(tb0, tb1 + 1):
                    tlo, thi = tb * dt, (tb + 1) * dt
                    tfrac = (min(t1, thi) - max(t0, tlo)) / dt
                    cells[ab][tb] += max(afrac, 0.0) * max(tfrac, 0.0)
        for row in cells:
            for index, value in enumerate(row):
                row[index] = min(1.0, round(value, 6))
        return {
            "name": self.name,
            "capacity": self.capacity,
            "end_time": self.end_time,
            "time_bins": time_bins,
            "addr_bins": addr_bins,
            "cells": cells,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "strategy": self.strategy,
            "end_time": self.end_time,
            "records": [r.to_dict() for r in self.records],
            "snapshots": [s.to_dict() for s in self.snapshots],
            "occupancy": [list(point) for point in self.occupancy],
        }

    def digest(self) -> str:
        """Content hash of the full timeline (determinism contract)."""
        return _digest(self.to_dict())


# -- per-tensor residency ----------------------------------------------------


@dataclass(frozen=True)
class TensorResidency:
    """Rolled-up residency analytics for one tensor label."""

    label: str
    allocations: int
    max_bytes: int
    time_resident: float
    evictions: int
    prefetches: int
    pcie_bytes: int
    stall_time: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "allocations": self.allocations,
            "max_bytes": self.max_bytes,
            "time_resident": self.time_resident,
            "evictions": self.evictions,
            "prefetches": self.prefetches,
            "pcie_bytes": self.pcie_bytes,
            "stall_time": self.stall_time,
        }


def tensor_residency(
    records,
    end_time: float,
    *,
    trace: ExecutionTrace | None = None,
    stall_by_label: dict[str, float] | None = None,
) -> list[TensorResidency]:
    """Per-tensor residency analytics from allocation records.

    Eviction/prefetch counts and PCIe bytes come from the trace's
    swap_out/swap_in instruction records (when a trace is given); stall
    attribution comes from the observer's byte-weighted split of each
    stall over the tensors resident at its end. Sorted by time resident,
    largest first, label as tiebreak.
    """
    allocs: dict[str, int] = {}
    max_bytes: dict[str, int] = {}
    resident: dict[str, float] = {}
    for record in records:
        label = record.label
        allocs[label] = allocs.get(label, 0) + 1
        max_bytes[label] = max(max_bytes.get(label, 0), record.nbytes)
        death = record.death if record.death is not None else end_time
        resident[label] = resident.get(label, 0.0) + max(
            death - record.birth, 0.0,
        )
    evictions: dict[str, int] = {}
    prefetches: dict[str, int] = {}
    pcie: dict[str, int] = {}
    if trace is not None:
        for instr in trace.records:
            if instr.kind == "swap_out":
                evictions[instr.label] = evictions.get(instr.label, 0) + 1
                pcie[instr.label] = pcie.get(instr.label, 0) + instr.nbytes
            elif instr.kind == "swap_in":
                prefetches[instr.label] = prefetches.get(instr.label, 0) + 1
                pcie[instr.label] = pcie.get(instr.label, 0) + instr.nbytes
    stalls = stall_by_label or {}
    rows = [
        TensorResidency(
            label=label,
            allocations=allocs[label],
            max_bytes=max_bytes[label],
            time_resident=resident[label],
            evictions=evictions.get(label, 0),
            prefetches=prefetches.get(label, 0),
            pcie_bytes=pcie.get(label, 0),
            stall_time=stalls.get(label, 0.0),
        )
        for label in allocs
    ]
    rows.sort(key=lambda r: (-r.time_resident, r.label))
    return rows


# -- the observer ------------------------------------------------------------


class MemscopeObserver(EngineObserver):
    """Shadow-pool observer: provenance, timelines and OOM forensics.

    Attach to any engine run (``observers=(MemscopeObserver(),)``) —
    observers cannot mutate engine state, so the executed plan and trace
    stay byte-identical with or without it. The observer replays the
    ledger's alloc/free event stream through a shadow
    :class:`~repro.hardware.memory_pool.MemoryPool` with the shared
    :class:`~repro.hardware.memory_pool.AllocationReplayer`, which
    decides which shadow block each ledger free releases.

    ``capacity`` overrides the shadow address-space size (default: the
    GPU's memory). Attached mid-run (``attach_observer``) the observer
    misses ``on_run_begin``; it then sizes a fresh address space lazily
    from the first event and tracks the partial window it saw —
    occupancy samples stay ledger-exact, provenance is partial.
    """

    def __init__(
        self,
        *,
        capacity: int | None = None,
        strategy: str = "best_fit",
        snapshot_every: int = 1,
        plan=None,
    ) -> None:
        self._capacity_override = capacity
        self.strategy = strategy
        self.snapshot_every = snapshot_every
        #: Address plan threaded into the shadow pool (``"planned"``
        #: strategy); lets memscope audit a planned placement live.
        self.plan = plan
        self._reset()

    def _reset(self) -> None:
        self.pool: MemoryPool | None = None
        self.recorder: PoolRecorder | None = None
        self.replayer: AllocationReplayer | None = None
        self.capacity = 0
        self.name = ""
        self.gpu_name = ""
        #: Ledger-exact ``(time, used_bytes)`` samples.
        self.occupancy: list[tuple[float, int]] = []
        self.placement_failures: list[OOMPostmortem] = []
        #: Postmortem of the engine-level OOM, if the run died of one.
        self.postmortem: OOMPostmortem | None = None
        self.stalls: list[tuple[float, str, float]] = []
        self.stall_time = 0.0
        self.stall_by_label: dict[str, float] = {}
        self.iterations: list[tuple[int, float, float]] = []
        self.trace: ExecutionTrace | None = None
        self._last_time = 0.0
        self._instr_cursor = 0

    # -- engine callbacks ---------------------------------------------------

    def on_run_begin(self, program, gpu) -> None:
        """Open a fresh shadow address space for this run."""
        self._reset()
        self.name = program.name
        self.gpu_name = gpu.name
        self.capacity = self._capacity_override or gpu.memory_bytes
        self._open_pool()
        if program.persistent_bytes:
            self._shadow_alloc(
                0.0, PERSISTENT_LABEL, program.persistent_bytes,
                instr="<run begin>",
            )
        self.occupancy.append((0.0, program.persistent_bytes))

    def _open_pool(self) -> None:
        self.pool = MemoryPool(
            capacity=self.capacity, strategy=self.strategy, plan=self.plan,
        )
        self.recorder = PoolRecorder(snapshot_every=self.snapshot_every)
        self.pool.recorder = self.recorder
        self.replayer = AllocationReplayer(self.pool)

    def _lazy_pool(self, used: int) -> None:
        """Mid-run attach: size an address space without ``on_run_begin``."""
        self.capacity = self._capacity_override or max(used * 2, 1)
        self._open_pool()

    def _shadow_alloc(
        self, time: float, label: str, nbytes: int, instr: str = "",
    ) -> None:
        assert self.replayer is not None
        try:
            self.replayer.alloc(time, label, nbytes, instr)
        except OutOfMemoryError:
            # The shadow pool can fragment where the byte ledger cannot;
            # record the forensics. The replayer keeps the bytes live
            # but unplaced, so the matching free releases nothing.
            self.placement_failures.append(analyze_failed_alloc(
                self.pool, nbytes, label=label, time=time,
                recorder=self.recorder,
            ))

    def on_alloc(self, time: float, label: str, nbytes: int,
                 used: int) -> None:
        """Sample the ledger level and place the bytes in the shadow pool."""
        self.occupancy.append((time, used))
        self._last_time = max(self._last_time, time)
        if self.pool is None:
            self._lazy_pool(used)
        if nbytes:
            self._shadow_alloc(time, label, nbytes)

    def on_free(self, time: float, label: str, nbytes: int,
                used: int) -> None:
        """Sample the ledger level and release the matching shadow block."""
        self.occupancy.append((time, used))
        self._last_time = max(self._last_time, time)
        if nbytes and self.replayer is not None:
            self.replayer.free(time, label, nbytes)

    def on_instr_end(
        self, label: str, kind: str, stream: str, start: float, end: float,
        nbytes: int = 0, tag: str = "",
    ) -> None:
        """Attribute freshly-born records to their requesting instruction.

        The engine notifies an instruction's allocations before the
        instruction itself, all stamped with the dispatch start time;
        records born at ``start`` and still unattributed belong to this
        instruction.
        """
        if self.recorder is None:
            return
        records = self.recorder.records
        index = self._instr_cursor
        while index < len(records) and records[index].birth < start:
            index += 1
        self._instr_cursor = index
        while index < len(records) and records[index].birth == start:
            if not records[index].instr:
                records[index].instr = label
            index += 1

    def on_stall_end(self, time: float, label: str, stalled: float) -> None:
        """Split the stall over the tensors resident when it resolved."""
        self.stalls.append((time, label, stalled))
        self.stall_time += stalled
        if self.recorder is None:
            return
        live = self.recorder.live_records()
        total = sum(record.size for record in live)
        if total <= 0:
            return
        for record in live:
            share = stalled * (record.size / total)
            self.stall_by_label[record.label] = (
                self.stall_by_label.get(record.label, 0.0) + share
            )

    def on_oom(
        self, time: float, label: str, requested: int, available: int,
    ) -> None:
        """Engine-terminal OOM: freeze the blame report."""
        if self.pool is not None:
            self.postmortem = analyze_failed_alloc(
                self.pool, requested, label=label, time=time,
                recorder=self.recorder,
            )
        else:  # pre-first-event OOM: bytes-only forensics
            self.postmortem = OOMPostmortem(
                time=time, label=label, requested=requested,
                aligned=_align(max(requested, 1)), capacity=0,
                free_bytes=available, largest_free_block=available,
                free_block_count=1 if available else 0,
                fragmentation=0.0, classification="capacity",
            )

    def on_iteration_end(self, index: int, start: float, end: float) -> None:
        """Record the iteration window."""
        self.iterations.append((index, start, end))

    def on_run_end(self, trace: ExecutionTrace) -> None:
        """Keep the finalized trace for residency analytics + metrics."""
        self.trace = trace
        from repro.telemetry import get_telemetry

        metrics = get_telemetry().metrics
        if metrics.enabled and self.recorder is not None:
            metrics.counter("memscope.records").inc(
                len(self.recorder.records),
            )
            metrics.counter("memscope.placement_failures").inc(
                len(self.placement_failures),
            )
            metrics.gauge("memscope.final_fragmentation").set(
                self.pool.fragmentation() if self.pool else 0.0,
            )

    # -- products -----------------------------------------------------------

    @property
    def end_time(self) -> float:
        """Horizon of the observed run on the simulated clock."""
        if self.trace is not None:
            return max(self.trace.iteration_time, self._last_time)
        return self._last_time

    def timeline(self) -> AddressSpaceTimeline:
        """The run's address x time occupancy, as observed so far."""
        return AddressSpaceTimeline(
            name=self.name,
            capacity=self.capacity,
            strategy=self.strategy,
            end_time=self.end_time,
            records=tuple(self.recorder.records) if self.recorder else (),
            snapshots=(
                tuple(self.recorder.snapshots) if self.recorder else ()
            ),
            occupancy=tuple(self.occupancy),
        )

    def residency(self) -> list[TensorResidency]:
        """Per-tensor residency analytics for this run."""
        records = self.recorder.records if self.recorder else []
        return tensor_residency(
            records, self.end_time, trace=self.trace,
            stall_by_label=self.stall_by_label,
        )

    def report(
        self,
        *,
        gpu: str = "",
        policy: str = "",
        feasible: bool = True,
        failure: str = "",
    ) -> "MemscopeReport":
        """Roll everything up into one report object."""
        timeline = self.timeline()
        return MemscopeReport(
            name=self.name,
            gpu=gpu or self.gpu_name,
            policy=policy,
            capacity=self.capacity,
            strategy=self.strategy,
            feasible=feasible,
            failure=failure,
            peak_memory=timeline.peak_occupancy,
            stall_time=self.stall_time,
            pool_stats=(
                self.pool.stats.snapshot() if self.pool is not None else {}
            ),
            final_fragmentation=(
                self.pool.fragmentation() if self.pool is not None else 0.0
            ),
            timeline=timeline,
            residency=tuple(self.residency()),
            postmortem=self.postmortem,
            placement_failures=tuple(self.placement_failures),
        )


# -- the report --------------------------------------------------------------


@dataclass
class MemscopeReport:
    """One run's memscope findings: timeline, residency, forensics."""

    name: str
    gpu: str
    policy: str
    capacity: int
    strategy: str
    feasible: bool
    failure: str
    peak_memory: int
    stall_time: float
    pool_stats: dict
    final_fragmentation: float
    timeline: AddressSpaceTimeline
    residency: tuple[TensorResidency, ...] = ()
    postmortem: OOMPostmortem | None = None
    placement_failures: tuple[OOMPostmortem, ...] = ()

    def to_json(self, *, full_timeline: bool = False) -> dict:
        """JSON-ready payload; ``full_timeline`` inlines every record."""
        payload = {
            "name": self.name,
            "gpu": self.gpu,
            "policy": self.policy,
            "capacity": self.capacity,
            "strategy": self.strategy,
            "feasible": self.feasible,
            "failure": self.failure,
            "peak_memory": self.peak_memory,
            "stall_time": self.stall_time,
            "pool_stats": dict(self.pool_stats),
            "final_fragmentation": self.final_fragmentation,
            "timeline_digest": self.timeline.digest(),
            "residency": [r.to_dict() for r in self.residency],
            "postmortem": (
                self.postmortem.to_dict() if self.postmortem else None
            ),
            "placement_failures": [
                p.to_dict() for p in self.placement_failures
            ],
        }
        if full_timeline:
            payload["timeline"] = self.timeline.to_dict()
        return payload

    def digest(self) -> str:
        """Content hash of the report (determinism contract)."""
        return _digest(self.to_json(full_timeline=True))

    def to_markdown(self, top: int = 15) -> str:
        """Human-readable report."""
        stats = self.pool_stats
        lines = [
            f"# Memscope: {self.name} [{self.policy}] on {self.gpu}",
            "",
            f"- address space {format_bytes(self.capacity)} "
            f"({self.strategy}), ledger peak "
            f"{format_bytes(self.peak_memory)}",
            f"- pool: {stats.get('alloc_count', 0)} allocs, "
            f"{stats.get('free_count', 0)} frees, "
            f"{stats.get('failed_allocs', 0)} failed, peak "
            f"{format_bytes(stats.get('peak_used', 0))} (aligned)",
            f"- final fragmentation {self.final_fragmentation:.1%}; "
            f"free-list shape: largest "
            f"{format_bytes(stats.get('largest_free_block', 0))} across "
            f"{stats.get('free_block_count', 0)} block(s)",
            f"- memory stalls {format_time(self.stall_time)}",
        ]
        if not self.feasible:
            lines.append(f"- **run failed**: {self.failure}")
        rows = self.residency[:top]
        if rows:
            lines += [
                "",
                f"## Tensor residency (top {len(rows)} by time resident)",
                "",
                "| tensor | allocs | max bytes | resident | evict | "
                "prefetch | pcie | stall |",
                "|--------|--------|-----------|----------|-------|"
                "----------|------|-------|",
            ]
            for row in rows:
                lines.append(
                    f"| {row.label} | {row.allocations} | "
                    f"{format_bytes(row.max_bytes)} | "
                    f"{format_time(row.time_resident)} | "
                    f"{row.evictions} | {row.prefetches} | "
                    f"{format_bytes(row.pcie_bytes)} | "
                    f"{format_time(row.stall_time)} |"
                )
        if self.placement_failures:
            lines += [
                "",
                f"## Placement failures ({len(self.placement_failures)})",
                "",
                "The byte ledger admitted these allocations but the "
                "shadow pool could not place them contiguously:",
                "",
            ]
            for failure in self.placement_failures[:5]:
                lines.append(failure.describe())
                lines.append("")
        if self.postmortem is not None:
            lines += ["", "## OOM postmortem", "", self.postmortem.describe()]
        return "\n".join(lines)


# -- drivers (CLI / sweeps) --------------------------------------------------


@dataclass
class MemscopeRun:
    """A memscope-instrumented run's artifacts."""

    report: MemscopeReport
    observer: MemscopeObserver
    trace: ExecutionTrace | None = None
    chrome: object | None = None  # ChromeTraceObserver when requested
    compiled: object | None = None  # pipeline CompiledRun

    def merged_trace(self) -> dict:
        """One Perfetto payload: engine events + memscope counter tracks."""
        from repro.telemetry.chrome import merge_traces

        sources = []
        names = []
        if self.chrome is not None:
            sources.append(self.chrome)
            names.append("engine execution")
        sources.append(self.report.timeline.to_chrome_events())
        names.append("memscope address space")
        return merge_traces(*sources, names=names)


def run_memscope(
    model,
    policy,
    gpu,
    batch: int,
    *,
    param_scale: float = 1.0,
    precision: str = "fp32",
    capacity_frac: float = 1.0,
    strategy: str = "best_fit",
    snapshot_every: int = 1,
    iterations: int | None = None,
    faults=None,
    cache=None,
    with_chrome: bool = False,
    **overrides,
) -> MemscopeRun:
    """Compile + execute one configuration under memscope.

    Capacity failures never raise — an engine OOM comes back as an
    infeasible report whose observer still carries the postmortem.
    ``capacity_frac`` shrinks the device below the preset (the standard
    way to provoke memory pressure); ``with_chrome`` additionally
    attaches a :class:`~repro.runtime.observers.ChromeTraceObserver` so
    :meth:`MemscopeRun.merged_trace` includes the engine slices.
    """
    import dataclasses

    from repro.pipeline.compile import compile_run

    if capacity_frac != 1.0:
        gpu = dataclasses.replace(
            gpu,
            name=f"{gpu.name} (x{capacity_frac:g} capacity)",
            memory_bytes=int(gpu.memory_bytes * capacity_frac),
        )
    if isinstance(model, str):
        from repro.models.registry import build_model

        graph = build_model(
            model, batch,
            param_scale=param_scale, precision=precision, **overrides,
        )
    else:
        graph = model
    observer = MemscopeObserver(
        strategy=strategy, snapshot_every=snapshot_every,
    )
    observers: list[EngineObserver] = [observer]
    chrome = None
    if with_chrome:
        from repro.runtime.observers import ChromeTraceObserver

        chrome = ChromeTraceObserver()
        observers.append(chrome)
    compiled = compile_run(
        graph, policy, gpu, cache=cache, observers=observers,
        iterations=iterations, faults=faults,
    )
    result = compiled.result
    policy_name = result.policy
    report = observer.report(
        gpu=gpu.name, policy=policy_name,
        feasible=result.feasible, failure=result.failure,
    )
    return MemscopeRun(
        report=report, observer=observer, trace=result.trace,
        chrome=chrome, compiled=compiled,
    )


def memscope_point(
    model: str,
    policy: str,
    gpu,
    batch: int,
    *,
    capacity_frac: float = 1.0,
    strategy: str = "best_fit",
    param_scale: float = 1.0,
    cache=None,
    **overrides,
) -> dict:
    """One memscope run as a sweep point: its scalars plus content hashes.

    ``timeline_digest`` and ``report_digest`` hash the shadow pool's
    address-space timeline and the full report (postmortem included);
    identical digests across serial, thread and process sweeps are the
    memscope determinism contract.
    """
    run = run_memscope(
        model, policy, gpu, batch,
        param_scale=param_scale, capacity_frac=capacity_frac,
        strategy=strategy, cache=cache, **overrides,
    )
    report = run.report
    postmortem = run.observer.postmortem
    return {
        "model": model,
        "policy": policy,
        "batch": batch,
        "capacity_frac": capacity_frac,
        "strategy": strategy,
        "feasible": report.feasible,
        "peak_memory": report.peak_memory,
        "records": len(report.timeline.records),
        "classification": (
            postmortem.classification if postmortem is not None else ""
        ),
        "timeline_digest": report.timeline.digest(),
        "report_digest": report.digest(),
    }


def run_memscope_cluster(
    model: str,
    batch: int,
    policy,
    cluster,
    *,
    mode: str = "dp",
    micros: int | None = None,
    strategy: str = "best_fit",
    snapshot_every: int = 1,
    param_scale: float = 1.0,
    cache=None,
) -> tuple[list[MemscopeRun], object]:
    """Per-rank memscope over a cluster execution.

    Compiles under the chosen parallelism mode, attaches one
    :class:`MemscopeObserver` plus one Chrome observer per rank, and
    returns ``(per-rank MemscopeRun list, ClusterTrace)``. Raises
    :class:`~repro.errors.PlanningError` on infeasible compiles (the
    cluster compiler's contract).
    """
    from repro.cluster import compile_cluster
    from repro.runtime.observers import ChromeTraceObserver

    compiled = compile_cluster(
        model, batch, policy, cluster,
        mode=mode, micros=micros, cache=cache, param_scale=param_scale,
    )
    world = cluster.world_size
    scopes = [
        MemscopeObserver(strategy=strategy, snapshot_every=snapshot_every)
        for _ in range(world)
    ]
    chromes = [ChromeTraceObserver(pid=rank) for rank in range(world)]
    trace = compiled.execute(
        observers=[[scopes[rank], chromes[rank]] for rank in range(world)],
    )
    runs = []
    for rank in range(world):
        report = scopes[rank].report(
            gpu=cluster.gpus[rank].name,
            policy=policy if isinstance(policy, str) else policy.name,
        )
        report.name = f"{report.name or model}/rank{rank}"
        runs.append(MemscopeRun(
            report=report, observer=scopes[rank],
            trace=trace.ranks[rank], chrome=chromes[rank],
        ))
    return runs, trace

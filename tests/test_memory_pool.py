"""Best-fit memory pool: allocation, coalescing, fragmentation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, OutOfMemoryError
from repro.hardware.memory_pool import (
    ALIGNMENT,
    SEGREGATION_THRESHOLD,
    AllocationReplayer,
    MemoryPool,
    PoolRecorder,
    _align,
)
from repro.units import KB, MB


class TestBasics:
    def test_alloc_free_roundtrip(self):
        pool = MemoryPool(capacity=1 * MB)
        handle = pool.alloc(100 * KB)
        assert pool.used_bytes >= 100 * KB
        pool.free(handle)
        assert pool.used_bytes == 0

    def test_alignment(self):
        pool = MemoryPool(capacity=1 * MB)
        pool.alloc(1)
        assert pool.used_bytes == ALIGNMENT

    def test_oom_raises_with_context(self):
        pool = MemoryPool(capacity=64 * KB)
        with pytest.raises(OutOfMemoryError) as excinfo:
            pool.alloc(128 * KB)
        assert excinfo.value.capacity == 64 * KB

    def test_double_free_rejected(self):
        pool = MemoryPool(capacity=1 * MB)
        handle = pool.alloc(KB)
        pool.free(handle)
        with pytest.raises(AllocationError):
            pool.free(handle)

    def test_zero_alloc_rejected(self):
        pool = MemoryPool(capacity=1 * MB)
        with pytest.raises(AllocationError):
            pool.alloc(0)

    def test_bad_strategy_rejected(self):
        with pytest.raises(AllocationError):
            MemoryPool(capacity=1 * MB, strategy="wishful")

    def test_reset(self):
        pool = MemoryPool(capacity=1 * MB)
        pool.alloc(KB)
        pool.reset()
        assert pool.used_bytes == 0
        assert pool.largest_free_block == 1 * MB


class TestCoalescing:
    def test_free_neighbours_merge(self):
        pool = MemoryPool(capacity=1 * MB)
        handles = [pool.alloc(100 * KB) for _ in range(3)]
        for handle in handles:
            pool.free(handle)
        assert pool.largest_free_block == 1 * MB
        assert pool.fragmentation() == 0.0

    def test_hole_between_allocations(self):
        pool = MemoryPool(capacity=1 * MB)
        a = pool.alloc(100 * KB)
        b = pool.alloc(100 * KB)
        c = pool.alloc(100 * KB)
        pool.free(b)
        # A hole exists: total free larger than largest block.
        assert pool.fragmentation() > 0.0
        pool.free(a)
        pool.free(c)
        assert pool.fragmentation() == 0.0

    def test_external_fragmentation_blocks_alloc(self):
        pool = MemoryPool(capacity=400 * KB)
        handles = [pool.alloc(100 * KB) for _ in range(4)]
        pool.free(handles[0])
        pool.free(handles[2])
        # 200 KB free, but no 150 KB contiguous block.
        assert not pool.can_alloc(150 * KB)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(150 * KB)


class TestStrategies:
    @staticmethod
    def _two_hole_pool(strategy: str) -> MemoryPool:
        """Fully-packed 200 KB pool with a 100 KB and a 30 KB hole."""
        pool = MemoryPool(capacity=200 * KB, strategy=strategy)
        a = pool.alloc(100 * KB)
        pool.alloc(10 * KB)  # pinned separator
        b = pool.alloc(30 * KB)
        pool.alloc(60 * KB)  # pinned tail
        pool.free(a)
        pool.free(b)
        return pool

    def test_best_fit_prefers_tight_hole(self):
        pool = self._two_hole_pool("best_fit")
        pool.alloc(30 * KB)  # exactly fills the 30 KB hole
        assert pool.largest_free_block == 100 * KB

    def test_first_fit_takes_earliest_hole(self):
        pool = self._two_hole_pool("first_fit")
        pool.alloc(30 * KB)  # lands at offset 0, fragmenting the big hole
        assert pool.largest_free_block == 70 * KB

    def test_worst_fit_takes_biggest_hole(self):
        pool = self._two_hole_pool("worst_fit")
        pool.alloc(10 * KB)
        assert pool.largest_free_block == 90 * KB

    def test_segregated_micro_allocs_carve_from_top(self):
        pool = MemoryPool(
            capacity=SEGREGATION_THRESHOLD * 4, strategy="segregated",
        )
        pool.alloc(KB)
        # The micro-tensor sits at the top: the single free block still
        # starts at offset 0.
        assert pool._free[0].offset == 0
        assert pool.largest_free_block == pool.capacity - KB

    def test_alloc_exactly_at_segregation_threshold_goes_bottom(self):
        """The threshold is exclusive: a request of exactly
        SEGREGATION_THRESHOLD bytes is a *large* buffer and must take
        the best-fit bottom path, not the top carve."""
        pool = MemoryPool(
            capacity=SEGREGATION_THRESHOLD * 4, strategy="segregated",
        )
        pool.alloc(SEGREGATION_THRESHOLD)
        assert pool._free[0].offset == SEGREGATION_THRESHOLD
        # One byte less is a micro-tensor and carves from the top.
        pool.alloc(SEGREGATION_THRESHOLD - ALIGNMENT)
        assert pool._free[0].offset == SEGREGATION_THRESHOLD
        assert len(pool._free) == 1

    def test_segregated_coalesces_top_carve_with_bottom_block(self):
        """Freeing a bottom (large) buffer adjacent to a freed top carve
        must merge back into one hole."""
        capacity = SEGREGATION_THRESHOLD * 2
        pool = MemoryPool(capacity=capacity, strategy="segregated")
        bottom = pool.alloc(SEGREGATION_THRESHOLD)        # [0, T)
        top = pool.alloc(capacity - SEGREGATION_THRESHOLD)  # [T, 2T)
        assert pool.free_bytes == 0
        pool.free(top)
        pool.free(bottom)
        assert pool.largest_free_block == capacity
        assert pool.fragmentation() == 0.0

    def test_segregated_micro_free_merges_with_neighbour_carves(self):
        pool = MemoryPool(
            capacity=SEGREGATION_THRESHOLD, strategy="segregated",
        )
        handles = [pool.alloc(4 * KB) for _ in range(3)]
        for handle in handles:
            pool.free(handle)
        assert pool.largest_free_block == pool.capacity
        assert pool.fragmentation() == 0.0

    def test_segregated_double_free_rejected(self):
        pool = MemoryPool(capacity=1 * MB, strategy="segregated")
        handle = pool.alloc(KB)
        pool.free(handle)
        with pytest.raises(AllocationError):
            pool.free(handle)

    def test_stats_accumulate(self):
        pool = MemoryPool(capacity=MB)
        handle = pool.alloc(KB)
        pool.free(handle)
        try:
            pool.alloc(2 * MB)
        except OutOfMemoryError:
            pass
        snap = pool.stats.snapshot()
        assert snap["alloc_count"] == 1
        assert snap["free_count"] == 1
        assert snap["failed_allocs"] == 1
        assert snap["peak_used"] >= KB


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=64 * KB)),
        min_size=1, max_size=60,
    ),
    strategy=st.sampled_from(
        ["best_fit", "first_fit", "worst_fit", "segregated"],
    ),
)
def test_pool_invariants_under_random_workload(ops, strategy):
    """Accounting invariants hold for any alloc/free sequence."""
    pool = MemoryPool(capacity=512 * KB, strategy=strategy)
    live: list[int] = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            try:
                live.append(pool.alloc(size))
            except OutOfMemoryError:
                pass
        else:
            pool.free(live.pop(0))
    # Invariants: used + free == capacity; largest block <= free total.
    assert pool.used_bytes + pool.free_bytes == pool.capacity
    assert pool.largest_free_block <= pool.free_bytes
    assert 0.0 <= pool.fragmentation() <= 1.0
    # Free everything: pool returns to one block.
    for handle in live:
        pool.free(handle)
    assert pool.used_bytes == 0
    assert pool.largest_free_block == pool.capacity


class TestFreePathAccounting:
    """Regression coverage for the free-path / shape-stat audit."""

    def test_empty_pool_fragmentation_is_zero(self):
        pool = MemoryPool(capacity=MB)
        assert pool.fragmentation() == 0.0
        assert pool.largest_free_block == MB
        assert pool.free_bytes == MB

    def test_full_pool_fragmentation_is_zero(self):
        pool = MemoryPool(capacity=MB)
        pool.alloc(MB)
        assert pool.free_bytes == 0
        assert pool.largest_free_block == 0
        assert pool.fragmentation() == 0.0  # no holes, not a div-by-zero

    def test_free_list_sum_matches_free_bytes(self):
        pool = MemoryPool(capacity=MB)
        handles = [pool.alloc(50 * KB) for _ in range(6)]
        for handle in handles[::2]:
            pool.free(handle)
        assert sum(size for _, size in pool.free_blocks()) == pool.free_bytes
        assert pool.stats.largest_free_block == pool.largest_free_block
        assert pool.stats.free_block_count == len(pool.free_blocks())

    def test_segregated_threshold_boundary(self):
        # Exactly at the threshold an allocation is "large" (best fit,
        # low addresses); one byte below it is "small" (carved from the
        # top of the highest hole).
        pool = MemoryPool(
            capacity=SEGREGATION_THRESHOLD * 4, strategy="segregated",
        )
        large = pool.alloc(SEGREGATION_THRESHOLD)
        small = pool.alloc(SEGREGATION_THRESHOLD - ALIGNMENT)
        blocks = {h: (off, size) for off, size, h in pool.allocated_blocks()}
        assert blocks[large][0] == 0
        assert blocks[small][0] + blocks[small][1] == pool.capacity
        pool.free(large)
        pool.free(small)
        assert pool.largest_free_block == pool.capacity
        assert pool.fragmentation() == 0.0

    def test_shape_stats_track_failed_alloc(self):
        pool = MemoryPool(capacity=256 * KB)
        keep = pool.alloc(64 * KB)
        hole_maker = pool.alloc(64 * KB)
        pool.alloc(64 * KB)
        pool.free(hole_maker)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(128 * KB)
        # Stats mirror the free-list shape at the failure instant.
        assert pool.stats.failed_allocs == 1
        assert pool.stats.largest_free_block == pool.largest_free_block
        assert pool.stats.free_block_count == len(pool.free_blocks())
        assert pool.stats.free_block_count == 2  # the hole + the tail
        pool.free(keep)

    def test_shape_stats_follow_reset(self):
        pool = MemoryPool(capacity=MB)
        pool.alloc(KB)
        pool.alloc(KB)
        pool.reset()
        assert pool.stats.largest_free_block == MB
        assert pool.stats.free_block_count == 1


class TestPoolRecorder:
    def test_records_and_death_stamping(self):
        pool = MemoryPool(capacity=MB)
        pool.recorder = PoolRecorder()
        a = pool.alloc(KB, label="a", time=1.0, instr="op1")
        b = pool.alloc(2 * KB, label="b", time=2.0)
        pool.free(a, time=3.0)
        records = pool.recorder.records
        assert [r.label for r in records] == ["a", "b"]
        assert records[0].death == 3.0
        assert records[0].instr == "op1"
        assert records[0].nbytes == KB
        assert records[0].size == _align(KB)
        assert [r.label for r in pool.recorder.live_records()] == ["b"]
        assert pool.recorder.record(b).live

    def test_failure_and_snapshot_stream(self):
        pool = MemoryPool(capacity=64 * KB)
        pool.recorder = PoolRecorder()
        pool.alloc(32 * KB, label="x", time=1.0)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(MB, label="too-big", time=2.0)
        assert pool.recorder.failures == [(2.0, "too-big", MB)]
        # One snapshot per event: the alloc and the failure.
        assert len(pool.recorder.snapshots) == 2
        failure_snap = pool.recorder.snapshots[-1]
        assert failure_snap.largest_free_block == pool.largest_free_block
        assert failure_snap.free_block_count == len(pool.free_blocks())

    def test_snapshot_cadence_thins_stream(self):
        pool = MemoryPool(capacity=MB)
        pool.recorder = PoolRecorder(snapshot_every=3)
        handles = [pool.alloc(KB, time=float(i)) for i in range(6)]
        for i, handle in enumerate(handles):
            pool.free(handle, time=10.0 + i)
        # 12 events at cadence 3 -> 4 snapshots; records stay complete.
        assert len(pool.recorder.snapshots) == 4
        assert len(pool.recorder.records) == 6

    def test_reset_closes_live_records(self):
        pool = MemoryPool(capacity=MB)
        pool.recorder = PoolRecorder()
        pool.alloc(KB, label="a", time=1.0)
        pool.alloc(KB, label="b", time=2.0)
        pool.reset(time=5.0)
        assert pool.recorder.live_records() == []
        assert all(r.death == 5.0 for r in pool.recorder.records)
        assert pool.recorder.snapshots[-1].used_bytes == 0


class TestPlannedStrategy:
    """The ``"planned"`` strategy: O(1) plan-directed placement with a
    loud best-fit fallback for off-plan requests."""

    def plan(self, entries, loop_start=0, persistent=0):
        from repro.planner.address_plan import AddressPlan

        peak = max((e.offset + e.size for e in entries), default=0)
        return AddressPlan(
            name="unit", alignment=ALIGNMENT, persistent_size=persistent,
            packed_peak=peak, baseline_extent=peak, heuristic="bfd",
            end_time=1.0, entries=tuple(entries), loop_start=loop_start,
        )

    def entry(self, seq, label, nbytes, offset):
        from repro.planner.address_plan import PlannedAlloc

        return PlannedAlloc(
            seq=seq, label=label, nbytes=nbytes, size=_align(nbytes),
            offset=offset, birth=0.0,
        )

    def test_planned_without_plan_rejected(self):
        with pytest.raises(AllocationError, match="plan"):
            MemoryPool(capacity=MB, strategy="planned")

    def test_placements_follow_the_plan_exactly(self):
        # The plan deliberately inverts allocation order in address
        # space (first alloc at the higher offset) — only plan-directed
        # placement, not any online strategy, produces this layout.
        plan = self.plan([
            self.entry(0, "a", 256, 512),
            self.entry(1, "b", 512, 0),
        ])
        pool = MemoryPool(capacity=1024, strategy="planned", plan=plan)
        a = pool.alloc(256, label="a")
        b = pool.alloc(512, label="b")
        assert pool.block_offset(a) == 512
        assert pool.block_offset(b) == 0
        assert pool.stats.plan_hits == 2
        assert pool.stats.plan_misses == 0
        assert pool.stats.peak_extent == 768
        pool.free(a)
        pool.free(b)
        assert pool.used_bytes == 0

    def test_carve_splits_the_containing_free_block(self):
        plan = self.plan([self.entry(0, "mid", 256, 512)])
        pool = MemoryPool(capacity=1024, strategy="planned", plan=plan)
        pool.alloc(256, label="mid")
        # [0, 512) and [768, 1024) remain free around the carve.
        assert pool.free_blocks() == ((0, 512), (768, 256))

    def test_off_plan_request_falls_back_loudly(self):
        plan = self.plan([self.entry(0, "a", 256, 0)])
        pool = MemoryPool(capacity=1024, strategy="planned", plan=plan)
        with pytest.warns(RuntimeWarning, match="falling back"):
            # Size mismatch: not the planned next allocation. The
            # cursor must NOT advance — the slot is still a's.
            stray = pool.alloc(512, label="a")
        assert pool.stats.plan_misses == 1
        assert pool.plan_fallbacks == [(0.0, "a", 512)]
        assert pool.block_offset(stray) == 0  # best-fit placement
        # a's planned offset is now occupied by the fallback: the slot
        # is consumed (cursor advances) even though the carve fails.
        a = pool.alloc(256, label="a")
        assert pool.stats.plan_misses == 2
        assert pool.block_offset(a) == 512
        assert pool.stats.plan_hits == 0

    def test_label_mismatch_is_a_miss(self):
        plan = self.plan([self.entry(0, "a", 256, 0)])
        pool = MemoryPool(capacity=1024, strategy="planned", plan=plan)
        with pytest.warns(RuntimeWarning):
            pool.alloc(256, label="not-a")
        assert pool.stats.plan_misses == 1

    def test_empty_label_matches_anything(self):
        plan = self.plan([self.entry(0, "a", 256, 256)])
        pool = MemoryPool(capacity=1024, strategy="planned", plan=plan)
        handle = pool.alloc(256)  # unlabelled request
        assert pool.block_offset(handle) == 256
        assert pool.stats.plan_hits == 1

    def test_cursor_wraps_past_persistent_entry(self):
        from repro.hardware.memory_pool import PERSISTENT_LABEL

        plan = self.plan([
            self.entry(0, PERSISTENT_LABEL, 1024, 0),
            self.entry(1, "a", 256, 1024),
            self.entry(2, "b", 256, 1280),
        ], loop_start=1, persistent=1024)
        pool = MemoryPool(capacity=2048, strategy="planned", plan=plan)
        pool.alloc(1024, label=PERSISTENT_LABEL)
        for _ in range(3):  # three "iterations" over the loop body
            a = pool.alloc(256, label="a")
            b = pool.alloc(256, label="b")
            assert pool.block_offset(a) == 1024
            assert pool.block_offset(b) == 1280
            pool.free(a)
            pool.free(b)
        assert pool.stats.plan_hits == 7
        assert pool.stats.plan_misses == 0

    def test_reset_rewinds_the_cursor(self):
        plan = self.plan([
            self.entry(0, "a", 256, 0),
            self.entry(1, "b", 256, 256),
        ])
        pool = MemoryPool(capacity=1024, strategy="planned", plan=plan)
        pool.alloc(256, label="a")
        pool.reset()
        # After reset the next request matches entry 0 again.
        handle = pool.alloc(256, label="a")
        assert pool.block_offset(handle) == 0
        assert pool.stats.plan_misses == 0

    def test_block_offset_rejects_unknown_handle(self):
        pool = MemoryPool(capacity=1024)
        with pytest.raises(AllocationError, match="handle"):
            pool.block_offset(12345)


class TestAllocationReplayer:
    """The one free-matching rule every allocation-stream replay uses."""

    def test_sequence_numbers_without_a_pool(self):
        replayer = AllocationReplayer()
        assert replayer.alloc(0.0, "x", 256) == 0
        assert replayer.alloc(0.0, "y", 512) == 1
        assert replayer.alloc(0.0, "x", 512) == 2
        assert replayer.free(1.0, "x", 512) == 2
        assert replayer.free(1.0, "ghost", 256) is None
        assert replayer.free(1.0, "x", 512) == 0  # FIFO fallback
        assert replayer.free(1.0, "x", 256) is None

    def test_unplaced_free_releases_nothing(self):
        pool = MemoryPool(capacity=1024)
        replayer = AllocationReplayer(pool)
        replayer.alloc(0.0, "x", 256)
        replayer.alloc(0.0, "y", 512)
        with pytest.raises(OutOfMemoryError):
            replayer.alloc(0.0, "x", 512)
        assert replayer.free(1.0, "x", 512) == 2
        assert pool.used_bytes == 768
        assert replayer.free(1.0, "x", 256) == 0
        assert pool.used_bytes == 512

    def test_placed_allocation_goes_before_unplaced(self):
        pool = MemoryPool(capacity=512)
        replayer = AllocationReplayer(pool)
        replayer.alloc(0.0, "x", 512)
        with pytest.raises(OutOfMemoryError):
            replayer.alloc(0.0, "x", 512)
        # Both are live with the freed size: the placed one is released.
        assert replayer.free(1.0, "x", 512) == 0
        assert pool.used_bytes == 0

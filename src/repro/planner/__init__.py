"""Offline allocator planning: concrete addresses ahead of execution."""

from repro.planner.address_plan import (
    AddressPlan,
    AllocationInterval,
    PlannedAlloc,
    best_fit_extent,
    extract_intervals,
    packed_feasible,
    plan_addresses,
)

__all__ = [
    "AddressPlan",
    "AllocationInterval",
    "PlannedAlloc",
    "best_fit_extent",
    "extract_intervals",
    "packed_feasible",
    "plan_addresses",
]

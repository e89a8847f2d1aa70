"""Nested-paging (EPT/NPT) and TLB cost model.

While the BMcast VMM is active it runs the guest under nested paging with
an identity map, purely to (a) trap MMIO regions of mediated devices and
(b) protect the VMM's reserved memory.  The performance consequence the
paper measures (Section 5.2) is TLB pollution: up to 5x more TLB misses,
each costing about twice as much due to two-dimensional page walks.

This module provides both the functional side (identity mapping, MMIO trap
ranges, reserved-region protection, per-CPU teardown for de-virtualization)
and the cost side (a multiplicative slowdown for a workload's memory
profile).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import params


class MmuFault(Exception):
    """Guest touched memory it must not (the VMM's protected region)."""


@dataclass(frozen=True)
class MemoryProfile:
    """How sensitive a workload is to TLB behaviour.

    ``tlb_stall_fraction`` is the fraction of run time the workload spends
    servicing TLB misses *on bare metal*.  Under nested paging that time is
    scaled by miss-rate and walk-latency multipliers.
    """

    tlb_stall_fraction: float

    def slowdown(self, nested_paging: bool,
                 miss_multiplier: float = params.EPT_TLB_MISS_MULTIPLIER,
                 walk_multiplier: float = params.EPT_TLB_WALK_MULTIPLIER,
                 ) -> float:
        """Multiplicative execution-time factor (>= 1.0)."""
        if not nested_paging:
            return 1.0
        stall = self.tlb_stall_fraction
        inflated = stall * miss_multiplier * walk_multiplier
        return (1.0 - stall) + inflated


#: Profiles for the workload classes used across the evaluation, calibrated
#: so the EPT-on slowdowns land where the paper's Section 5 reports them.
PROFILE_KV_STORE = MemoryProfile(tlb_stall_fraction=0.004)
PROFILE_MEMORY_BENCH = MemoryProfile(tlb_stall_fraction=0.006)
PROFILE_COMPILE = MemoryProfile(tlb_stall_fraction=0.002)
PROFILE_THREADS = MemoryProfile(tlb_stall_fraction=0.001)


@dataclass(frozen=True)
class TrapRange:
    """A guest-physical address range whose accesses cause VM exits."""

    start: int
    length: int
    tag: str

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


class NestedPageTable:
    """Per-CPU nested paging state with identity mapping.

    The mapping is always identity (paper 3.4), which is what makes
    asynchronous per-CPU teardown safe: there is never a stale translation
    that differs between CPUs.
    """

    def __init__(self):
        self.enabled = False
        self._trap_ranges: list[TrapRange] = []
        self._protected: list[TrapRange] = []
        #: Count of TLB invalidations performed (for tests/metrics).
        self.tlb_flushes = 0

    # -- configuration -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True
        self.tlb_flushes += 1

    def disable(self) -> None:
        """Tear down nested paging on this CPU (de-virtualization step).

        Because the map is identity, no cross-CPU synchronization is
        needed; each CPU flushes its own TLB and switches off.
        """
        self.enabled = False
        self.tlb_flushes += 1

    def add_trap_range(self, start: int, length: int, tag: str) -> TrapRange:
        """Unmap ``[start, start+length)`` so guest access exits (MMIO trap)."""
        trap = TrapRange(start, length, tag)
        self._trap_ranges.append(trap)
        return trap

    def protect(self, start: int, length: int, tag: str = "vmm") -> TrapRange:
        """Make ``[start, start+length)`` inaccessible to the guest."""
        region = TrapRange(start, length, tag)
        self._protected.append(region)
        return region

    # -- queries -----------------------------------------------------------

    def trap_for(self, address: int) -> TrapRange | None:
        """The MMIO trap covering ``address``, if nested paging is on."""
        if not self.enabled:
            return None
        for trap in self._trap_ranges:
            if trap.contains(address):
                return trap
        return None

    def check_guest_access(self, address: int) -> None:
        """Raise :class:`MmuFault` if the guest may not touch ``address``."""
        if not self.enabled:
            return
        for region in self._protected:
            if region.contains(address):
                raise MmuFault(
                    f"guest access to protected region {region.tag!r} "
                    f"at {address:#x}"
                )

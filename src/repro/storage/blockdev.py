"""Common block-layer types shared by disks, controllers, and drivers."""

from __future__ import annotations

import enum

from repro.util.intervalmap import IntervalMap


class BlockOp(enum.Enum):
    READ = "read"
    WRITE = "write"


def coalesce_runs(runs: list) -> list:
    """Merge adjacent runs with equal tokens (split-transfer reassembly)."""
    merged: list = []
    for start, end, token in runs:
        if merged and merged[-1][1] == start and merged[-1][2] == token:
            merged[-1] = (merged[-1][0], end, token)
        else:
            merged.append((start, end, token))
    return merged


def clip_runs(runs: list, lba: int, sector_count: int) -> list:
    """The parts of ``runs`` inside ``[lba, lba + sector_count)``."""
    end = lba + sector_count
    return [
        (start if start > lba else lba, stop if stop < end else end, token)
        for start, stop, token in runs
        if start < end and stop > lba
    ]


class SectorBuffer:
    """Symbolic contents of a DMA transfer: token runs over sector indexes.

    ``runs`` is a list of ``(lba_start, lba_end, token)`` aligned to the
    request's LBA range; ``token`` ``None`` means unwritten/garbage.
    """

    __slots__ = ("lba", "sector_count", "runs")

    def __init__(self, lba: int, sector_count: int, runs: list | None = None):
        self.lba = lba
        self.sector_count = sector_count
        self.runs = [] if runs is None else runs

    def __repr__(self):
        return (f"<SectorBuffer lba={self.lba} n={self.sector_count} "
                f"runs={len(self.runs)}>")

    def fill_from(self, contents: IntervalMap) -> None:
        """Populate from a content map (a disk read into this buffer)."""
        self.runs = contents.runs_in(self.lba, self.sector_count)

    def fill_constant(self, token) -> None:
        """Set the whole buffer to one token."""
        self.runs = [(self.lba, self.lba + self.sector_count, token)]

    def store_to(self, contents: IntervalMap) -> None:
        """Write the buffer's runs into a content map (a disk write)."""
        for start, end, token in self.runs:
            if token is None:
                contents.clear_range(start, end - start)
            else:
                contents.set_range(start, end - start, token)


class BlockRequest:
    """One I/O request at the block layer (slotted: two per copied
    block)."""

    __slots__ = ("op", "lba", "sector_count", "buffer", "origin")

    def __init__(self, op: BlockOp, lba: int, sector_count: int,
                 buffer: SectorBuffer | None = None, origin: str = "guest"):
        if lba < 0:
            raise ValueError("lba must be non-negative")
        if sector_count <= 0:
            raise ValueError("sector_count must be positive")
        self.op = op
        self.lba = lba
        self.sector_count = sector_count
        self.buffer = SectorBuffer(lba, sector_count) if buffer is None \
            else buffer
        #: Who issued it: "guest" or "vmm" (moderation accounting).
        self.origin = origin

    @property
    def end_lba(self) -> int:
        return self.lba + self.sector_count

    def __repr__(self):
        return (f"<BlockRequest {self.op.value} lba={self.lba} "
                f"n={self.sector_count} {self.origin} at {hex(id(self))}>")

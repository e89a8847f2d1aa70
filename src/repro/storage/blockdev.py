"""Common block-layer types shared by disks, controllers, and drivers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count

from repro import params
from repro.util.intervalmap import IntervalMap


class BlockOp(enum.Enum):
    READ = "read"
    WRITE = "write"


_request_ids = count()


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
        (max(start, lba), min(stop, end), token)
        for start, stop, token in runs
        if start < end and stop > lba
    ]


@dataclass
class SectorBuffer:
    """Symbolic contents of a DMA transfer: token runs over sector indexes.

    ``runs`` is a list of ``(lba_start, lba_end, token)`` aligned to the
    request's LBA range; ``token`` ``None`` means unwritten/garbage.
    """

    lba: int
    sector_count: int
    runs: list = field(default_factory=list)

    @property
    def byte_count(self) -> int:
        return self.sector_count * params.SECTOR_BYTES

    def fill_from(self, contents: IntervalMap) -> None:
        """Populate from a content map (a disk read into this buffer)."""
        self.runs = list(contents.runs_in(self.lba, self.sector_count))

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


@dataclass
class BlockRequest:
    """One I/O request at the block layer."""

    op: BlockOp
    lba: int
    sector_count: int
    buffer: SectorBuffer | None = None
    #: Who issued it: "guest" or "vmm" (used by moderation accounting).
    origin: str = "guest"
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self):
        if self.lba < 0:
            raise ValueError("lba must be non-negative")
        if self.sector_count <= 0:
            raise ValueError("sector_count must be positive")
        if self.buffer is None:
            self.buffer = SectorBuffer(self.lba, self.sector_count)

    @property
    def byte_count(self) -> int:
        return self.sector_count * params.SECTOR_BYTES

    @property
    def end_lba(self) -> int:
        return self.lba + self.sector_count

    def __repr__(self):
        return (f"<BlockRequest #{self.request_id} {self.op.value} "
                f"lba={self.lba} n={self.sector_count} {self.origin}>")

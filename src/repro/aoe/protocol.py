"""Extended ATA-over-Ethernet protocol messages (paper 4.2).

The paper extends stock AoE [43] with jumbo-frame support and
retransmission.  A command carries the ATA register values (operation,
LBA, sector count) — which is exactly why the VMM can convert an
intercepted taskfile to a network request "with minimal effort".  Replies
that exceed one frame are split into fragments; the AoE tag field encodes
which transaction and fragment a frame belongs to.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from repro import params
from repro.storage.blockdev import clip_runs, coalesce_runs


def sectors_per_frame(mtu: int) -> int:
    """How many 512-byte sectors fit in one AoE data frame at ``mtu``."""
    payload_room = mtu - params.AOE_HEADER_BYTES
    sectors = payload_room // params.SECTOR_BYTES
    if sectors < 1:
        raise ValueError(f"MTU {mtu} cannot carry one sector")
    return sectors


def fragment_count(sector_count: int, mtu: int) -> int:
    """Frames needed to carry ``sector_count`` sectors at ``mtu``."""
    per_frame = sectors_per_frame(mtu)
    return (sector_count + per_frame - 1) // per_frame


class _Message(tuple):
    """An immutable protocol message built as a tuple, which is several
    times cheaper than a frozen dataclass setting each field through
    ``object.__setattr__`` (a command and a fragment per frame make that
    cost show).  Fields are read by name and cannot be assigned, and a
    message equals only a message of its own class with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class AoeCommand(namedtuple("AoeCommand", "tag op lba sector_count "
                            "payload_runs bulk fluid",
                            defaults=((), False, False)), _Message):
    """Initiator -> server ATA command.

    ``op`` is ``"read"`` or ``"write"``.  For writes, ``payload_runs``
    are the data runs being sent (carried across fragments; the model
    attaches them to the logical command).  ``bulk`` transfers use the
    switch's aggregate path, used by the background copier: far fewer
    simulation events, and the same wire bytes, but not the fragment
    train's latency, because the server's per-frame CPU time is paid up
    front and the payload crosses the receiver on a 128 KiB chunk grid
    (see ``AoeInitiator.read_blocks``).  ``fluid`` transfers price the
    data leg analytically (max-min fair flow model, no per-chunk
    events); only valid with ``bulk`` and only while the deployment's
    FluidState is active.
    """

    __slots__ = ()

    @property
    def header_bytes(self) -> int:
        return params.AOE_HEADER_BYTES

    def frame_bytes(self) -> int:
        """Wire payload size of the command frame itself: the header (a
        write's data travels in fragments ahead of it)."""
        return params.AOE_HEADER_BYTES


class AoeDataFragment(namedtuple("AoeDataFragment", "tag fragment_index "
                                 "fragment_total lba sector_count runs",
                                 defaults=((),)), _Message):
    """One fragment of a transfer (server->initiator for reads,
    initiator->server for writes): ``sector_count`` sectors from
    ``lba``, with their content ``runs`` for reads."""

    __slots__ = ()

    @property
    def payload_bytes(self) -> int:
        return (params.AOE_HEADER_BYTES
                + self.sector_count * params.SECTOR_BYTES)


@dataclass(frozen=True, slots=True)
class AoeAck:
    """Server -> initiator completion for writes."""

    tag: int

    @property
    def payload_bytes(self) -> int:
        return params.AOE_HEADER_BYTES


@dataclass(frozen=True, slots=True)
class AoeNak:
    """Responder -> initiator refusal.

    A peer chunk responder sends this when asked for sectors its block
    bitmap no longer (or never) marked servable, so the initiator can
    fall back to an origin replica immediately instead of burning the
    retransmission budget.
    """

    tag: int
    reason: str = "not-local"

    @property
    def payload_bytes(self) -> int:
        return params.AOE_HEADER_BYTES


class ReassemblyBuffer:
    """Collects fragments of one read reply, tolerant of duplicates."""

    __slots__ = ("tag", "fragment_total", "fragments")

    def __init__(self, tag: int):
        self.tag = tag
        self.fragment_total: int | None = None
        self.fragments: dict = {}

    def add(self, fragment: AoeDataFragment) -> bool:
        """Take one fragment; True once the reply is complete."""
        if fragment.tag != self.tag:
            raise ValueError("fragment for a different transaction")
        total = self.fragment_total = fragment.fragment_total
        # Duplicates (from retransmission) are idempotent.
        fragments = self.fragments
        fragments[fragment.fragment_index] = fragment
        return len(fragments) == total

    @property
    def complete(self) -> bool:
        return (self.fragment_total is not None
                and len(self.fragments) == self.fragment_total)

    def assemble(self) -> list:
        """The full content-run list, in LBA order, coalesced."""
        if len(self.fragments) != self.fragment_total:
            raise ValueError("reassembly incomplete")
        runs: list = []
        for index in range(self.fragment_total):
            runs.extend(self.fragments[index].runs)
        return coalesce_runs(runs)


def split_read_reply(tag: int, lba: int, runs: list, mtu: int):
    """Split a read reply's runs into per-frame fragments.

    ``runs`` tile ``[lba, lba + total)`` in order; each fragment
    carries the runs clipped to its own sector window.  One pass: the
    first run a window needs is where the previous window's last run
    was.
    """
    total = sum(end - start for start, end, _ in runs)
    per_frame = sectors_per_frame(mtu)
    count = fragment_count(total, mtu)
    limit = lba + total
    fragments = []
    first = 0
    for index in range(count):
        window_start = lba + index * per_frame
        window_end = min(limit, window_start + per_frame)
        while runs[first][1] <= window_start:
            first += 1
        clipped = []
        k = first
        while k < len(runs):
            start, end, token = runs[k]
            if start >= window_end:
                break
            # On a tie the run's own bound is kept, as ``max``/``min``
            # would: it is shared with the image map, and reassembled
            # runs outlive the reply.
            clipped.append((start if start >= window_start else window_start,
                            end if end <= window_end else window_end, token))
            k += 1
        fragments.append(AoeDataFragment(
            tag=tag,
            fragment_index=index,
            fragment_total=count,
            lba=window_start,
            sector_count=window_end - window_start,
            runs=tuple(clipped),
        ))
    return fragments


def split_write_payload(tag: int, lba: int, sector_count: int, runs: list,
                        mtu: int):
    """Fragments for the data of a write command."""
    return split_read_reply(tag, lba, clip_runs(runs, lba, sector_count),
                            mtu)

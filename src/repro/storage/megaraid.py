"""MegaRAID-SAS-style message-passing host controller model.

The paper (Section 1) notes that "MegaRAID SAS and Revo Drive PCIe SSD
devices have similar straightforward interfaces" to IDE/AHCI and could
be mediated the same way.  This model implements that third interface
family: instead of taskfile registers or command slots, the driver
builds an *MFI frame* in memory describing the I/O and posts its address
to an inbound-queue doorbell; the firmware executes it and reports the
frame's context through an outbound reply register, raising an
interrupt.  Its mediator (``repro.vmm.mediator_megaraid``) plugs into
the unmodified VMM core via the mediator registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim import Environment
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.storage.controller import DiskController
from repro.storage.disk import Disk

#: MMIO register block.
MFI_BASE = 0xFD00_0000
MFI_SIZE = 0x100

REG_STATUS = 0x30           # bit0: firmware busy, bit1: reply pending
REG_INBOUND_QUEUE = 0x40    # write a frame's physical address to post it
REG_OUTBOUND_REPLY = 0x44   # read: completed context, or REPLY_NONE
REG_DOORBELL_CLEAR = 0x4C   # write-1 to acknowledge the interrupt

STATUS_BUSY = 0x1
STATUS_REPLY_PENDING = 0x2

#: Value REG_OUTBOUND_REPLY returns when no completion is pending.
REPLY_NONE = 0xFFFF_FFFF

#: Default interrupt line.
MEGARAID_IRQ = 10


@dataclass
class MfiFrame:
    """One firmware command frame, built by the driver in host memory."""

    command: str             # "read" | "write" | "flush"
    lba: int
    sector_count: int
    buffer_address: int      # scatter-gather list (single entry modelled)
    context: int             # completion cookie


def decode_frame(frame: MfiFrame) -> BlockRequest | None:
    """I/O interpretation for MFI: frame -> block request."""
    if frame.command == "read":
        op = BlockOp.READ
    elif frame.command == "write":
        op = BlockOp.WRITE
    else:
        return None
    return BlockRequest(op=op, lba=frame.lba,
                        sector_count=frame.sector_count)


class MegaRaidController(DiskController):
    """Single-LD MegaRAID-style HBA attached to one disk."""

    kind = "megaraid"

    def __init__(self, env: Environment, disk: Disk, machine,
                 mmio_base: int = MFI_BASE,
                 irq_line: int = MEGARAID_IRQ):
        super().__init__(env, disk, machine, irq_line)
        self.mmio_base = mmio_base

        self.outstanding: set[int] = set()
        self._completions: deque[int] = deque()
        self._doorbell = False

        machine.bus.register_mmio(mmio_base, MFI_SIZE, self)

    # -- register interface ----------------------------------------------------

    def mmio_read(self, address: int) -> int:
        offset = address - self.mmio_base
        if offset == REG_STATUS:
            status = 0
            if self.outstanding:
                status |= STATUS_BUSY
            if self._completions:
                status |= STATUS_REPLY_PENDING
            return status
        if offset == REG_OUTBOUND_REPLY:
            if self._completions:
                return self._completions.popleft()
            return REPLY_NONE
        raise ValueError(f"megaraid: unknown register {offset:#x}")

    def mmio_write(self, address: int, value: int) -> None:
        offset = address - self.mmio_base
        if offset == REG_INBOUND_QUEUE:
            self._post(value)
        elif offset == REG_DOORBELL_CLEAR:
            self._doorbell = False
        else:
            raise ValueError(f"megaraid: unknown register {offset:#x}")

    # -- properties the mediator polls ----------------------------------------------

    @property
    def busy(self) -> bool:
        return bool(self.outstanding)

    def peek_completions(self) -> tuple:
        return tuple(self._completions)

    def take_completion(self, context: int) -> bool:
        """Remove a specific completion (the mediator reaps its own)."""
        if context in self._completions:
            self._completions.remove(context)
            return True
        return False

    # -- firmware execution ----------------------------------------------------------

    def _post(self, frame_address: int) -> None:
        """Run a posted frame: a timer for a flush, a DMA for a
        transfer."""
        frame = self.machine.hostmem.lookup(frame_address)
        if not isinstance(frame, MfiFrame):
            raise TypeError("inbound queue entry is not an MFI frame")
        if frame.context in self.outstanding:
            raise ValueError(f"context {frame.context} already in flight")
        self.outstanding.add(frame.context)
        request = decode_frame(frame)
        if request is None:
            # Flush & friends.
            self._start_timer(frame, 2e-3)
        else:
            self._start_dma(frame, request, frame.buffer_address,
                            f"megaraid-ctx{frame.context}")

    def _retire(self, frame: MfiFrame) -> bool:
        self.outstanding.discard(frame.context)
        self._completions.append(frame.context)
        self._doorbell = True
        return True

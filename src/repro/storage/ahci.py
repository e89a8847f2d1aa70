"""AHCI host bus adapter model (single-port, 32 command slots).

The register interface follows the real AHCI layout closely enough that
the AHCI device mediator does what the paper's 2,285-LOC one does: watch
MMIO writes to ``PxCI``, follow the command-list/command-table pointers
through memory, decode the command FIS, and track completion through
``PxCI``/``PxIS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim import Environment
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.storage.controller import DiskController
from repro.storage.disk import Disk
from repro.storage.ide import (
    CMD_FLUSH_CACHE,
    CMD_READ_DMA_EXT,
    CMD_WRITE_DMA_EXT,
)

#: Default ABAR (MMIO BAR 5) base and size.
ABAR_BASE = 0xFEB0_0000
ABAR_SIZE = 0x200

# Generic host control registers (offsets from ABAR).
REG_CAP = 0x00
REG_GHC = 0x04
REG_IS = 0x08
REG_PI = 0x0C

# Port 0 registers.
PORT_BASE = 0x100
REG_PXCLB = PORT_BASE + 0x00   # command list base address
REG_PXIS = PORT_BASE + 0x10    # port interrupt status
REG_PXIE = PORT_BASE + 0x14    # port interrupt enable
REG_PXCMD = PORT_BASE + 0x18   # port command and status
REG_PXTFD = PORT_BASE + 0x20   # task file data (status | error)
REG_PXSACT = PORT_BASE + 0x34
REG_PXCI = PORT_BASE + 0x38    # command issue (one bit per slot)

#: PxIS bit: device-to-host register FIS received (command completion).
PXIS_DHRS = 0x1
#: PxTFD status bits mirror ATA status.
TFD_BSY = 0x80
TFD_DRQ = 0x08

#: PxCMD start bit (DMA engine running).
PXCMD_ST = 0x1

COMMAND_SLOTS = 32

#: Default interrupt line for the AHCI HBA.
AHCI_IRQ = 11

#: Trace lane of each command slot's disk spans.
_SLOT_LANES = tuple(f"ahci-slot{slot}" for slot in range(COMMAND_SLOTS))


@dataclass
class CommandFis:
    """Host-to-device register FIS (the command itself)."""

    command: int
    lba: int
    sector_count: int


@dataclass
class CommandTable:
    """Command table: FIS + physical-region descriptor table."""

    cfis: CommandFis
    #: PRDT: physical addresses of the data buffers (we model one entry).
    prdt: list[int] = field(default_factory=list)


@dataclass
class CommandHeader:
    """One command-list slot: points at its command table."""

    ctba: int  # command table base address


def decode_fis(cfis: CommandFis) -> BlockRequest | None:
    """I/O interpretation for AHCI: command FIS -> block request."""
    if cfis.command == CMD_READ_DMA_EXT:
        op = BlockOp.READ
    elif cfis.command == CMD_WRITE_DMA_EXT:
        op = BlockOp.WRITE
    else:
        return None
    return BlockRequest(op=op, lba=cfis.lba, sector_count=cfis.sector_count)


class AhciController(DiskController):
    """Single-port AHCI HBA attached to one disk."""

    kind = "ahci"

    def __init__(self, env: Environment, disk: Disk, machine,
                 abar: int = ABAR_BASE, irq_line: int = AHCI_IRQ):
        super().__init__(env, disk, machine, irq_line)
        self.abar = abar

        # Register file.
        self.pxclb = 0
        self.pxis = 0
        self.pxie = 0
        self.pxcmd = 0
        self.pxtfd = 0x50  # DRDY, not busy
        self.pxsact = 0
        self.pxci = 0
        self.ghc = 0

        self._active_slots: set[int] = set()

        machine.bus.register_mmio(abar, ABAR_SIZE, self)

    # -- register interface ------------------------------------------------------

    def mmio_read(self, address: int) -> int:
        offset = address - self.abar
        if offset == REG_CAP:
            return COMMAND_SLOTS - 1 << 8  # number of command slots
        if offset == REG_GHC:
            return self.ghc
        if offset == REG_IS:
            return 0x1 if self.pxis else 0x0
        if offset == REG_PI:
            return 0x1  # one implemented port
        if offset == REG_PXCLB:
            return self.pxclb
        if offset == REG_PXIS:
            return self.pxis
        if offset == REG_PXIE:
            return self.pxie
        if offset == REG_PXCMD:
            return self.pxcmd
        if offset == REG_PXTFD:
            return self.pxtfd
        if offset == REG_PXSACT:
            return self.pxsact
        if offset == REG_PXCI:
            return self.pxci
        raise ValueError(f"AHCI: unknown register offset {offset:#x}")

    def mmio_write(self, address: int, value: int) -> None:
        offset = address - self.abar
        if offset == REG_GHC:
            self.ghc = value
        elif offset == REG_PXCLB:
            self.pxclb = value
        elif offset == REG_PXIS:
            # Write-1-to-clear.
            self.pxis &= ~value
        elif offset == REG_PXIE:
            self.pxie = value
        elif offset == REG_PXCMD:
            self.pxcmd = value
        elif offset == REG_PXCI:
            self._issue(value)
        elif offset == REG_PXSACT:
            self.pxsact |= value
        else:
            raise ValueError(f"AHCI: unknown register offset {offset:#x}")

    # -- properties the mediator polls ---------------------------------------------

    @property
    def busy(self) -> bool:
        return bool(self._active_slots)

    def free_slot(self) -> int | None:
        """Lowest command slot not currently issued (mediator uses this)."""
        for slot in range(COMMAND_SLOTS):
            if not self.pxci & (1 << slot) and slot not in self._active_slots:
                return slot
        return None

    # -- command execution --------------------------------------------------------------

    def _issue(self, value: int) -> None:
        if not self.pxcmd & PXCMD_ST:
            # DMA engine not started: issuing is a driver bug.
            raise RuntimeError("AHCI: PxCI write with PxCMD.ST clear")
        new_slots = value & ~self.pxci
        self.pxci |= value
        for slot in range(COMMAND_SLOTS):
            if new_slots & (1 << slot):
                self._active_slots.add(slot)
                self.pxtfd |= TFD_BSY
                self._start_slot(slot)

    def _start_slot(self, slot: int) -> None:
        """Run ``slot``'s command: a timer for a non-data command, a
        DMA for a transfer."""
        header = self._command_header(slot)
        table = self.machine.hostmem.lookup(header.ctba)
        request = decode_fis(table.cfis)
        if request is None:
            flush = table.cfis.command == CMD_FLUSH_CACHE
            self._start_timer(slot, 2e-3 if flush else 100e-6)
        else:
            self._start_dma(slot, request, table.prdt[0], _SLOT_LANES[slot])

    def _command_header(self, slot: int) -> CommandHeader:
        command_list = self.machine.hostmem.lookup(self.pxclb)
        header = command_list[slot]
        if header is None:
            raise ValueError(f"AHCI: slot {slot} issued with empty header")
        return header

    def _retire(self, slot: int) -> bool:
        self._active_slots.discard(slot)
        self.pxci &= ~(1 << slot)
        if not self._active_slots:
            self.pxtfd &= ~TFD_BSY
        self.pxis |= PXIS_DHRS
        return bool(self.pxie & PXIS_DHRS)

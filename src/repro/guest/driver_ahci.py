"""Guest AHCI block driver.

Builds command FIS + PRDT structures in memory, issues slots through
``PxCI``, and waits for the port interrupt — the same sequence a real
libahci-style driver performs, all via the machine bus so a mediating VMM
sees every access.
"""

from __future__ import annotations

from repro.guest.blockdriver import BlockDriver
from repro.sim import Event
from repro.storage import ahci
from repro.storage.blockdev import BlockOp
from repro.storage.ide import (
    CMD_FLUSH_CACHE,
    CMD_READ_DMA_EXT,
    CMD_WRITE_DMA_EXT,
)


class AhciDriver(BlockDriver):
    """Block driver bound to one machine's AHCI controller."""

    def __init__(self, machine, cpu=None):
        super().__init__(machine, cpu)
        self.abar = self.controller.abar
        self._command_list: list = [None] * ahci.COMMAND_SLOTS
        self._clb_address: int | None = None
        self._started = False
        self._starting = None

    def start(self):
        """Generator: initialize the port (command list, interrupts, ST).

        Safe under concurrent first use: one caller initializes, the
        rest wait for it.  A command issued before it runs starts the
        port first.
        """
        if self._started:
            return
        if self._starting is not None:
            yield self._starting
            return
        self._starting = Event(self.machine.env)
        self._clb_address = self.machine.hostmem.allocate(self._command_list)
        yield from self._mmio_write(ahci.REG_PXCLB, self._clb_address)
        yield from self._mmio_write(ahci.REG_PXIE, ahci.PXIS_DHRS)
        yield from self._mmio_write(ahci.REG_PXCMD, ahci.PXCMD_ST)
        self._started = True
        self._starting.succeed()

    def flush(self):
        """Generator: FLUSH CACHE through a command slot."""
        cfis = ahci.CommandFis(CMD_FLUSH_CACHE, 0, 0)
        yield from self._issue_and_wait(ahci.CommandTable(cfis))

    # -- register protocol ------------------------------------------------------------

    def _command(self, op: BlockOp, lba: int, sector_count: int,
                 buffer_address: int):
        command = CMD_READ_DMA_EXT if op is BlockOp.READ \
            else CMD_WRITE_DMA_EXT
        cfis = ahci.CommandFis(command, lba, sector_count)
        yield from self._issue_and_wait(
            ahci.CommandTable(cfis, prdt=[buffer_address]))

    def _issue_and_wait(self, table: ahci.CommandTable):
        if not self._started:
            yield from self.start()
        slot = yield from self._find_free_slot()
        ctba = self.machine.hostmem.allocate(table)
        self._command_list[slot] = ahci.CommandHeader(ctba)
        try:
            yield from self._mmio_write(ahci.REG_PXCI, 1 << slot)
            yield from self._wait_slot(slot)
        finally:
            self._command_list[slot] = None
            self.machine.hostmem.free(ctba)

    #: Placeholder header marking a slot claimed but not yet built.
    _RESERVED = object()

    def _find_free_slot(self):
        while True:
            # Claim atomically (no yield between scan and claim): many
            # kernel contexts submit through this driver concurrently.
            for slot in range(ahci.COMMAND_SLOTS):
                if self._command_list[slot] is None:
                    self._command_list[slot] = self._RESERVED
                    return slot
            # All slots busy: wait for a completion interrupt.
            yield self.machine.interrupts.wait(self.irq_line)

    def _wait_slot(self, slot: int):
        while True:
            issued = yield from self._mmio_read(ahci.REG_PXCI)
            if not issued & (1 << slot):
                break
            yield self.machine.interrupts.wait(self.irq_line)
        # Acknowledge the port interrupt status (write-1-to-clear).
        pxis = yield from self._mmio_read(ahci.REG_PXIS)
        if pxis:
            yield from self._mmio_write(ahci.REG_PXIS, pxis)

    # -- bus shorthand ---------------------------------------------------------------------

    def _mmio_read(self, offset: int):
        return (yield from self.bus.mmio_read(self.abar + offset,
                                              cpu=self.cpu))

    def _mmio_write(self, offset: int, value: int):
        yield from self.bus.mmio_write(self.abar + offset, value,
                                       cpu=self.cpu)

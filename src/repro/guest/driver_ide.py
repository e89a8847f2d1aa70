"""Guest IDE block driver.

Issues DMA reads/writes through the machine's I/O bus exactly as a real
driver would: program the taskfile, point the bus-master at a PRD table,
fire the command, sleep until the interrupt, check and acknowledge status.
The driver never knows whether a VMM is mediating underneath — that is the
OS transparency the paper is about.
"""

from __future__ import annotations

from repro.guest.blockdriver import BlockDriver
from repro.sim import Resource
from repro.storage import ide
from repro.storage.blockdev import BlockOp


class IdeDriverError(Exception):
    """Device reported an error status."""


class IdeDriver(BlockDriver):
    """Block driver bound to one machine's IDE controller."""

    def __init__(self, machine, cpu=None):
        super().__init__(machine, cpu)
        # IDE has one outstanding command; the kernel block layer
        # serializes submitters.
        self._lock = Resource(machine.env, capacity=1)

    def flush(self):
        """Generator: FLUSH CACHE."""
        yield from self._pio_write(ide.REG_COMMAND, ide.CMD_FLUSH_CACHE)
        yield from self._wait_irq_and_ack()

    def identify(self):
        """Generator: IDENTIFY DEVICE (used during boot enumeration)."""
        yield from self._pio_write(ide.REG_COMMAND, ide.CMD_IDENTIFY)
        yield from self._wait_irq_and_ack()

    # -- register protocol ----------------------------------------------------------

    def _command(self, op: BlockOp, lba: int, sector_count: int,
                 prdt_address: int):
        with self._lock.request() as grant:
            yield grant
            # Program the taskfile (LBA48 so one command covers big I/O).
            taskfile = ide.Taskfile()
            taskfile.load(lba, sector_count, ext=True)
            yield from self._program_taskfile(taskfile)
            # Bus-master setup: PRD table and direction.
            yield from self._pio_write(ide.BM_PRDT, prdt_address)
            direction = ide.BM_CMD_WRITE_TO_MEMORY if op is BlockOp.READ \
                else 0
            yield from self._pio_write(ide.BM_COMMAND, direction)
            # Fire.
            command = ide.CMD_READ_DMA_EXT if op is BlockOp.READ \
                else ide.CMD_WRITE_DMA_EXT
            yield from self._pio_write(ide.REG_COMMAND, command)
            yield from self._pio_write(ide.BM_COMMAND,
                                       direction | ide.BM_CMD_START)
            # Sleep until our interrupt, then acknowledge.
            yield from self._wait_dma_completion(direction)

    def _program_taskfile(self, taskfile: ide.Taskfile):
        # LBA48: each shifting register is written twice (hob then current).
        for port in (ide.REG_SECTOR_COUNT, ide.REG_LBA_LOW,
                     ide.REG_LBA_MID, ide.REG_LBA_HIGH):
            yield from self._pio_write(port, taskfile.hob[port])
            yield from self._pio_write(port, taskfile.current[port])
        yield from self._pio_write(ide.REG_DEVICE,
                                   taskfile.current[ide.REG_DEVICE])

    def _wait_dma_completion(self, direction: int):
        while True:
            yield self.machine.interrupts.wait(self.irq_line)
            bm_status = yield from self._pio_read(ide.BM_STATUS)
            if bm_status & ide.BM_STATUS_IRQ:
                break
            # Shared line / spurious: not ours, wait again.
        status = yield from self._pio_read(ide.REG_COMMAND)
        if status & ide.STATUS_ERR:
            raise IdeDriverError(f"IDE error, status {status:#04x}")
        # Acknowledge: clear the bus-master interrupt, stop the engine.
        yield from self._pio_write(ide.BM_STATUS, ide.BM_STATUS_IRQ)
        yield from self._pio_write(ide.BM_COMMAND, direction)

    def _wait_irq_and_ack(self):
        yield self.machine.interrupts.wait(self.irq_line)
        status = yield from self._pio_read(ide.REG_COMMAND)
        if status & ide.STATUS_ERR:
            raise IdeDriverError(f"IDE error, status {status:#04x}")

    # -- bus shorthand ------------------------------------------------------------------

    def _pio_read(self, port: int):
        return (yield from self.bus.pio_read(port, cpu=self.cpu))

    def _pio_write(self, port: int, value: int):
        yield from self.bus.pio_write(port, value, cpu=self.cpu)

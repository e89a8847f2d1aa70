"""Guest block-driver core shared by the stock disk drivers.

Every driver turns ``read``/``write`` of any length into the same steps:
split the transfer into commands of at most :attr:`MAX_SECTORS`, give
each command its own DMA buffer in host memory (filled for a write),
run the command through the controller family's register protocol and
reassemble the returned runs.  That is this class.  A driver subclass
supplies only ``_command`` (IDE taskfile plus bus master, AHCI slot plus
``PxCI``, MegaRAID frame post) and its own non-data commands.  All of
it goes through the machine bus, so a mediating VMM sees every access.
"""

from __future__ import annotations

from repro.storage.blockdev import BlockOp, SectorBuffer, coalesce_runs


class BlockDriver:
    """Block driver bound to one machine's disk controller."""

    #: Largest single command the driver issues (sectors, LBA48).
    MAX_SECTORS = 65536

    def __init__(self, machine, cpu=None):
        self.machine = machine
        self.bus = machine.bus
        self.cpu = cpu if cpu is not None else machine.boot_cpu
        self.controller = machine.disk_controller
        self.irq_line = self.controller.irq_line
        # Metrics, per data command; the latency clock runs from buffer
        # allocation to completion, including any wait for the device.
        self.requests_completed = 0
        self.sectors_transferred = 0
        self.total_latency = 0.0

    # -- public API -----------------------------------------------------------

    def read(self, lba: int, sector_count: int):
        """Generator: DMA read; returns the filled :class:`SectorBuffer`."""
        return (yield from self._transfer(BlockOp.READ, lba, sector_count,
                                          None))

    def write(self, lba: int, sector_count: int, token):
        """Generator: DMA write of ``token``-tagged data."""
        return (yield from self._transfer(BlockOp.WRITE, lba, sector_count,
                                          token))

    @property
    def mean_latency(self) -> float:
        if self.requests_completed == 0:
            return 0.0
        return self.total_latency / self.requests_completed

    # -- transfer engine ------------------------------------------------------

    def _transfer(self, op: BlockOp, lba: int, sector_count: int, token):
        if sector_count <= 0:
            raise ValueError("sector_count must be positive")
        env = self.machine.env
        hostmem = self.machine.hostmem
        runs: list = []
        # Not a ``range``: its fresh int objects for the LBAs would be
        # kept alive by the written runs beside the caller's own.
        cursor, end = lba, lba + sector_count
        while cursor < end:
            chunk = min(end - cursor, self.MAX_SECTORS)
            start = env.now
            buffer = SectorBuffer(cursor, chunk)
            if op is BlockOp.WRITE:
                buffer.fill_constant(token)
            buffer_address = hostmem.allocate(buffer)
            try:
                yield from self._command(op, cursor, chunk, buffer_address)
            finally:
                hostmem.free(buffer_address)
            self.requests_completed += 1
            self.sectors_transferred += chunk
            self.total_latency += env.now - start
            runs.extend(buffer.runs)
            cursor += chunk
        return SectorBuffer(lba, sector_count, coalesce_runs(runs))

    def _command(self, op: BlockOp, lba: int, sector_count: int,
                 buffer_address: int):
        """Generator: one data command over the DMA buffer at
        ``buffer_address``, returning once the device has completed it."""
        raise NotImplementedError

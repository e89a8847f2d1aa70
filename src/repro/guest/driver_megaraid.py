"""Guest MegaRAID driver: builds MFI frames and posts them."""

from __future__ import annotations

from itertools import count

from repro.guest.blockdriver import BlockDriver
from repro.sim import Resource
from repro.storage import megaraid
from repro.storage.blockdev import BlockOp


class MegaRaidDriver(BlockDriver):
    """Block driver bound to one machine's MegaRAID controller."""

    def __init__(self, machine, cpu=None):
        super().__init__(machine, cpu)
        self.mmio_base = self.controller.mmio_base
        self._contexts = count(1)
        # The shared reply register makes out-of-order reaping fiddly;
        # the block layer serializes submitters (like the IDE driver).
        self._lock = Resource(machine.env, capacity=1)

    def flush(self):
        """Generator: firmware cache flush."""
        frame = megaraid.MfiFrame("flush", 0, 0, 0, next(self._contexts))
        yield from self._post_and_wait(frame)

    # -- register protocol -----------------------------------------------------------

    def _command(self, op: BlockOp, lba: int, sector_count: int,
                 buffer_address: int):
        frame = megaraid.MfiFrame(op.value, lba, sector_count,
                                  buffer_address, next(self._contexts))
        yield from self._post_and_wait(frame)

    def _post_and_wait(self, frame: megaraid.MfiFrame):
        with self._lock.request() as grant:
            yield grant
            hostmem = self.machine.hostmem
            frame_address = hostmem.allocate(frame)
            try:
                yield from self._write(megaraid.REG_INBOUND_QUEUE,
                                       frame_address)
                yield from self._wait_completion(frame.context)
            finally:
                hostmem.free(frame_address)

    def _wait_completion(self, context: int):
        while True:
            reply = yield from self._read(megaraid.REG_OUTBOUND_REPLY)
            if reply == context:
                break
            if reply != megaraid.REPLY_NONE:
                # Someone else's completion popped: in a real driver the
                # reply queue is shared; requeue is not modelled, so a
                # single-outstanding discipline applies (block layer).
                raise RuntimeError(f"unexpected completion {reply}")
            yield self.machine.interrupts.wait(self.irq_line)
        yield from self._write(megaraid.REG_DOORBELL_CLEAR, 1)

    # -- bus shorthand -----------------------------------------------------------------

    def _read(self, offset: int):
        return (yield from self.bus.mmio_read(self.mmio_base + offset,
                                              cpu=self.cpu))

    def _write(self, offset: int, value: int):
        yield from self.bus.mmio_write(self.mmio_base + offset, value,
                                       cpu=self.cpu)

"""Command core shared by the host controller models.

Every controller family reaches the disk the same way once it has
decoded a command from its registers: a data command looks up the DMA
buffer the driver pointed it at and runs on the disk by callbacks, a
non-data command (flush, identify) runs on a timer, and completion
counts the command, raises the interrupt and notifies waiters.  This
class owns that path; each family (IDE taskfile, AHCI command slots,
MegaRAID MFI frames) keeps only its register file, its decode and its
busy/IRQ rule.
"""

from __future__ import annotations

from functools import partial

from repro.sim import Environment, Notifier
from repro.storage.blockdev import BlockRequest, SectorBuffer
from repro.storage.disk import Disk


class DiskController:
    """One host controller attached to one disk."""

    #: Controller family; the guest's PCI probe and the mediator
    #: registry bind on it.
    kind = ""

    def __init__(self, env: Environment, disk: Disk, machine,
                 irq_line: int):
        self.env = env
        self.disk = disk
        self.machine = machine
        self.irq_line = irq_line
        #: Origin stamped onto decoded requests.  The controller cannot
        #: tell who programmed it; the device mediator sets this to
        #: "vmm" for the duration of its own raw commands so disk-level
        #: observers (moderation accounting, sanitizers) see true
        #: provenance.
        self.request_origin = "guest"
        #: Fires at the next command completion, whether or not the
        #: interrupt is enabled (the mediator waits on it while it owns
        #: the device with interrupts masked).
        self.completion = Notifier(env)

        # Metrics.
        self.commands_executed = 0
        self.interrupts_raised = 0

        machine.attach_disk_controller(self)

    # -- command execution ----------------------------------------------------

    def _start_timer(self, handle, delay: float) -> None:
        """Run a non-data command: it completes ``delay`` from now."""
        self.env.timeout(delay).callbacks.append(
            partial(self._complete, handle))

    def _start_dma(self, handle, request: BlockRequest,
                   buffer_address: int, lane: str) -> None:
        """Run a data command by callbacks, through :meth:`Disk.start`
        on the trace lane ``lane``.

        Started in the register write itself, with no zero-delay hop, so
        a direct ``Disk.execute`` request made later at that very
        instant queues for the arm behind the command.
        """
        buffer = self.machine.hostmem.lookup(buffer_address)
        if not isinstance(buffer, SectorBuffer):
            raise TypeError(
                f"{self.kind}: DMA pointer {buffer_address:#x} is not a "
                f"DMA buffer")
        if buffer.sector_count < request.sector_count:
            raise ValueError(
                f"{self.kind}: DMA buffer too small: "
                f"{buffer.sector_count} < {request.sector_count}")
        request.buffer = buffer
        request.origin = self.request_origin
        buffer.lba = request.lba
        buffer.sector_count = request.sector_count
        self.disk.start(request, partial(self._complete, handle), lane)

    def _complete(self, handle, _event_or_request) -> None:
        self.commands_executed += 1
        self._signal(self._retire(handle))

    def _retire(self, handle) -> bool:
        """Update the register file for ``handle``'s completion; True
        when the interrupt is to be raised."""
        raise NotImplementedError

    def _signal(self, irq: bool = True) -> None:
        """Raise the interrupt (when ``irq``) and notify waiters."""
        if irq:
            self.interrupts_raised += 1
            self.machine.interrupts.raise_irq(self.irq_line)
        self.completion.notify()

"""IDE device mediator (the paper's 1,472-LOC mediator, reproduced).

Intercepts the taskfile and bus-master ports, keeps a shadow copy of
everything the guest programs (interpretation), and implements the
redirect / multiplex primitives on top of the raw controller registers.
A command to redirect or protect is claimed as the engine's blocked
command, ``(request, action)``, at the command write, and served when
the guest starts the bus master.
"""

from __future__ import annotations

from repro.storage import ide
from repro.storage.blockdev import BlockOp, BlockRequest, SectorBuffer
from repro.vmm.mediator import (DeviceMediator, MediatorMode,
                                register_mediator)


class _QueuedIdeCommand:
    """Snapshot of a guest command absorbed while the VMM owned the bus."""

    def __init__(self, taskfile: ide.Taskfile, command: int,
                 bm_prdt: int, bm_direction: int):
        self.taskfile = taskfile
        self.command = command
        self.bm_prdt = bm_prdt
        self.bm_direction = bm_direction


def _copy_taskfile(source: ide.Taskfile) -> ide.Taskfile:
    clone = ide.Taskfile()
    clone.current = dict(source.current)
    clone.hob = dict(source.hob)
    return clone


@register_mediator("ide")
class IdeMediator(DeviceMediator):
    """Mediator for the IDE controller."""

    def __init__(self, env, machine, deployment):
        super().__init__(env, machine, deployment)
        # Shadow register state (interpretation).
        self.shadow_taskfile = ide.Taskfile()
        self.shadow_bm_prdt = 0
        self.shadow_bm_command = 0
        # Device status captured at VMM takeover: the guest may still be
        # owed a completion (unacked IRQ bit); its ISR must see it.
        self._saved_status = ide.STATUS_DRDY
        self._saved_bm_status = 0
        self._vmm_buffer_address: int | None = None

    # -- intercept installation -------------------------------------------------------

    def _install_intercepts(self) -> None:
        self.machine.bus.intercept_pio(ide.ALL_PORTS, self._hook)

    def _uninstall_intercepts(self) -> None:
        self.machine.bus.uninstall_pio_intercepts(ide.ALL_PORTS)

    # -- the intercept hook (runs on every guest access, in root mode) ------------------

    def _hook(self, access):
        """A command write, and a BM start launching a blocked command,
        take simulated time (see ``IoBus.intercept_pio``); every other
        access is handled here."""
        self._m_intercepts.inc()
        if access.is_write:
            return self._hook_write(access)
        self._hook_read(access)
        return None

    def _hook_write(self, access):
        port, value = access.address, access.value
        owned = self.mode is MediatorMode.VMM_OWNED

        if port == ide.REG_COMMAND:
            return self._on_guest_command(access, value)

        if port in ide.TASKFILE_PORTS:
            self.shadow_taskfile.write(port, value)
            if owned:
                access.absorb = True
        elif port == ide.BM_PRDT:
            self.shadow_bm_prdt = value
            if owned:
                access.absorb = True
        elif port == ide.BM_COMMAND:
            previous = self.shadow_bm_command
            self.shadow_bm_command = value
            if owned:
                access.absorb = True
            elif value & ide.BM_CMD_START \
                    and not previous & ide.BM_CMD_START \
                    and self._blocked is not None:
                # The start of a blocked command: absorb and act.
                # It stays blocked until served, so status reads
                # emulate a busy device for the whole service time.
                access.absorb = True
                return self._serve_blocked(*self._blocked)
        elif port == ide.BM_STATUS:
            if owned:
                # Apply the guest's write-1-to-clear ack to the saved
                # view so restore does not resurrect an acked interrupt.
                access.absorb = True
                if value & ide.BM_STATUS_IRQ:
                    self._saved_bm_status &= ~ide.BM_STATUS_IRQ
        return None

    def _hook_read(self, access) -> None:
        port = access.address
        if self.mode is MediatorMode.VMM_OWNED:
            # Emulate the state the guest last saw (idle, but with any
            # completion it is still owed): the VMM's request in flight
            # must be invisible.
            if port == ide.REG_COMMAND:
                access.reply = self._saved_status & ~ide.STATUS_BSY
            elif port == ide.BM_STATUS:
                access.reply = self._saved_bm_status \
                    & ~ide.BM_STATUS_ACTIVE
            elif port == ide.BM_COMMAND:
                access.reply = self.shadow_bm_command
            elif port == ide.BM_PRDT:
                access.reply = self.shadow_bm_prdt
        elif (self.mode is MediatorMode.REDIRECTING
                or self._blocked is not None):
            # Emulate a busy device while the redirect is being served.
            if port == ide.REG_COMMAND:
                access.reply = ide.STATUS_BSY | ide.STATUS_DRDY
            elif port == ide.BM_STATUS:
                access.reply = ide.BM_STATUS_ACTIVE

    # -- guest command handling -----------------------------------------------------------

    def _on_guest_command(self, access, command: int):
        if command not in ide.DMA_COMMANDS:
            # Non-data command (IDENTIFY, FLUSH...): irrelevant to
            # deployment, but must still be queued while the VMM owns
            # the device.
            if self.mode is MediatorMode.VMM_OWNED:
                access.absorb = True
                self._queue(command)
            yield self.env.timeout(0)
            return

        request = ide.decode_request(self.shadow_taskfile, command)
        action = self.classify(request)

        if action == "pass":
            yield self.env.timeout(0)
            return

        access.absorb = True
        if action == "queue":
            self._queue(command)
        else:
            # redirect / protect: block the command until BM start, then
            # serve it ourselves.
            yield from self._claim_blocked((request, action))
        yield self.env.timeout(0)

    def _queue(self, command: int) -> None:
        self.queue_guest_command(_QueuedIdeCommand(
            _copy_taskfile(self.shadow_taskfile), command,
            self.shadow_bm_prdt, self.shadow_bm_command))

    # -- primitives used by the base engine -------------------------------------------------

    def _guest_buffer(self) -> SectorBuffer:
        return self.machine.hostmem.lookup(self.shadow_bm_prdt)

    def _issue_to_device(self, request: BlockRequest,
                         buffer: SectorBuffer) -> None:
        controller = self.controller
        if self._vmm_buffer_address is not None:
            self.machine.hostmem.free(self._vmm_buffer_address)
        self._vmm_buffer_address = self.machine.hostmem.allocate(buffer)
        taskfile = ide.Taskfile()
        taskfile.load(request.lba, request.sector_count, ext=True)
        for port in (ide.REG_SECTOR_COUNT, ide.REG_LBA_LOW,
                     ide.REG_LBA_MID, ide.REG_LBA_HIGH):
            controller.pio_write(port, taskfile.hob[port])
            controller.pio_write(port, taskfile.current[port])
        controller.pio_write(ide.REG_DEVICE,
                             taskfile.current[ide.REG_DEVICE])
        controller.pio_write(ide.BM_PRDT, self._vmm_buffer_address)
        direction = ide.BM_CMD_WRITE_TO_MEMORY \
            if request.op is BlockOp.READ else 0
        controller.pio_write(ide.BM_COMMAND, direction)
        command = ide.CMD_READ_DMA_EXT if request.op is BlockOp.READ \
            else ide.CMD_WRITE_DMA_EXT
        controller.pio_write(ide.REG_COMMAND, command)
        controller.pio_write(ide.BM_COMMAND, direction | ide.BM_CMD_START)

    def _device_done(self) -> bool:
        return (not self.controller.busy
                and bool(self.controller.bm_status & ide.BM_STATUS_IRQ))

    def _device_busy(self) -> bool:
        return self.controller.busy

    def _ack_device(self) -> None:
        self.controller.pio_write(ide.BM_STATUS, ide.BM_STATUS_IRQ)
        self.controller.pio_write(ide.BM_COMMAND, 0)
        if self._vmm_buffer_address is not None:
            self.machine.hostmem.free(self._vmm_buffer_address)
            self._vmm_buffer_address = None

    def _save_guest_registers(self) -> None:
        # The shadow tracks every guest write already; what must be
        # captured here is *device-produced* state the guest has not yet
        # consumed (an unacked completion).
        self._saved_status = self.controller.status
        self._saved_bm_status = self.controller.bm_status

    def _restore_guest_registers(self) -> None:
        controller = self.controller
        for port, value in self.shadow_taskfile.current.items():
            if port != ide.REG_COMMAND:
                controller.taskfile.write(port, value)
        controller.taskfile.hob = dict(self.shadow_taskfile.hob)
        controller.bm_prdt = self.shadow_bm_prdt
        controller.bm_command = self.shadow_bm_command & ~ide.BM_CMD_START
        controller.bm_status = self._saved_bm_status \
            & ~ide.BM_STATUS_ACTIVE

    def _deliver_dummy_completion(self) -> None:
        """Restart the blocked read as a 1-sector dummy that hits the
        drive cache, so the device itself raises the completion IRQ."""
        controller = self.controller
        self._dummy_buffer.lba = self.deployment.dummy_lba
        self._dummy_buffer.sector_count = 1
        taskfile = ide.Taskfile()
        taskfile.load(self.deployment.dummy_lba, 1, ext=False)
        for port, value in taskfile.current.items():
            if port != ide.REG_COMMAND:
                controller.taskfile.write(port, value)
        controller.pio_write(ide.BM_PRDT, self._dummy_address)
        controller.pio_write(ide.BM_COMMAND, ide.BM_CMD_WRITE_TO_MEMORY)
        controller.pio_write(ide.REG_COMMAND, ide.CMD_READ_DMA)
        controller.pio_write(ide.BM_COMMAND,
                             ide.BM_CMD_WRITE_TO_MEMORY | ide.BM_CMD_START)

    def _replay_guest_command(self, snapshot: _QueuedIdeCommand):
        # Re-classify: a read queued during VMM ownership may target
        # still-empty blocks and must be redirected, not forwarded.
        if snapshot.command in ide.DMA_COMMANDS:
            request = ide.decode_request(snapshot.taskfile,
                                         snapshot.command)
            self.shadow_bm_prdt = snapshot.bm_prdt
            action = self.action_for(request)
            if action != "pass":
                # IDE is single-outstanding: the guest waits on this
                # command, so no other can hold the blocked context.
                yield from self._serve_blocked(request, action)
                return
        yield from self._wait_device_idle()
        controller = self.controller
        for port, value in snapshot.taskfile.current.items():
            if port != ide.REG_COMMAND:
                controller.taskfile.write(port, value)
        controller.taskfile.hob = dict(snapshot.taskfile.hob)
        controller.pio_write(ide.BM_PRDT, snapshot.bm_prdt)
        direction = snapshot.bm_direction & ~ide.BM_CMD_START
        controller.pio_write(ide.BM_COMMAND, direction)
        controller.pio_write(ide.REG_COMMAND, snapshot.command)
        if snapshot.command in ide.DMA_COMMANDS:
            controller.pio_write(ide.BM_COMMAND,
                                 direction | ide.BM_CMD_START)

"""AHCI device mediator (the paper's 2,285-LOC mediator, reproduced).

Interpretation works by following the guest's own in-memory structures:
a ``PxCI`` write names a command slot; the mediator walks command list ->
command header -> command table -> FIS/PRDT exactly as the HBA would.
Redirection rewrites the guest's command table in place to the dummy
sector (the paper's "manipulate the command information") before letting
the HBA run it; multiplexing swaps in the VMM's own command list and
disables ``PxIE`` so the guest never sees the VMM's completions.  The
blocked command is named by its slot; fresh and queued slots go through
the engine's one decision and blocked-command path.
"""

from __future__ import annotations

from repro.storage import ahci
from repro.storage.blockdev import BlockOp, BlockRequest, SectorBuffer
from repro.storage.ide import CMD_READ_DMA_EXT, CMD_WRITE_DMA_EXT
from repro.vmm.mediator import (DeviceMediator, MediatorMode,
                                register_mediator)


@register_mediator("ahci")
class AhciMediator(DeviceMediator):
    """Mediator for the AHCI controller."""

    def __init__(self, env, machine, deployment):
        super().__init__(env, machine, deployment)
        # Shadow port registers (interpretation).
        self.shadow_pxclb = 0
        self.shadow_pxie = 0
        self.shadow_pxcmd = 0
        self.shadow_pxci = 0
        # Device-produced state captured at VMM takeover (an unacked
        # PxIS completion the guest is still owed).
        self._saved_pxis = 0
        # The VMM's private command list: slot 0's header and command
        # table are built once, and each request rewrites the table's
        # FIS and points its PRDT at the request's mapped buffer.
        hostmem = machine.hostmem
        self._vmm_table = ahci.CommandTable(
            ahci.CommandFis(CMD_READ_DMA_EXT, 0, 1), prdt=[None])
        self._vmm_command_list: list = [None] * ahci.COMMAND_SLOTS
        self._vmm_command_list[0] = ahci.CommandHeader(
            hostmem.allocate(self._vmm_table))
        self._vmm_clb = hostmem.allocate(self._vmm_command_list)
        self._vmm_buffer_address: int | None = None

    # -- intercept installation ---------------------------------------------------

    def _install_intercepts(self) -> None:
        # Bind once: uninstall removes by identity.
        self._installed_hook = self._hook
        self.machine.bus.intercept_mmio(self.controller.abar,
                                        ahci.ABAR_SIZE,
                                        self._installed_hook)
        # MMIO traps are backed by nested-paging unmapping: register the
        # range on every CPU's NPT.
        for cpu in self.machine.cpus:
            cpu.npt.add_trap_range(self.controller.abar, ahci.ABAR_SIZE,
                                   "ahci-abar")

    def _uninstall_intercepts(self) -> None:
        self.machine.bus.uninstall_mmio_intercepts(self._installed_hook)

    # -- the intercept hook -----------------------------------------------------------

    def _hook(self, access):
        """Only a PxCI write takes simulated time (see
        ``IoBus.intercept_pio``); every other access is handled here."""
        self._m_intercepts.inc()
        offset = access.address - self.controller.abar
        if not access.is_write:
            self._hook_read(access, offset)
        elif offset == ahci.REG_PXCI:
            return self._on_command_issue(access, access.value)
        else:
            self._hook_write(access, offset)
        return None

    def _hook_write(self, access, offset: int) -> None:
        value = access.value
        owned = self.mode is MediatorMode.VMM_OWNED

        if offset == ahci.REG_PXCLB:
            self.shadow_pxclb = value
            if owned:
                access.absorb = True
        elif offset == ahci.REG_PXIE:
            self.shadow_pxie = value
            if owned:
                access.absorb = True
        elif offset == ahci.REG_PXCMD:
            self.shadow_pxcmd = value
            if owned:
                access.absorb = True
        elif offset == ahci.REG_PXIS:
            if owned:
                # Write-1-to-clear against the saved view so restore
                # does not resurrect an acked completion.
                access.absorb = True
                self._saved_pxis &= ~value

    def _hook_read(self, access, offset: int) -> None:
        if self.mode is MediatorMode.VMM_OWNED:
            # Emulate the guest's view: its commands appear in flight,
            # the VMM's activity is invisible.
            if offset == ahci.REG_PXCI:
                access.reply = self.shadow_pxci
            elif offset == ahci.REG_PXIS:
                access.reply = self._saved_pxis
            elif offset == ahci.REG_PXTFD:
                access.reply = 0x50  # DRDY, not busy
            elif offset == ahci.REG_PXCLB:
                access.reply = self.shadow_pxclb
            elif offset == ahci.REG_PXIE:
                access.reply = self.shadow_pxie
        elif self._blocked is not None:
            if offset == ahci.REG_PXCI:
                real = self.controller.pxci
                access.reply = real | (1 << self._blocked)
            elif offset == ahci.REG_PXTFD:
                access.reply = 0x50 | ahci.TFD_BSY

    # -- guest command handling -------------------------------------------------------------

    def _on_command_issue(self, access, value: int):
        """A PxCI write: interpret each newly issued slot.

        The mediator takes charge of the whole issue: slots needing no
        help are forwarded verbatim, the rest are served one by one —
        and while the VMM owns the device everything is queued (after
        classification, so writes are recorded in the bitmap even while
        queued).
        """
        access.absorb = True
        owned = self.mode is MediatorMode.VMM_OWNED
        already = self.shadow_pxci if owned else self.controller.pxci
        new_slots = value & ~already
        pass_mask = 0
        queue_mask = 0
        special: list[tuple[int, BlockRequest, str]] = []
        for slot in range(ahci.COMMAND_SLOTS):
            if not new_slots & (1 << slot):
                continue
            request = self._decode_slot(slot)
            if request is None:
                # Non-data command: irrelevant to deployment, but it
                # still cannot reach an owned device.
                if owned:
                    queue_mask |= (1 << slot)
                else:
                    pass_mask |= (1 << slot)
                continue
            action = self.classify(request)
            if action == "pass":
                pass_mask |= (1 << slot)
            elif action == "queue":
                queue_mask |= (1 << slot)
            else:
                special.append((slot, request, action))
        if queue_mask:
            self.shadow_pxci |= queue_mask
            self.queue_guest_command(queue_mask)
        if pass_mask:
            self.controller.mmio_write(
                self.controller.abar + ahci.REG_PXCI, pass_mask)
        for slot, request, action in special:
            yield from self._claim_blocked(slot)
            yield from self._serve_blocked(request, action)

    def _decode_slot(self, slot: int) -> BlockRequest | None:
        """I/O interpretation: walk the guest's command structures."""
        command_list = self.machine.hostmem.lookup(self.shadow_pxclb)
        header = command_list[slot]
        if header is None:
            return None
        table = self.machine.hostmem.lookup(header.ctba)
        return ahci.decode_fis(table.cfis)

    def _slot_table(self, slot: int) -> ahci.CommandTable:
        command_list = self.machine.hostmem.lookup(self.shadow_pxclb)
        return self.machine.hostmem.lookup(command_list[slot].ctba)

    # -- primitives used by the base engine ------------------------------------------------------

    def _guest_buffer(self) -> SectorBuffer:
        table = self._slot_table(self._blocked)
        return self.machine.hostmem.lookup(table.prdt[0])

    def _issue_to_device(self, request: BlockRequest,
                         buffer: SectorBuffer) -> None:
        controller = self.controller
        hostmem = self.machine.hostmem
        if self._vmm_buffer_address is not None:
            hostmem.free(self._vmm_buffer_address)
        self._vmm_buffer_address = self._vmm_table.prdt[0] = \
            hostmem.allocate(buffer)
        fis = self._vmm_table.cfis
        fis.command = CMD_READ_DMA_EXT if request.op is BlockOp.READ \
            else CMD_WRITE_DMA_EXT
        fis.lba = request.lba
        fis.sector_count = request.sector_count
        # Swap in the VMM's command list, silence the port's interrupts,
        # make sure the DMA engine runs, and fire slot 0.
        controller.pxclb = self._vmm_clb
        controller.pxie = 0
        controller.pxcmd |= ahci.PXCMD_ST
        controller.mmio_write(controller.abar + ahci.REG_PXCI, 1)

    def _device_done(self) -> bool:
        return not self.controller.pxci & 1 and not self.controller.busy

    def _device_busy(self) -> bool:
        return self.controller.busy or bool(self.controller.pxci)

    def _ack_device(self) -> None:
        # Clear the completion the VMM's request left behind.
        self.controller.mmio_write(
            self.controller.abar + ahci.REG_PXIS, ahci.PXIS_DHRS)
        if self._vmm_buffer_address is not None:
            self.machine.hostmem.free(self._vmm_buffer_address)
            self._vmm_buffer_address = None

    def _save_guest_registers(self) -> None:
        # The shadow registers track every guest write; capture the
        # device-produced completion state the guest has not consumed.
        self._saved_pxis = self.controller.pxis

    def _restore_guest_registers(self) -> None:
        controller = self.controller
        controller.pxclb = self.shadow_pxclb
        controller.pxie = self.shadow_pxie
        controller.pxcmd = self.shadow_pxcmd
        controller.pxis = self._saved_pxis

    def _deliver_dummy_completion(self) -> None:
        """Rewrite the blocked slot's command table to a 1-sector dummy
        read, then let the HBA run it so the completion path (PxIS, CI
        clear, interrupt) is entirely genuine."""
        slot = self._blocked
        table = self._slot_table(slot)
        self._dummy_buffer.lba = self.deployment.dummy_lba
        self._dummy_buffer.sector_count = 1
        table.cfis = ahci.CommandFis(CMD_READ_DMA_EXT,
                                     self.deployment.dummy_lba, 1)
        table.prdt = [self._dummy_address]
        controller = self.controller
        controller.pxcmd |= ahci.PXCMD_ST
        controller.mmio_write(controller.abar + ahci.REG_PXCI, 1 << slot)

    def _replay_guest_command(self, ci_value: int):
        """Re-classify and reissue slots queued during VMM ownership."""
        self.shadow_pxci &= ~ci_value
        forward_mask = 0
        for slot in range(ahci.COMMAND_SLOTS):
            if not ci_value & (1 << slot):
                continue
            request = self._decode_slot(slot)
            action = "pass" if request is None \
                else self.action_for(request)
            if action == "pass":
                forward_mask |= (1 << slot)
            else:
                yield from self._claim_blocked(slot)
                yield from self._serve_blocked(request, action)
        if forward_mask:
            yield from self._wait_device_idle()
            self.controller.mmio_write(
                self.controller.abar + ahci.REG_PXCI, forward_mask)

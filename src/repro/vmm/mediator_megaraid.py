"""MegaRAID device mediator.

The paper argues (Sections 1 and 6) that storage host controllers share
enough interface structure that device mediators generalize: "MegaRAID
SAS and Revo Drive PCIe SSD devices have similar straightforward
interfaces" and "when adding device mediators for new devices, the VMM
core does not need to be modified".  This module is the proof by
construction: a mediator for the message-passing MFI interface that
registers itself with the VMM core's registry and reuses the entire
device-independent engine (classification, the blocked-command path,
redirect orchestration, multiplex take-over, queue replay) untouched.
The blocked command is named by its frame address.
"""

from __future__ import annotations

from itertools import count

from repro.storage import megaraid
from repro.storage.blockdev import BlockOp, BlockRequest, SectorBuffer
from repro.vmm.mediator import (DeviceMediator, MediatorMode,
                                register_mediator)

#: Context ids the VMM uses for its own frames (far above the guest's).
VMM_CONTEXT_BASE = 1 << 30


@register_mediator("megaraid")
class MegaRaidMediator(DeviceMediator):
    """Mediator for the MegaRAID-style controller."""

    def __init__(self, env, machine, deployment):
        super().__init__(env, machine, deployment)
        self._vmm_contexts = count(VMM_CONTEXT_BASE)
        self._vmm_context_inflight: int | None = None
        self._vmm_frame_address: int | None = None
        self._vmm_buffer_address: int | None = None

    # -- intercept installation ----------------------------------------------------

    def _install_intercepts(self) -> None:
        self._installed_hook = self._hook
        self.machine.bus.intercept_mmio(self.controller.mmio_base,
                                        megaraid.MFI_SIZE,
                                        self._installed_hook)
        for cpu in self.machine.cpus:
            cpu.npt.add_trap_range(self.controller.mmio_base,
                                   megaraid.MFI_SIZE, "megaraid-mfi")

    def _uninstall_intercepts(self) -> None:
        self.machine.bus.uninstall_mmio_intercepts(self._installed_hook)

    # -- the intercept hook --------------------------------------------------------------

    def _hook(self, access):
        """Only a frame post takes simulated time (see
        ``IoBus.intercept_pio``); every other access is handled here."""
        self._m_intercepts.inc()
        offset = access.address - self.controller.mmio_base
        if not access.is_write:
            self._hook_read(access, offset)
        elif offset == megaraid.REG_INBOUND_QUEUE:
            return self._on_guest_post(access, access.value)
        elif offset == megaraid.REG_DOORBELL_CLEAR \
                and self.mode is MediatorMode.VMM_OWNED:
            access.absorb = True
        return None

    def _hook_read(self, access, offset: int) -> None:
        if self.mode is MediatorMode.VMM_OWNED:
            if offset == megaraid.REG_STATUS:
                # Emulate idle firmware, surfacing only guest replies.
                status = 0
                if self._guest_reply_pending():
                    status |= megaraid.STATUS_REPLY_PENDING
                access.reply = status
            elif offset == megaraid.REG_OUTBOUND_REPLY:
                access.reply = self._pop_guest_reply()
                access.absorb = True
        elif self._blocked is not None:
            if offset == megaraid.REG_STATUS:
                access.reply = megaraid.STATUS_BUSY
            elif offset == megaraid.REG_OUTBOUND_REPLY:
                access.reply = self._pop_guest_reply()
                access.absorb = True

    def _guest_reply_pending(self) -> bool:
        return any(context < VMM_CONTEXT_BASE
                   for context in self.controller.peek_completions())

    def _pop_guest_reply(self) -> int:
        """Pop the next *guest* completion, skipping the VMM's own."""
        for context in self.controller.peek_completions():
            if context < VMM_CONTEXT_BASE:
                self.controller.take_completion(context)
                return context
        return megaraid.REPLY_NONE

    # -- guest command handling --------------------------------------------------------------

    def _on_guest_post(self, access, frame_address: int):
        frame = self.machine.hostmem.lookup(frame_address)
        request = megaraid.decode_frame(frame)
        if request is None:
            # Flush etc.: only queue while the VMM owns the firmware.
            if self.mode is MediatorMode.VMM_OWNED:
                access.absorb = True
                self.queue_guest_command(frame_address)
            yield self.env.timeout(0)
            return
        action = self.classify(request)
        if action == "pass":
            yield self.env.timeout(0)
            return
        access.absorb = True
        if action == "queue":
            self.queue_guest_command(frame_address)
            yield self.env.timeout(0)
            return
        # redirect / protect: the message-passing interface needs no
        # separate start doorbell — serve immediately.
        yield from self._claim_blocked(frame_address)
        yield from self._serve_blocked(request, action)

    # -- primitives used by the base engine ------------------------------------------------------

    def _guest_buffer(self) -> SectorBuffer:
        hostmem = self.machine.hostmem
        return hostmem.lookup(hostmem.lookup(self._blocked).buffer_address)

    def _issue_to_device(self, request: BlockRequest,
                         buffer: SectorBuffer) -> None:
        hostmem = self.machine.hostmem
        if self._vmm_buffer_address is not None:
            self._free_vmm_structures()
        self._vmm_buffer_address = hostmem.allocate(buffer)
        context = next(self._vmm_contexts)
        frame = megaraid.MfiFrame(
            "read" if request.op is BlockOp.READ else "write",
            request.lba, request.sector_count,
            self._vmm_buffer_address, context)
        self._vmm_frame_address = hostmem.allocate(frame)
        self._vmm_context_inflight = context
        self.controller.mmio_write(
            self.controller.mmio_base + megaraid.REG_INBOUND_QUEUE,
            self._vmm_frame_address)

    def _device_done(self) -> bool:
        context = self._vmm_context_inflight
        return context is not None \
            and context in self.controller.peek_completions()

    def _device_busy(self) -> bool:
        return self.controller.busy

    def _ack_device(self) -> None:
        if self._vmm_context_inflight is not None:
            # Reap our own completion so the guest never sees it.
            self.controller.take_completion(self._vmm_context_inflight)
            self._vmm_context_inflight = None
        self.controller.mmio_write(
            self.controller.mmio_base + megaraid.REG_DOORBELL_CLEAR, 1)
        self._free_vmm_structures()

    def _free_vmm_structures(self) -> None:
        hostmem = self.machine.hostmem
        if self._vmm_frame_address is not None:
            hostmem.free(self._vmm_frame_address)
            self._vmm_frame_address = None
        if self._vmm_buffer_address is not None:
            hostmem.free(self._vmm_buffer_address)
            self._vmm_buffer_address = None

    def _save_guest_registers(self) -> None:
        # Guest-owed completions stay in the firmware's reply queue and
        # are served (filtered) by the virtualized reply register; there
        # is no latched register state to capture.
        pass

    def _restore_guest_registers(self) -> None:
        pass

    def _deliver_dummy_completion(self) -> None:
        """Rewrite the blocked frame to a 1-sector dummy read and post
        it, so the firmware completes it with the guest's own context."""
        frame = self.machine.hostmem.lookup(self._blocked)
        self._dummy_buffer.lba = self.deployment.dummy_lba
        self._dummy_buffer.sector_count = 1
        frame.command = "read"
        frame.lba = self.deployment.dummy_lba
        frame.sector_count = 1
        frame.buffer_address = self._dummy_address
        self.controller.mmio_write(
            self.controller.mmio_base + megaraid.REG_INBOUND_QUEUE,
            self._blocked)

    def _replay_guest_command(self, frame_address: int):
        frame = self.machine.hostmem.lookup(frame_address)
        request = megaraid.decode_frame(frame)
        action = "pass" if request is None else self.action_for(request)
        if action != "pass":
            yield from self._claim_blocked(frame_address)
            yield from self._serve_blocked(request, action)
            return
        yield from self._wait_device_idle()
        self.controller.mmio_write(
            self.controller.mmio_base + megaraid.REG_INBOUND_QUEUE,
            frame_address)

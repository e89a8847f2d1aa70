"""Shared-NIC device mediator (paper Section 6).

When no dedicated management NIC is available, the VMM shares the guest's
NIC using shadow ring buffers: the *real* device is programmed with
VMM-owned rings; the guest's rings live untouched in its own memory; the
mediator virtualizes the head/tail/ICR registers and copies descriptors
between the two, interleaving the VMM's AoE traffic with the guest's
frames.  Interrupts are NOT virtualized: the device's interrupts reach
the guest even when they are for the VMM's frames, and the guest driver
dismisses them as spurious after reading a clean (virtual) ICR — exactly
the behaviour the paper describes and the reason it prefers a dedicated
NIC (extra latency, jitter, and bandwidth contention, quantified by the
shared-NIC ablation bench).
"""

from __future__ import annotations

from repro.net import e1000
from repro.net.packet import Frame
from repro.sim import Environment, Event, Interrupt


class SharedNicPort:
    """The VMM's view of the shared NIC (duck-types the simple Nic's
    ``start_send`` and ``listen``)."""

    def __init__(self, mediator: "NicMediator"):
        self._mediator = mediator
        self.name = mediator.nic.name
        self.switch = mediator.nic.switch

    @property
    def receiver(self):
        return self._mediator.vmm_receiver

    def start_send(self, dst: str, payload, payload_bytes: int,
                   protocol: str, done, parent=None) -> None:
        """Transmit through the shadow ring: ``done(True)`` once the
        frame is on the wire."""
        self._mediator.vmm_start_send(dst, payload, payload_bytes,
                                      protocol, done)

    def start_command(self, dst: str, payload, payload_bytes: int,
                      protocol: str, done, parent=None) -> None:
        """An exchange's last frame, sent as any (the shadow ring plans
        nothing): see ``Nic.start_command``."""
        self.start_send(dst, payload, payload_bytes, protocol, done, parent)

    def listen(self, receiver) -> None:
        """Hand every frame addressed to the VMM to ``receiver(frame)``
        (see ``Nic.listen``)."""
        self._mediator.vmm_listen(receiver)


class _VmmTxItem:
    def __init__(self, env: Environment, payload_address: int):
        self.payload_address = payload_address
        self.done = Event(env)


class NicMediator:
    """Mediates one E1000 NIC between the guest and the VMM."""

    def __init__(self, env: Environment, machine, nic: e1000.E1000Nic,
                 poll_interval: float = 100e-6):
        self.env = env
        self.machine = machine
        self.nic = nic
        self.poll_interval = poll_interval

        # Guest's virtual register file.
        self.g_rdba = 0
        self.g_tdba = 0
        self.g_rdt = 0
        self.g_tdt = 0
        self.g_rdh = 0
        self.g_tdh = 0
        self.g_ims = 0
        self.g_icr = 0
        self.g_rdlen = 0
        self.g_tdlen = 0
        self._g_tx_consumed = 0   # guest descriptors copied so far

        # Shadow rings programmed into the real device.
        self._s_tx_ring = e1000.make_ring(e1000.TxDescriptor)
        self._s_rx_ring = e1000.make_ring(e1000.RxDescriptor)
        self._s_tx_address = machine.hostmem.allocate(self._s_tx_ring)
        self._s_rx_address = machine.hostmem.allocate(self._s_rx_ring)
        self._s_tx_next = 0       # next free shadow TX slot
        self._s_tx_reaped = 0     # next shadow TX slot to reap
        self._s_rx_next = 0       # next shadow RX slot to examine
        #: shadow TX slot -> ("guest", guest_slot) | ("vmm", item)
        self._tx_owner: dict[int, tuple] = {}

        self._vmm_tx_queue: list[_VmmTxItem] = []
        #: Takes the VMM's received frames while set; they wait in
        #: ``_vmm_rx`` otherwise.
        self.vmm_receiver = None
        self._vmm_rx: list[Frame] = []

        self.installed = False
        self._poller = None

        # Metrics.
        self.guest_frames_delivered = 0
        self.guest_frames_dropped = 0
        self.vmm_frames_sent = 0
        self.guest_tx_forwarded = 0
        self.spurious_guest_interrupts = 0

    # -- lifecycle ---------------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("NIC mediator already installed")
        nic = self.nic
        # Program the real device with the shadow rings (root mode).
        for descriptor in self._s_rx_ring:
            descriptor.buffer_address = \
                self.machine.hostmem.allocate(object())
        nic.mmio_write(nic.mmio_base + e1000.REG_TDBA, self._s_tx_address)
        nic.mmio_write(nic.mmio_base + e1000.REG_RDBA, self._s_rx_address)
        nic.mmio_write(nic.mmio_base + e1000.REG_RDT,
                       len(self._s_rx_ring) - 1)
        nic.mmio_write(nic.mmio_base + e1000.REG_IMS,
                       e1000.ICR_TXDW | e1000.ICR_RXT0)
        self._installed_hook = self._hook
        self.machine.bus.intercept_mmio(nic.mmio_base,
                                        e1000.E1000_MMIO_SIZE,
                                        self._installed_hook)
        for cpu in self.machine.cpus:
            cpu.npt.add_trap_range(nic.mmio_base, e1000.E1000_MMIO_SIZE,
                                   "e1000-shared")
        self._poller = self.env.process(self._poll_loop(),
                                        name="nic-mediator-poll")
        self.installed = True

    def uninstall(self) -> None:
        """De-virtualization: hand the real NIC over to the guest.

        Requires quiescence.  A real implementation resets the device
        and replays the guest's programming (the paper notes this
        transition is the fiddly part); the model transfers the guest's
        ring state onto the device directly.
        """
        if not self.installed:
            return
        if not self.quiescent:
            raise RuntimeError(
                "cannot de-virtualize the NIC with VMM traffic in flight")
        if self._poller is not None and self._poller.is_alive:
            self._poller.interrupt("devirt")
        self.machine.bus.uninstall_mmio_intercepts(self._installed_hook)
        nic = self.nic
        nic.tdba = self.g_tdba
        nic.rdba = self.g_rdba
        nic.tdh = self.g_tdh
        nic.tdt = self.g_tdt
        nic.rdh = self.g_rdh
        nic.rdt = self.g_rdt
        nic.ims = self.g_ims
        nic.icr = self.g_icr
        self.installed = False

    @property
    def quiescent(self) -> bool:
        return (not self._vmm_tx_queue
                and all(owner[0] != "vmm"
                        for owner in self._tx_owner.values()))

    # -- the intercept hook -----------------------------------------------------------

    def _hook(self, access) -> None:
        """Every access is handled in place (see
        ``IoBus.intercept_pio``)."""
        offset = access.address - self.nic.mmio_base
        access.absorb = True  # the guest never touches the real device
        if access.is_write:
            self._on_guest_write(offset, access.value)
        else:
            access.reply = self._on_guest_read(offset)

    def _on_guest_write(self, offset: int, value: int) -> None:
        if offset == e1000.REG_RDBA:
            self.g_rdba = value
        elif offset == e1000.REG_TDBA:
            self.g_tdba = value
            self._g_tx_consumed = 0
        elif offset == e1000.REG_RDLEN:
            self.g_rdlen = value
        elif offset == e1000.REG_TDLEN:
            self.g_tdlen = value
        elif offset == e1000.REG_RDT:
            self.g_rdt = value
        elif offset == e1000.REG_TDT:
            self.g_tdt = value
            self._pump_guest_tx()
        elif offset == e1000.REG_IMS:
            self.g_ims = value
        elif offset == e1000.REG_ICR:
            self.g_icr &= ~value
        # CTRL and others: accepted, nothing to mirror.

    def _on_guest_read(self, offset: int) -> int:
        if offset == e1000.REG_ICR:
            # Pump first so fresh completions/frames are visible in the
            # cause the guest is about to act on.
            self._pump_tx_completions()
            self._pump_rx()
            value = self.g_icr
            if value == 0:
                self.spurious_guest_interrupts += 1
            self.g_icr = 0
            return value
        return {
            e1000.REG_RDBA: self.g_rdba, e1000.REG_TDBA: self.g_tdba,
            e1000.REG_RDH: self.g_rdh, e1000.REG_RDT: self.g_rdt,
            e1000.REG_TDH: self.g_tdh, e1000.REG_TDT: self.g_tdt,
            e1000.REG_IMS: self.g_ims,
            e1000.REG_RDLEN: self.g_rdlen,
            e1000.REG_TDLEN: self.g_tdlen,
            e1000.REG_CTRL: 0,
        }.get(offset, 0)

    # -- pumping: guest TX -> shadow ring ------------------------------------------------

    def _shadow_tx_free(self) -> int:
        return len(self._s_tx_ring) - len(self._tx_owner)

    def _take_shadow_tx_slot(self) -> int | None:
        if self._shadow_tx_free() <= 1:
            return None
        slot = self._s_tx_next
        self._s_tx_next = (self._s_tx_next + 1) % len(self._s_tx_ring)
        return slot

    def _pump_guest_tx(self) -> None:
        if not self.g_tdba:
            return
        guest_ring = self.machine.hostmem.lookup(self.g_tdba)
        size = len(guest_ring)
        kicked = False
        while self._g_tx_consumed != self.g_tdt:
            slot = self._take_shadow_tx_slot()
            if slot is None:
                break  # shadow ring full; the poll loop retries
            guest_slot = self._g_tx_consumed
            descriptor = guest_ring[guest_slot]
            shadow = self._s_tx_ring[slot]
            shadow.buffer_address = descriptor.buffer_address
            shadow.length = descriptor.length
            shadow.dd = False
            self._tx_owner[slot] = ("guest", guest_slot)
            self._g_tx_consumed = (guest_slot + 1) % size
            kicked = True
        if kicked:
            self._kick_device()

    def _pump_vmm_tx(self) -> None:
        kicked = False
        while self._vmm_tx_queue:
            slot = self._take_shadow_tx_slot()
            if slot is None:
                break
            item = self._vmm_tx_queue.pop(0)
            shadow = self._s_tx_ring[slot]
            shadow.buffer_address = item.payload_address
            shadow.dd = False
            self._tx_owner[slot] = ("vmm", item)
            kicked = True
        if kicked:
            self._kick_device()

    def _kick_device(self) -> None:
        nic = self.nic
        nic.mmio_write(nic.mmio_base + e1000.REG_TDT, self._s_tx_next)

    def _pump_tx_completions(self) -> None:
        guest_ring = self.machine.hostmem.lookup(self.g_tdba) \
            if self.g_tdba else None
        while self._s_tx_reaped in self._tx_owner \
                and self._s_tx_ring[self._s_tx_reaped].dd:
            kind, target = self._tx_owner.pop(self._s_tx_reaped)
            self._s_tx_ring[self._s_tx_reaped].dd = False
            if kind == "guest" and guest_ring is not None:
                guest_ring[target].dd = True
                self.g_tdh = (target + 1) % len(guest_ring)
                self.g_icr |= e1000.ICR_TXDW
                self.guest_tx_forwarded += 1
            elif kind == "vmm":
                self.vmm_frames_sent += 1
                if not target.done.triggered:
                    target.done.succeed()
            self._s_tx_reaped = (self._s_tx_reaped + 1) \
                % len(self._s_tx_ring)

    # -- pumping: shadow RX -> guest ring / VMM receiver -----------------------------------

    def _pump_rx(self) -> None:
        ring = self._s_rx_ring
        size = len(ring)
        recycled = False
        while ring[self._s_rx_next].dd:
            descriptor = ring[self._s_rx_next]
            frame = descriptor.frame
            descriptor.dd = False
            descriptor.frame = None
            self._s_rx_next = (self._s_rx_next + 1) % size
            recycled = True
            if frame.protocol != "aoe":
                self._deliver_to_guest(frame)
            elif self.vmm_receiver is not None:
                self.vmm_receiver(frame)
            else:
                self._vmm_rx.append(frame)
        if recycled:
            nic = self.nic
            new_tail = (self._s_rx_next - 1) % size
            nic.mmio_write(nic.mmio_base + e1000.REG_RDT, new_tail)

    def vmm_listen(self, receiver) -> None:
        """See :meth:`SharedNicPort.listen`."""
        self.vmm_receiver = receiver
        while receiver is not None and self._vmm_rx:
            receiver(self._vmm_rx.pop(0))


    def _deliver_to_guest(self, frame: Frame) -> None:
        if not self.g_rdba:
            self.guest_frames_dropped += 1
            return
        guest_ring = self.machine.hostmem.lookup(self.g_rdba)
        size = len(guest_ring)
        if self.g_rdh == self.g_rdt:
            self.guest_frames_dropped += 1
            return
        descriptor = guest_ring[self.g_rdh]
        descriptor.frame = frame
        descriptor.length = frame.payload_bytes
        descriptor.dd = True
        self.g_rdh = (self.g_rdh + 1) % size
        self.g_icr |= e1000.ICR_RXT0
        self.guest_frames_delivered += 1

    # -- the VMM transmit path ------------------------------------------------------------

    def vmm_start_send(self, dst: str, payload, payload_bytes: int,
                       protocol: str, done) -> None:
        """Queue one VMM frame on the shadow ring: ``done(True)`` once
        the device has put it on the wire."""
        hostmem = self.machine.hostmem
        address = hostmem.allocate(
            e1000.TxPayload(dst, payload, payload_bytes, protocol))
        item = _VmmTxItem(self.env, address)
        self._vmm_tx_queue.append(item)
        self._pump_vmm_tx()

        def sent(_event):
            hostmem.free(address)
            done(True)

        item.done.callbacks.append(sent)

    # -- the polling thread -----------------------------------------------------------------

    def _poll_loop(self):
        try:
            while True:
                yield self.env.timeout(self.poll_interval)
                self._pump_tx_completions()
                self._pump_vmm_tx()
                self._pump_guest_tx()
                self._pump_rx()
        except Interrupt:
            return

"""NIC model with e1000-style receive ring.

The BMcast VMM drives its dedicated NIC with a tiny polling driver (paper
4.3: the PRO/1000 driver is 718 LOC).  The model keeps the properties that
matter: a bounded receive ring that drops on overflow, and per-NIC
transmit serialization (via the switch).  A frame is received one of two
ways: a consumer registered with :meth:`Nic.listen` (the AoE initiator
and target) is handed each frame as it arrives, with no event between
the delivery and the consumer; otherwise the frame waits in the ring for
:meth:`Nic.recv` or :meth:`Nic.poll`.
"""

from __future__ import annotations

from repro.net.link import EthernetSwitch
from repro.net.packet import Frame
from repro.net.train import _FrameTrain
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Store


class Nic:
    """One network interface attached to a switch port."""

    def __init__(self, env: Environment, switch: EthernetSwitch, name: str,
                 rx_ring_size: int = 256, model: str = "intel-pro1000",
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.switch = switch
        self.name = name
        self.model = model
        self.rx_ring: Store = Store(env, capacity=rx_ring_size)
        #: Called with each received frame while set (see :meth:`listen`).
        self.receiver = None
        self.telemetry = telemetry
        switch.attach(name, self)
        # Metrics.
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_dropped = 0
        self.fluid_tx_frames = 0
        self.fluid_tx_bytes = 0
        self._m_fluid_tx_bytes = None
        registry = telemetry.registry
        self._metered = registry.enabled  # skipped, not called, if off
        self._m_tx_bytes = registry.counter("net_tx_bytes_total",
                                            nic=name)
        self._m_rx_bytes = registry.counter("net_rx_bytes_total",
                                            nic=name)
        self._m_rx_dropped = registry.counter(
            "net_rx_dropped_total", nic=name,
            help="frames dropped on RX ring overflow")
        self._m_queue_depth = registry.gauge(
            "net_rx_queue_depth", nic=name,
            help="RX ring occupancy sampled at every delivery")

    def __repr__(self):
        return f"<Nic {self.name} ({self.model})>"

    # -- transmit ---------------------------------------------------------------

    def send(self, dst: str, payload, payload_bytes: int,
             protocol: str = "aoe"):
        """Generator: transmit one frame; returns True if delivered.

        No simulator path sends through here (they use
        :meth:`start_send` and the trains); the tests keep it as the
        step-by-step form the callback paths are checked against."""
        frame = Frame(self.name, dst, payload, payload_bytes, protocol)
        with self.telemetry.tracer.track("nic", "tx"):
            delivered = yield from self.switch.transmit(frame)
        self._count_tx(frame.wire_bytes)
        return delivered

    def start_send(self, dst: str, payload, payload_bytes: int,
                   protocol: str, done, parent=None) -> None:
        """Callback form of :meth:`send`: ``done(delivered)`` runs where
        the generator would have returned.  Its component span nests
        under ``parent``, on that span's trace lane."""
        frame = Frame(self.name, dst, payload, payload_bytes, protocol)
        tracer = self.telemetry.tracer
        span = tracer.start("tx", parent, component="nic") \
            if tracer.profiling else None

        def sent(delivered):
            if span is not None:
                tracer.end(span)
            self._count_tx(frame.wire_bytes)
            done(delivered)

        self.switch.start_transmit(frame, sent)

    def start_command(self, dst: str, payload, payload_bytes: int,
                      protocol: str, done, parent=None):
        """:meth:`start_send` for the last frame of an exchange (an AoE
        command): a one-frame train with no CPU gap
        (``repro.net.train``), planned where the sending port would be
        taken in place.  Its ``done()`` then runs late, at the delivery
        or where the train is settled or handed over, and the train is
        returned (its send end is ``ends[0]``).  None when the frame is
        sent as :meth:`start_send` sends it."""
        if not self.plans:
            self.start_send(dst, payload, payload_bytes, protocol, done,
                            parent)
            return None
        self._check_reply(dst, [payload_bytes], None)
        train = _FrameTrain(self.switch, self, dst, [payload],
                            [payload_bytes], protocol, 0.0, _uncounted,
                            done, parent, late=True)
        return train if train.planned else None

    def start_train(self, dst: str, payloads: list, sizes: list,
                    protocol: str, gap: float, sent, done,
                    parent=None, per_frame_payload: int | None = None
                    ) -> None:
        """Send ``payloads`` (of ``sizes`` payload bytes) to ``dst`` one
        frame each, every frame after ``gap`` seconds of CPU time: an
        AoE read reply.

        Equivalent to a loop that waits ``gap``, sends a frame with
        :meth:`start_send` and waits for it to leave before the next
        gap: each frame reaches ``dst`` where the loop's would, and
        this NIC's transmit counters and ``nic:tx`` spans (under
        ``parent``, profiling only) are kept as that loop keeps them.
        ``sent(n)`` counts ``n`` more frames gone from the sender;
        ``done()`` runs once the last one has left.

        With ``per_frame_payload`` the reply is a bulk one: its one
        payload, split into frames of that many bytes, is sent after
        every frame's CPU time as ``EthernetSwitch.start_bulk_transfer``
        sends it, and ``sent(1)`` and ``done()`` run once the receiver
        holds it.  See ``repro.net.train._FrameTrain`` for how replies
        are run.
        """
        self._check_reply(dst, sizes, per_frame_payload)
        _FrameTrain(self.switch, self, dst, payloads, sizes, protocol, gap,
                    sent, done, parent, per_frame_payload)

    def _check_reply(self, dst: str, sizes: list,
                     per_frame_payload: int | None) -> None:
        switch = self.switch
        if dst not in switch._ports:
            switch._check_ports(self.name, dst)
        if per_frame_payload is None and max(sizes) > switch.mtu:
            raise ValueError(
                f"frame payload {max(sizes)} exceeds MTU {switch.mtu}")

    @property
    def plans(self) -> bool:
        """Whether this NIC's transfers may be planned at all
        (``repro.net.train``): its switch draws no loss and runs no
        fluid flow network."""
        switch = self.switch
        return switch._flow_network is None \
            and switch.loss.loss_probability == 0.0

    def _count_tx(self, wire_bytes: int, frames: int = 1) -> None:
        self.tx_frames += frames
        self.tx_bytes += wire_bytes
        if self._metered:
            self._m_tx_bytes.inc(wire_bytes)

    def note_fluid_tx(self, frames: int, wire_bytes: int) -> None:
        """Account a fluid flow sourced from this NIC's port.

        The metric counter is created on first use so a packet-only run
        exposes exactly the pre-fluid metric set.
        """
        self.fluid_tx_frames += frames
        self.fluid_tx_bytes += wire_bytes
        if self._m_fluid_tx_bytes is None:
            self._m_fluid_tx_bytes = self.telemetry.registry.counter(
                "net_fluid_tx_bytes_total", nic=self.name,
                help="wire bytes sent from this port as fluid flows")
        self._m_fluid_tx_bytes.inc(wire_bytes)

    # -- receive ----------------------------------------------------------------

    def listen(self, receiver) -> None:
        """Hand every received frame to ``receiver(frame)`` as it
        arrives, frames already waiting in the ring first; None puts
        frames in the ring again."""
        self.receiver = receiver
        if receiver is not None:
            ring = self.rx_ring
            while ring.items:
                receiver(ring.try_get())

    def deliver(self, frame: Frame) -> None:
        """Switch-side entry: hand the frame to the receiver, or enqueue
        it into the RX ring and drop it on overflow."""
        ring = self.rx_ring
        receiver = self.receiver
        if receiver is None and ring.is_full:
            self.rx_dropped += 1
            self._m_rx_dropped.inc()
            return
        wire_bytes = frame.wire_bytes
        self.rx_frames += 1
        self.rx_bytes += wire_bytes
        if receiver is None:
            # Non-blocking: ring has space, the put succeeds immediately.
            ring.put(frame)
        else:
            receiver(frame)
        if self._metered:
            self._m_rx_bytes.inc(wire_bytes)
            self._m_queue_depth.set(len(ring.items))

    def recv(self):
        """Generator: block until a frame arrives; returns it."""
        frame = yield self.rx_ring.get()
        return frame

    def poll(self) -> Frame | None:
        """Non-blocking receive (the VMM's polling driver path)."""
        return self.rx_ring.try_get()

    @property
    def rx_pending(self) -> int:
        return len(self.rx_ring)


def _uncounted(_frames: int) -> None:
    """A late frame's ``sent``: its sender counts nothing."""

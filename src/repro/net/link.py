"""Ethernet switch and loss models.

The testbed topology is a single gigabit switch (paper 5: FUJITSU
SR-S348TC1, 9000-byte MTU).  Each attached NIC owns its transmit link;
frames serialize at line rate on the sender side, cross the switch with a
fixed forwarding latency, and are enqueued at the receiver.  Receive-side
contention is modelled by serializing delivery into each NIC at line rate
too (a switch cannot push two flows into one gigabit port faster than a
gigabit).
"""

from __future__ import annotations

from bisect import bisect_left

from repro import params
from repro.net.packet import Frame
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Event, Request, Resource
from repro.util.rng import make_rng

#: Chunk grid of packet-mode bulk transfers (another sender gets onto
#: a port only at a chunk boundary), and therefore the interleave
#: quantum a packet frame waits behind per competing bulk stream — the
#: fluid fast path reuses it to price packet/fluid cross-traffic (see
#: ``_fluid_interleave_penalty``).
BULK_CHUNK_BYTES = 128 * 1024


class LossModel:
    """Bernoulli frame loss with a seeded RNG (reproducible)."""

    def __init__(self, loss_probability: float = 0.0, seed: int = 1):
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        self.loss_probability = loss_probability
        self._rng = make_rng(seed)
        self.dropped = 0

    def drops(self, frame: Frame) -> bool:
        if self.loss_probability == 0.0:
            return False
        if self._rng.random() < self.loss_probability:
            self.dropped += 1
            return True
        return False


class EthernetSwitch:
    """A single switch connecting named NIC ports."""

    def __init__(self, env: Environment,
                 rate_bps: float = params.GBE_BITS_PER_SECOND,
                 mtu: int = params.GBE_MTU,
                 forward_latency: float = params.SWITCH_LATENCY_SECONDS,
                 loss: LossModel | None = None,
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.rate_bps = rate_bps
        self.mtu = mtu
        self.forward_latency = forward_latency
        self.loss = loss or LossModel(0.0)
        self._ports: dict[str, object] = {}     # name -> NIC
        self._tx_locks: dict[str, _PortLock] = {}
        self._rx_locks: dict[str, _PortLock] = {}
        self._telemetry = telemetry
        self._flow_network = None
        # Metrics.
        self.frames_forwarded = 0
        self.bytes_forwarded = 0
        #: Wire bytes by frame protocol tag ("aoe", "aoe-peer", ...) —
        #: how the scale-out benches attribute origin vs peer traffic.
        self.bytes_by_protocol: dict[str, int] = {}
        registry = telemetry.registry
        self._metered = registry.enabled  # skipped, not called, if off
        self._m_frames = registry.counter("switch_frames_forwarded_total")
        self._m_bytes = registry.counter("switch_bytes_forwarded_total")
        self._m_dropped = registry.counter(
            "switch_frames_dropped_total",
            help="frames lost by the switch's loss model")
        # Callbacks of the per-frame machines, bound once.
        self._on_tx_granted = self._tx_granted
        self._on_tx_sent = self._tx_sent
        self._on_rx_arrived = self._rx_arrived
        self._on_rx_granted = self._rx_granted
        self._on_rx_done = self._rx_done

    def attach(self, name: str, nic) -> None:
        if name in self._ports:
            raise ValueError(f"port name {name!r} already attached")
        self._ports[name] = nic
        self._tx_locks[name] = _PortLock(self.env, self)
        self._rx_locks[name] = _PortLock(self.env, self)

    def serialization_time(self, frame: Frame) -> float:
        return frame.wire_bytes * 8.0 / self.rate_bps

    def _check_frame(self, frame: Frame) -> None:
        if frame.payload_bytes > self.mtu:
            raise ValueError(
                f"frame payload {frame.payload_bytes} exceeds MTU {self.mtu}")
        self._check_ports(frame.src, frame.dst)

    def _check_ports(self, src: str, dst: str) -> None:
        if src not in self._ports:
            raise ValueError(f"unknown source port {src!r}")
        if dst not in self._ports:
            raise ValueError(f"unknown destination port {dst!r}")

    def _tx_seconds(self, frame: Frame) -> float:
        return (self.serialization_time(frame)
                + self._fluid_interleave_penalty(frame.src, tx=True))

    def transmit(self, frame: Frame):
        """Generator: carry ``frame`` from its source port to destination.

        The caller is blocked only for sender-side serialization; the
        switch-to-receiver leg runs asynchronously so back-to-back frames
        pipeline (store-and-forward, not stop-and-wait).  Returns True if
        the frame will be delivered, False if the switch dropped it.
        """
        self._check_frame(frame)
        # Sender-side serialization: one frame at a time per port.
        with self._tx_locks[frame.src].request() as grant:
            yield grant
            yield self.env.timeout(self._tx_seconds(frame))
        return self._sent(frame)

    def start_transmit(self, frame: Frame, done) -> None:
        """Callback form of :meth:`transmit`: two events, the send end,
        where ``done(delivered)`` runs as the generator would return,
        and the delivery (``Nic.start_command`` plans a command's one).

        A free sending port is taken in place, with no grant event, when
        nothing else is due at this instant (see ``Environment.settled``;
        :meth:`_forward` books the receiving one); otherwise it is asked
        for as the generator does.  While fluid flows exist frames keep
        the asked-for path, which prices their interleave penalty.
        """
        self._check_frame(frame)
        lock = self._tx_locks[frame.src]
        request = _FrameRequest(lock, frame, done, queue=False)
        if self._flow_network is None:
            if lock.acquire(request):
                self._tx_granted(request)
                return
        else:
            lock._do_request(request)
        request.callbacks.append(self._on_tx_granted)

    def _tx_granted(self, request: "_FrameRequest") -> None:
        self.env.timeout(self._tx_seconds(request.frame),
                         request).callbacks.append(self._on_tx_sent)

    def _tx_sent(self, timer) -> None:
        request = timer._value
        request.resource.release(request)
        request.done(self._sent(request.frame))

    def _sent(self, frame: Frame) -> bool:
        """``frame`` has left its sender: drop it or send it on."""
        if self._flow_network is not None:
            self._charge_fluid(frame.src, True, frame.wire_bytes)
        if self.loss.drops(frame):
            self._m_dropped.inc()
            return False
        self._forward(frame)
        return True

    def _forward(self, frame: Frame) -> None:
        """The receive leg, run by callbacks: forwarding latency, then
        the receiver's port for one serialization time, then delivery.

        No zero-delay hop precedes the latency timer: it is scheduled in
        the callback that sees the frame leave its sender.

        When the receiving port is free now, the frame books it from its
        arrival to its delivery and only the delivery timer runs.  The
        arrival timer is still queued, but cancelled, so it keeps the
        place the port request had in the event order: whoever asks for
        the port before that place is reached was there first, and
        revives it (see :meth:`_PortLock._do_request`), which puts the
        frame back on the queued path exactly where it would have been.
        """
        env = self.env
        lock = self._rx_locks[frame.dst]
        if self._flow_network is None:
            booking = lock.take(_FrameRequest(lock, frame, queue=False))
            if booking is not None:
                arrival = env.timeout(self.forward_latency, frame)
                env.cancel(arrival)
                booking.arrival = arrival
                booking.done = env.timeout_at(
                    env.now + self.forward_latency
                    + self.serialization_time(frame), booking)
                booking.done.callbacks.append(self._on_rx_done)
                lock.booking = booking
                return
        env.timeout(self.forward_latency,
                    frame).callbacks.append(self._on_rx_arrived)

    def _unbook(self, booking: "_FrameRequest") -> None:
        """Someone asked for a booked port before the frame arrived:
        free it, and let the frame ask at its arrival instead."""
        booking.resource.users.remove(booking)
        self.env.cancel(booking.done)
        booking.done = None
        booking.arrival.callbacks.append(self._on_rx_arrived)

    def _rx_arrived(self, timer) -> None:
        frame = timer._value
        request = _FrameRequest(self._rx_locks[frame.dst], frame)
        request.callbacks.append(self._on_rx_granted)

    def _rx_granted(self, request: "_FrameRequest") -> None:
        frame = request.frame
        self.env.timeout(
            self.serialization_time(frame)
            + self._fluid_interleave_penalty(frame.dst, tx=False),
            request).callbacks.append(self._on_rx_done)

    def _rx_done(self, timer) -> None:
        request = timer._value
        # A booking's delivery timer is ``request.done``, and the timer's
        # value is the booking: unlink them so both are freed by
        # reference counting.
        request.done = None
        lock = request.resource
        if lock.booking is request:
            lock.booking = None
        lock.release(request)
        self._arrive(request.frame)

    def _arrive(self, frame: Frame) -> None:
        """``frame`` has crossed its receiving port: count it and hand
        it to the port's NIC."""
        wire_bytes = frame.wire_bytes
        if self._flow_network is not None:
            self._charge_fluid(frame.dst, False, wire_bytes)
        self.frames_forwarded += 1
        self.bytes_forwarded += wire_bytes
        self._account(frame.protocol, 1, wire_bytes)
        self._ports[frame.dst].deliver(frame)

    def start_bulk_transfer(self, src: str, dst: str, payload,
                            payload_bytes: int, per_frame_payload: int,
                            protocol: str, done) -> None:
        """Carry a large payload as one logical transfer.

        Equivalent on the wire to the fragment train the payload would
        have been split into (same serialization time, including
        per-frame overhead), priced on a grid of ``BULK_CHUNK_BYTES``
        chunks instead of per frame.  Port contention is kept on BOTH
        sides as a chunk-by-chunk loop would see it: the sender's port
        is held chunk after chunk, each chunk then crosses the
        receiver's port, and any other user of either port gets in at
        the next chunk boundary.

        Each side holds its port across a run of chunks with one timer
        and splits it at a chunk boundary only where the chunk loop
        would have let somebody in (see :class:`_BulkStream`): three
        events uncontended, however many chunks.  An AoE bulk reply
        (``Nic.start_train``) plans the stream while its ports are free
        and costs one.  Where chunk boundaries of several streams
        coincide exactly, their holds can end in another order than the
        loop's chunk timers did, and a port then goes to another waiter
        one chunk earlier or later.  ``done()`` runs once the last chunk
        has crossed the switch and the receiver holds the payload.
        """
        self._check_ports(src, dst)
        _BulkStream(self, src, dst, payload, payload_bytes,
                    per_frame_payload, protocol, done)

    @staticmethod
    def _wire(payload_bytes: int, per_frame_payload: int) -> tuple:
        """Frames and wire bytes of a payload split into frames."""
        frames = max(1, -(-payload_bytes // per_frame_payload))
        return frames, payload_bytes + frames * params.ETH_FRAME_OVERHEAD

    def _fluid_interleave_penalty(self, port: str, tx: bool) -> float:
        """Extra seconds a packet frame waits on a fluid-occupied link.

        Had the link's N fluid flows stayed in packet mode, their bulk
        chunks would interleave with this frame through the port lock's
        FIFO — one ``BULK_CHUNK_BYTES`` chunk per stream ahead of each
        frame.  Charging that wait here keeps packet cross-traffic
        (redirected boot reads, command frames) as slow as it would be
        in packet mode.  Zero — past one None check — while no
        deployment has ever gone fluid, so the packet-only timeline is
        untouched.
        """
        network = self._flow_network
        if network is None:
            return 0.0
        count = network.tx_flows(port) if tx else network.rx_flows(port)
        if not count:
            return 0.0
        return count * (BULK_CHUNK_BYTES * 8.0 / self.rate_bps)

    def _charge_fluid(self, port: str, tx: bool, wire_bytes: int) -> None:
        """Bill a packet frame's wire time to the link's fluid flows.

        The reverse coupling: while this frame held the link, a packet-
        mode bulk stream would have made no progress, so the analytic
        flows lose the equivalent bytes (pro-rated by their solved
        rate; see ``FlowNetwork.note_packet_bytes``).
        """
        network = self._flow_network
        if network is not None:
            network.note_packet_bytes(port, tx, wire_bytes)

    @property
    def flow_network(self):
        """The fluid-flow solver for this switch, created on first use.

        Lazy so a packet-only simulation never constructs one — fluid
        metrics stay absent and the event stream is untouched unless a
        deployment actually opts in.
        """
        if self._flow_network is None:
            from repro.net.flow import FlowNetwork
            self._flow_network = FlowNetwork(
                self.env, self.rate_bps, telemetry=self._telemetry,
                on_change=self._fluid_changed)
        return self._flow_network

    def _fluid_changed(self, src: str, dst: str) -> None:
        """A fluid flow from ``src`` to ``dst`` started or ended: tell
        the bulk streams holding the two links."""
        for lock in (self._tx_locks[src], self._rx_locks[dst]):
            holder = lock.holder
            if holder is not None:
                holder._fluid_changed(lock)

    def start_fluid_transfer(self, src: str, dst: str, payload,
                             payload_bytes: int, per_frame_payload: int,
                             protocol: str, done) -> None:
        """Carry a large payload as one analytic fluid flow.

        Wire math is identical to :meth:`start_bulk_transfer` (same
        frame count, same per-frame overhead, same byte accounting), but
        the transfer is priced by the max-min fair :class:`FlowNetwork`
        instead of chunk-by-chunk port locks: concurrent fluid flows
        through a shared port split its rate equally, re-solved only on
        flow arrival/departure.  Fluid flows do not contend with packet
        traffic — callers must demote to packet mode whenever that
        interaction matters (see ``repro.net.flow.FluidState``).
        ``done()`` runs once the receiver holds the payload.
        """
        self._check_ports(src, dst)
        frames, wire_bytes = self._wire(payload_bytes, per_frame_payload)
        env = self.env
        latency = self.forward_latency

        def flowed(_event):
            env.timeout(latency).callbacks.append(arrived)

        def arrived(_event):
            self._ports[src].note_fluid_tx(frames, wire_bytes)
            self._deliver(Frame(src, dst, payload, per_frame_payload,
                                protocol=protocol),
                          frames, wire_bytes)
            done()

        self.flow_network.start(src, dst, wire_bytes).callbacks.append(
            flowed)

    def _deliver(self, frame: Frame, frames: int, wire_bytes: int) -> None:
        """Account a bulk payload's ``frames`` and hand it to its port."""
        self.frames_forwarded += frames
        self.bytes_forwarded += wire_bytes
        self._account(frame.protocol, frames, wire_bytes)
        self._ports[frame.dst].deliver(frame)

    def _account(self, protocol: str, frames: int, wire_bytes: int) -> None:
        """Count forwarded frames by protocol, and in the metrics."""
        by_protocol = self.bytes_by_protocol
        by_protocol[protocol] = by_protocol.get(protocol, 0) + wire_bytes
        if self._metered:
            self._m_frames.inc(frames)
            self._m_bytes.inc(wire_bytes)


class _FrameRequest(Request):
    """A packet frame's port-lock request: carries the frame (and, on
    the sending side, the caller's ``done``) through the grant and the
    serialization timer.  A receive-side booking carries its cancelled
    ``arrival`` timer and its delivery timer as ``done``."""

    __slots__ = ("frame", "done", "arrival")

    def __init__(self, resource: Resource, frame: Frame, done=None,
                 queue: bool = True):
        self.frame = frame
        self.done = done
        super().__init__(resource, queue)


class _Request(Request):
    """A bulk side's lock request.

    ``trigger`` is when the chunk loop would have scheduled the timer
    that prompts this request (None for a transfer's first request).
    """

    __slots__ = ("trigger",)

    def __init__(self, resource: Resource, trigger):
        self.trigger = trigger
        super().__init__(resource, queue=False)


class _PortLock(Resource):
    """One direction (tx or rx) of a switch port: held by whoever is
    putting bytes on it, plus what bulk streams keep there.

    The extras are class-level defaults until a bulk stream or a booked
    frame first sets them, so a port no bulk stream crosses costs
    nothing more than a plain :class:`Resource`.
    """

    #: The bulk stream one of whose sides holds this lock, or the reply
    #: (a frame train or a bulk reply) planned across it.  A request
    #: queueing behind a bulk stream, or a fluid flow starting or ending
    #: on the link, reaches that side through it (``_BulkStream._queued``,
    #: ``_BulkStream._fluid_changed``).  A reply holds the lock with no
    #: request in ``users``; anyone asking for it, or taking it, makes
    #: the reply hand it over first (``_FrameTrain._hand_over``).
    holder = None
    #: Bulk sides that gave the lock up at this instant and ask for it
    #: again after a zero-delay hop.  A side granted the lock meanwhile
    #: takes one chunk, as it would with them queued.
    rejoining = 0
    #: A frame holding the (receive) lock ahead of its arrival; see
    #: ``EthernetSwitch._forward``.
    booking = None

    def __init__(self, env: Environment, switch: "EthernetSwitch"):
        super().__init__(env, capacity=1)
        self.switch = switch

    def take(self, request: Request | None = None) -> Request | None:
        self._unplan()
        return super().take(request)

    def acquire(self, request: Request) -> bool:
        # Handed over first, the train's timers due now count as due
        # (``Environment.settled``), as the loop's were.
        self._unplan()
        return super().acquire(request)

    def _unplan(self) -> None:
        """Make a frame train planned across this lock hand it over."""
        holder = self.holder
        if holder is not None and not self.users:
            holder._hand_over()

    def _do_request(self, request: Request) -> None:
        self._unplan()
        booking = self.booking
        if booking is not None:
            self.booking = None
            if self.env.revive(booking.arrival):
                # The booked frame has not reached the port: this
                # request came first.
                self.switch._unbook(booking)
        super()._do_request(request)
        holder = self.holder
        if holder is not None:
            # The lock is held, so the request has queued.
            holder._queued(self)


#: A side's ``contended``/``fluid`` while it watches for that change and
#: has not been told of one yet.
_WATCHING = True


class _Side:
    """The tx or rx half of a bulk stream: chunks held on one link."""

    __slots__ = ("lock", "port", "is_tx", "ends", "first", "began",
                 "penalty", "trigger", "request", "timer", "stepping",
                 "contended", "fluid")

    def __init__(self, lock: _PortLock, port: str, is_tx: bool):
        self.lock = lock
        self.port = port
        self.is_tx = is_tx
        #: End instant of every chunk this side has started or planned,
        #: by chunk index; the last entry ends the current hold.
        self.ends: list[float] = []
        #: Index of the first chunk of the current hold, and the instant
        #: the lock was granted for it.
        self.first = 0
        self.began = 0.0
        #: Fluid interleave penalty charged to each planned chunk.
        self.penalty = 0.0
        #: ``_Request.trigger`` of this side's next request.
        self.trigger = None
        self.request = None
        #: Fires at the current hold's end; None while not holding.
        self.timer = None
        #: True when the hold ends at its planned end whatever happens
        #: (a waiter was queued, or a request has since queued).
        self.stepping = False
        #: While a hold spans several chunks, what it watches for: a
        #: request queueing on the lock, and the link's fluid flows
        #: changing.  None when not watching, ``_WATCHING`` until told,
        #: then the zero-delay event that tells it.
        self.contended = None
        self.fluid = None


class _BulkStream:
    """Both sides of one packet-mode bulk transfer, run by callbacks.

    The reference is the chunk loop: the sender holds its tx lock for
    one chunk at a time, chunk ``k`` ending at ``e[k] = e[k-1] +
    per_chunk`` (plus the fluid interleave penalty priced at the
    chunk's start); once chunk ``k`` has left the sender the receiver
    holds its rx lock for it, so ``f[k] = max(e[k], f[k-1]) + per_chunk``.
    Between chunks each side releases its lock and asks again after a
    zero-delay hop, which is where anybody else gets in.

    Here each side plans its chunk ends by the same repeated addition
    and holds its lock to the last one with a single timer, giving it
    up at a chunk boundary only where the loop would have let somebody
    in:

    * a request queues on the lock: the hold ends at the first boundary
      at or after now;
    * a waiter was already queued when the lock was granted, or a bulk
      side is about to re-request it: the hold is one chunk;
    * (rx) chunk ``j`` follows on only if ``e[j] <= f[j-1]``; otherwise
      the receiver releases at ``f[j-1]`` and asks again once chunk
      ``j`` has left the sender;
    * a fluid flow starting or ending on the link re-prices the chunks
      after the one in progress without releasing the lock.

    A lock knows the stream holding it (``_PortLock.holder``).  While a
    hold spans several chunks its side watches the lock: the first
    request to queue there, and a change of the link's fluid flows,
    reach the side in a zero-delay event scheduled at that instant.

    Re-requests keep the loop's zero-delay hop, so requests already due
    are served first; a request landing exactly on a boundary is
    ordered against our own re-request by the instants the loop would
    have scheduled the two chunk timers at (``_Request.trigger``).

    ``done`` runs at the later of two instants: the last chunk's
    arrival at the receiving port, one forwarding latency after it left
    the sender, and the delivery.  Delivery is at least one chunk time
    after that chunk left, so where the latency is shorter ``done``
    runs with the delivery and no arrival timer is planned.  An
    uncontended transfer thus costs four events: the sender's hold,
    the receiver's wake-up for the first chunk, its hop to ask for the
    receiving port, and the receiver's hold (one, planned, as a bulk
    reply: ``repro.net.train``).

    The stream keeps its transfer's fields itself and its callbacks are
    bound when they are scheduled, so a finished stream holds no
    reference cycle and is freed by reference counting.

    Same-instant order is not always the loop's.  A hold's timer is
    scheduled when the hold is planned, whereas the loop scheduled each
    chunk's timer when that chunk started, so where the timers of
    several holds fall due at one instant they can fire in another
    order.  The waiter the port goes to next can then differ, moving
    each affected transfer by one chunk time (tests/test_bulk_transfer.py
    pins such a case).  Giving the timer the loop's place would take an
    extra event at every last-chunk start, uncontended holds included.
    """

    __slots__ = ("env", "switch", "payload", "per_frame_payload",
                 "protocol", "frames", "wire_bytes", "done", "pending",
                 "chunks", "per_chunk", "tx", "rx", "rx_waiting",
                 "rx_ready", "rx_ready_at")

    def __init__(self, switch: EthernetSwitch, src: str, dst: str, payload,
                 payload_bytes: int, per_frame_payload: int, protocol: str,
                 done, ask: bool = True):
        self.env = switch.env
        self.switch = switch
        self.payload = payload
        self.per_frame_payload = per_frame_payload
        self.protocol = protocol
        self.frames, self.wire_bytes = switch._wire(payload_bytes,
                                                    per_frame_payload)
        self.done = done
        #: Of the last chunk's arrival and the delivery, how many are to
        #: come; ``done`` runs once none is.
        self.pending = 2
        self.chunks = chunks = max(1, -(-payload_bytes // BULK_CHUNK_BYTES))
        self.per_chunk = self.wire_bytes * 8.0 / switch.rate_bps / chunks
        self.tx = _Side(switch._tx_locks[src], src, True)
        self.rx = _Side(switch._rx_locks[dst], dst, False)
        #: True while the receiver waits for chunk ``len(rx.ends)`` to
        #: leave the sender; ``rx_ready`` is the timer at that instant
        #: unless the sender's own hold timer ends there.
        self.rx_waiting = True
        self.rx_ready = None
        self.rx_ready_at = None
        if ask:
            self._ask(self.tx)

    # -- lock hand-offs ---------------------------------------------------

    def _ask(self, side: _Side) -> None:
        """Ask for ``side``'s lock: taken in place, with no grant event,
        when it is free and nothing else is due (``Resource.acquire``)."""
        request = side.request = _Request(side.lock, side.trigger)
        granted = self._tx_granted if side.is_tx else self._rx_granted
        if side.lock.acquire(request):
            granted(request)
        else:
            request.callbacks.append(granted)

    def _hop(self, side: _Side, trigger: float) -> None:
        """Ask for ``side``'s lock again, after a zero-delay hop.

        ``trigger`` is the start of the chunk whose end prompts the
        request: the instant the loop scheduled that chunk's timer.
        """
        side.trigger = trigger
        side.lock.rejoining += 1
        self._tell(side, self._rejoin)

    def _rejoin(self, hop: Event) -> None:
        side = hop._value
        side.lock.rejoining -= 1
        self._ask(side)

    @staticmethod
    def _start(side: _Side, k: int) -> float:
        """The instant chunk ``k`` of the current hold began."""
        return side.ends[k - 1] if k > side.first else side.began

    def _release(self, side: _Side) -> None:
        side.timer = None
        self._unwatch(side)
        lock = side.lock
        lock.holder = None
        lock.release(side.request)
        side.request = None

    def _arm(self, side: _Side) -> None:
        """(Re)schedule ``side``'s timer at the end of its hold."""
        timer = side.timer
        if timer is not None and timer.callbacks is not None:
            self.env.cancel(timer)
        timer = self.env.timeout_at(side.ends[-1])
        timer.callbacks.append(self._tx_end if side.is_tx else self._rx_end)
        side.timer = timer

    def _begin(self, side: _Side) -> None:
        """Start a hold on a just-granted lock: price, pick its length."""
        lock = side.lock
        lock.holder = self
        side.first = len(side.ends)
        side.began = self.env.now
        side.penalty = self.switch._fluid_interleave_penalty(
            side.port, side.is_tx)
        side.stepping = bool(lock.queue or lock.rejoining)
        side.ends.append(self.env.now + (self.per_chunk + side.penalty))

    # -- contention and fluid re-pricing ------------------------------------

    def _side(self, lock: _PortLock) -> _Side:
        return self.tx if self.tx.lock is lock else self.rx

    def _watch(self, side: _Side) -> None:
        """A hold spans several chunks: watch for what may cut it."""
        if side.contended is None:
            side.contended = _WATCHING
        if side.fluid is None:
            side.fluid = _WATCHING

    def _unwatch(self, side: _Side) -> None:
        for told in (side.contended, side.fluid):
            if told is not None and told is not _WATCHING:
                self.env.cancel(told)
        side.contended = side.fluid = None

    def _tell(self, side: _Side, callback) -> Event:
        """Schedule ``callback`` in a zero-delay event valued ``side``."""
        told = Event(self.env).succeed(side)
        told.callbacks.append(callback)
        return told

    def _queued(self, lock: _PortLock) -> None:
        """A request queued on ``lock``, which one of our sides holds."""
        side = self._side(lock)
        if side.contended is _WATCHING:
            side.contended = self._tell(side, self._contended)

    def _fluid_changed(self, lock: _PortLock) -> None:
        """The fluid flows of ``lock``'s link changed."""
        side = self._side(lock)
        if side.fluid is _WATCHING:
            side.fluid = self._tell(side, self._fluid)

    def _in_progress(self, side: _Side) -> int:
        """Index of the chunk ending first at or after now."""
        return bisect_left(side.ends, self.env.now, side.first)

    def _contended(self, told: Event) -> None:
        side = told._value
        side.contended = None
        self._split(side)

    def _split(self, side: _Side) -> None:
        """A request queued: end the hold at the next chunk boundary."""
        side.stepping = True
        self._unwatch(side)
        ends = side.ends
        j = self._in_progress(side)
        if ends[j] == self.env.now and j < len(ends) - 1:
            # The request came at a chunk boundary.  The loop would have
            # served it first unless it is a bulk side's re-request
            # prompted by a chunk timer scheduled after ours: then our
            # own re-request got in first and holds one more chunk.
            queue = side.lock.queue
            if queue and type(queue[0]) is _Request:
                trigger = queue[0].trigger
                if trigger is not None and trigger > self._start(side, j):
                    j += 1
        if j == len(ends) - 1:
            return
        del ends[j + 1:]
        if ends[j] == self.env.now:
            self.env.cancel(side.timer)
            if side.is_tx:
                self._rx_follow()
                self._tx_end(None)
            else:
                self._rx_end(None)
            return
        ready = self.rx_ready
        if side.is_tx and ready is not None and self.rx_ready_at == ends[j]:
            # The receiver's wake-up at this boundary was scheduled with
            # the chunk, as the loop's chunk timer was: it keeps that
            # timer's place among same-instant events, so it ends the
            # hold (and wakes the receiver through _tx_end).
            self.env.cancel(side.timer)
            ready.callbacks[0] = self._tx_end
            side.timer = ready
            self.rx_ready = None
        else:
            self._arm(side)
        if side.is_tx:
            self._rx_follow()

    def _fluid(self, told: Event) -> None:
        side = told._value
        side.fluid = None
        self._reprice(side)
        if side.is_tx:
            self._rx_follow()

    def _reprice(self, side: _Side) -> None:
        """The link's fluid flows changed: re-price the chunks to come."""
        side.penalty = self.switch._fluid_interleave_penalty(
            side.port, side.is_tx)
        ends = side.ends
        j = self._in_progress(side)
        if j == len(ends) - 1:
            return
        del ends[j + 1:]
        if side.is_tx:
            self._plan_tx()
        else:
            self._plan_rx()
        self._arm(side)
        if len(ends) - 1 > j:
            self._watch(side)
        else:
            self._unwatch(side)

    # -- sender -----------------------------------------------------------

    def _plan_tx(self) -> None:
        """Plan the rest of the payload onto the current tx hold."""
        tx = self.tx
        ends = tx.ends
        step = self.per_chunk + tx.penalty
        end = ends[-1]
        for _ in range(len(ends), self.chunks):
            end = end + step
            ends.append(end)

    def _tx_granted(self, _event) -> None:
        tx = self.tx
        self._begin(tx)
        if not tx.stepping:
            self._plan_tx()
        self._arm(tx)
        if len(tx.ends) - 1 > tx.first:
            self._watch(tx)
        self._rx_follow()

    def _tx_end(self, _event) -> None:
        """The tx hold's last chunk has left the sender."""
        tx = self.tx
        self._release(tx)
        sent = len(tx.ends)
        if sent == self.chunks:
            self._sent()
        else:
            self._hop(tx, self._start(tx, sent - 1))
        if self.rx_waiting and len(self.rx.ends) == sent - 1:
            self._rx_go(None)

    def _sent(self) -> None:
        """The last chunk has left the sender; it reaches the receiving
        port one forwarding latency later."""
        env = self.env
        now = env.now
        latency = self.switch.forward_latency
        if now + latency < now + self.per_chunk:
            # Sure to come before the delivery.
            self.pending -= 1
        else:
            env.timeout(latency).callbacks.append(self._landed)

    # -- receiver ---------------------------------------------------------

    def _plan_rx(self) -> None:
        """Extend the rx hold over every chunk that follows on."""
        rx = self.rx
        ends = rx.ends
        sent = self.tx.ends
        step = self.per_chunk + rx.penalty
        k = len(ends)
        while k < len(sent) and sent[k] <= ends[-1]:
            ends.append(ends[-1] + step)
            k += 1

    def _rx_follow(self) -> None:
        """The sender's plan changed: move the receiver's to match."""
        rx = self.rx
        if self.rx_waiting:
            self._rx_watch()
            return
        if rx.timer is None or rx.stepping:
            return
        ends = rx.ends
        last = len(ends)
        end = ends[-1]
        j = self._in_progress(rx)
        del ends[j + 1:]
        lock = rx.lock
        if not (lock.queue or lock.rejoining):
            # Chunks to come are priced now: a one-chunk hold does not
            # watch for fluid changes, so its penalty may be stale.
            rx.penalty = self.switch._fluid_interleave_penalty(
                rx.port, False)
            self._plan_rx()
        if len(ends) != last or ends[-1] != end:
            self._arm(rx)
        if len(ends) - 1 > j:
            self._watch(rx)
        else:
            self._unwatch(rx)

    def _rx_watch(self) -> None:
        """Time the receiver's wake-up for the chunk it waits on."""
        k = len(self.rx.ends)
        sent = self.tx.ends
        at = None
        if k < len(sent) and not (self.tx.timer is not None
                                  and k == len(sent) - 1):
            at = sent[k]
        ready = self.rx_ready
        if ready is not None:
            if at == self.rx_ready_at:
                return
            self.env.cancel(ready)
            self.rx_ready = None
        if at is not None:
            ready = self.rx_ready = self.env.timeout_at(at)
            ready.callbacks.append(self._rx_go)
            self.rx_ready_at = at

    def _rx_go(self, _event) -> None:
        """The chunk the receiver waits on has left the sender."""
        self.rx_waiting = False
        self.rx_ready = None
        self._hop(self.rx, self._start(self.tx, len(self.rx.ends)))

    def _rx_granted(self, _event) -> None:
        rx = self.rx
        self._begin(rx)
        if not rx.stepping:
            self._plan_rx()
        self._arm(rx)
        if len(rx.ends) - 1 > rx.first:
            self._watch(rx)

    def _rx_end(self, _event) -> None:
        """The rx hold's last chunk has crossed the receiving port."""
        rx = self.rx
        self._release(rx)
        k = len(rx.ends)
        if k == self.chunks:
            self._deliver()
            return
        tx = self.tx
        sent = tx.ends
        if k < len(sent) and sent[k] <= self.env.now \
                and not (tx.timer is not None and k == len(sent) - 1):
            # Chunk k has left the sender (a tx timer ending it at this
            # very instant has not fired yet: it will wake us).
            self._hop(rx, self._start(rx, k - 1))
        else:
            self.rx_waiting = True
            self._rx_watch()

    def _deliver(self) -> None:
        """The payload has crossed the receiving port: hand it over."""
        self.switch._deliver(
            Frame(self.tx.port, self.rx.port, self.payload,
                  self.per_frame_payload, protocol=self.protocol),
            self.frames, self.wire_bytes)
        self._landed()

    def _landed(self, _timer=None) -> None:
        """The last chunk arrived or the payload was delivered."""
        self.pending -= 1
        if not self.pending:
            self.done()

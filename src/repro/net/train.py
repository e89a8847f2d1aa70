"""Planned exchanges: an AoE command and its read reply, each run as
one callback machine.

A reply of ``N`` fragments sent the way any frame is sent (a CPU gap,
``EthernetSwitch.start_transmit``, the next gap once the frame has
left) costs ``5N - 2`` events, and a bulk reply (every frame's CPU
time, then ``EthernetSwitch.start_bulk_transfer``'s stream) five.
:class:`_FrameTrain` plans the same frames, or the same 128 KiB
chunks, with the same float additions, holds both ports while nobody
else wants them, and costs ``N + 1`` events, or one; it hands the rest
of the reply to that stepped path as soon as anybody else asks for
either port.  ``Nic.start_train`` starts one.  The command that asks
for the reply is a one-frame train too (``Nic.start_command``): one
event, its delivery, against the frame's two.  An uncontended origin
read thus costs three events: the command's delivery, the store's read
timer and the reply's delivery.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat

from repro import params
from repro.net.link import (BULK_CHUNK_BYTES, EthernetSwitch, _BulkStream,
                            _FrameRequest, _PortLock, _Request)
from repro.net.packet import Frame


class _FrameTrain:
    """One reply from a sender port to a receiver port, run by
    callbacks: a train of frames, or with ``per_frame_payload`` one bulk
    payload on the 128 KiB chunk grid (see *Bulk replies* below).

    The reference is the per-frame loop: a ``gap`` timer (the sender's
    CPU time), then the frame sent by ``start_transmit`` (the sending
    port for one serialization time, the forwarding latency, the
    receiving port for one serialization time, then delivery), the next
    gap starting once the frame has left the sender.  An ``N``-frame
    reply costs that loop ``5N - 2`` events: per frame a gap timer, a
    sending hold, an arrival, a grant and a delivery (the first frame
    books its receiving port and has neither of the middle two).

    A reply starts *planned* when both ports are free (nobody holds,
    has booked or is about to take back either), the switch draws no
    loss and no fluid flow network exists.  It then plans every
    frame's instants by the loop's own float additions, up front: gap
    end ``c[k]`` (``e[k-1] + gap``), send end ``e[k] = c[k] + ser``,
    arrival ``a[k] = e[k] + latency`` and delivery ``d[k]``, which is
    ``a[k] + ser`` when the receiving port is free on arrival and
    ``d[k-1] + ser`` when the frame queues behind its predecessor.  It
    holds both locks as their ``holder`` with no request in ``users``
    and schedules one event per frame, its delivery (chained: each
    delivery schedules the next), plus one at the last frame's send
    end, where ``done`` runs.  ``N + 1`` events in all.  Frames are
    counted (``sent``, the NIC's transmit counters and ``nic:tx``
    spans at their planned instants) there, or at a hand-over.

    Anyone asking for or taking either lock, and a fluid flow starting
    or ending on either link, makes the train hand over
    (:meth:`_hand_over`): it builds the loop's state at that instant,
    as the loop would hold it, and runs the rest of the reply as the
    loop (*stepped*).  Inside a gap the sending port is free and the
    gap's timer is pending; inside a frame the port is held by that
    frame's request until its send-end timer, so the asker gets in
    there.  On the receiving side each frame that has left the sender
    is, by its planned instants, booked (its cancelled arrival still
    revivable), on its way (arrival timer pending), queued, or
    crossing the port (the delivery event becomes the loop's delivery
    timer).

    A planned instant equal to the hand-over instant counts as passed
    when the loop would have processed its event first: when that
    event was scheduled no later than the current one (a timer's
    ``_delay`` tells how long ago it was scheduled).  The first gap
    end's place within its scheduling instant is known: the stepped
    reply makes that gap timer when it starts, so a planned train
    takes the eid the timer would have taken (``eid``) and, on a tie,
    compares it with the current timer's (``Timeout._eid``), as the
    heap would have.  For its other events the loop's order within
    one scheduling instant is not known here, and the loop's event is
    taken to come second: the loop's previous event scheduled it,
    itself at most a frame time earlier, while what else was
    scheduled then was mostly planned longer ago.  A plan in which two of the
    train's own events tie (a frame's send end or arrival on its
    predecessor's delivery, the last send end on a delivery) is not
    started planned: the loop's order there would depend on when each
    was scheduled.

    The delivery events are scheduled when the previous one fires, and
    the last send end at the train's last event before the last gap
    ends, rather than where the loop scheduled its timers.  So against
    other events due at the very same instant they can keep another
    order than the loop's timers did.  A train's fields are its own and
    its timers are dropped once fired or cancelled, so a finished train
    holds no reference cycle.

    *Bulk replies.*  The stepped reply is one gap timer of every
    frame's CPU time (``gap`` becomes ``frames * gap``), then a
    :class:`_BulkStream`: five events when uncontended.  Planned, the
    chunks' send ends ``e[j]`` and the receiver's hold ends ``f[j]``
    come from the stream's own additions (``e[0] = c + per_chunk``, the
    receiver's hold from ``e[0]``; from a free port every chunk follows
    on, ``f[j] = e[j+1]``), planned only when the last one's arrival
    comes before the delivery, so that one event, at ``f[-1]``,
    delivers the payload and runs ``sent(1)`` and ``done``.  A
    hand-over builds the stream as it would be now: not started (the
    gap timer pending), its lock request granted with the grant event
    to come (on the gap end), or the sender's hold with its ``ends``,
    and the receiver waiting for its first chunk, about to re-request
    its port (on that chunk's send end), or holding it (the planned
    event becomes the hold's timer).  The stream runs on from there.

    *Late frames.*  A command frame is a train of one frame with no
    gap (``late``), planned where ``start_transmit`` would take the
    sending port in place (``Environment.settled``, port free) and the
    receiving port is free: one event, its delivery, against the loop's
    two (the send end and the delivery).  Its ``done`` runs late, at
    the delivery before the frame arrives, where the sender settles it
    (:meth:`settle`: now, if the frame has left by the tie rule above),
    or at a hand-over; the sender reads the send end in ``ends[0]``.
    Not planned, the frame is sent as ``Nic.start_send`` sends it
    (``Nic.start_command`` starts one).
    """

    __slots__ = ("env", "switch", "nic", "dst", "payloads", "sizes",
                 "protocol", "gap", "on_sent", "done", "parent",
                 "per_frame_payload", "wire", "late", "tx_lock", "rx_lock",
                 "planned", "began", "ends", "deliveries", "booked",
                 "finish_after", "sent", "delivered", "timer", "finish",
                 "frame", "span", "eid")

    def __init__(self, switch: EthernetSwitch, nic, dst: str,
                 payloads: list, sizes: list, protocol: str, gap: float,
                 sent, done, parent, per_frame_payload: int | None = None,
                 late: bool = False):
        env = self.env = switch.env
        self.switch = switch
        self.nic = nic
        self.dst = dst
        self.payloads = payloads
        self.sizes = sizes
        self.protocol = protocol
        self.gap = gap
        self.on_sent = sent
        self.done = done
        self.parent = parent
        self.per_frame_payload = per_frame_payload
        self.late = late
        if per_frame_payload is not None:
            #: A bulk payload's frames and wire bytes.
            self.wire = switch._wire(sizes[0], per_frame_payload)
            self.gap = self.wire[0] * gap
        tx = self.tx_lock = switch._tx_locks[nic.name]
        rx = self.rx_lock = switch._rx_locks[dst]
        #: Frames gone from the sender (and counted), and delivered.
        self.sent = 0
        self.delivered = 0
        #: The pending delivery event, and the last frame's send end.
        self.timer = None
        self.finish = None
        #: The frame on the sending port, and its span (stepped).
        self.frame = None
        self.span = None
        self.began = env.now
        if late and tx.holder is not None:
            # As ``start_transmit`` asks for the sending port.
            tx._unplan()
        # Both ports free: nobody holds, has booked or is about to
        # take back either.
        self.planned = (nic.plans and (env.settled or not late)
                        and not tx.users and tx.holder is None
                        and not tx.rejoining
                        and not rx.users and rx.holder is None
                        and not rx.rejoining
                        and (self._plan() if per_frame_payload is None
                             else self._plan_chunks()))
        if not self.planned:
            self._step()
            return
        #: The eid the stepped reply's first gap timer would have taken
        #: here: its place among the events due at its instant.
        self.eid = None if late else next(env._eid)
        tx.holder = rx.holder = self
        if per_frame_payload is not None:
            timer = self.timer = env.timeout_at(self.deliveries[-1])
            timer.callbacks.append(self._bulk_delivery)
            return
        timer = self.timer = env.timeout_at(self.deliveries[0])
        timer.callbacks.append(self._delivery)
        if not late and not self.finish_after:
            self._plan_finish()

    # -- the plan -----------------------------------------------------------

    def _plan(self) -> bool:
        """Plan every frame's send end and delivery, and after which
        delivery the last send end is scheduled; False on a tie between
        two of the train's own events."""
        latency = self.switch.forward_latency
        if self.late:
            # One frame, no gap (the loop's ``began + 0.0`` is
            # ``began``): it books the free receiving port.
            ser = self._ser(0)
            end = self.began + ser
            self.ends = [end]
            self.deliveries = [end + latency + ser]
            self.booked = [True]
            return True
        rate = self.switch.rate_bps
        gap = self.gap
        end = self.began
        last = None
        ends = self.ends = []
        deliveries = self.deliveries = []
        booked = self.booked = []
        for size in self.sizes:
            ser = (size + params.ETH_FRAME_OVERHEAD) * 8.0 / rate
            end = end + gap + ser
            arrival = end + latency
            if last is None or last < end:
                # The receiving port is free when the frame leaves the
                # sender: booked from its arrival to its delivery.
                booked.append(True)
                last = arrival + ser
            elif last == end or last == arrival:
                return False
            else:
                booked.append(False)
                last = (arrival if last < arrival else last) + ser
            ends.append(end)
            deliveries.append(last)
        if end in deliveries:
            return False
        # The loop schedules the last send end where the last gap ends;
        # the train does at its last event before that: after this
        # many deliveries (none: at its start).
        self.finish_after = bisect_left(deliveries,
                                        self._start(len(ends) - 1))
        return True

    def _plan_chunks(self) -> bool:
        """Plan a bulk reply's chunk ends on both sides; False where the
        last chunk would arrive after the delivery.  From a free port
        every chunk follows on at the receiver: its hold of chunk ``j``
        ends by the very addition that ends chunk ``j + 1`` at the
        sender."""
        switch = self.switch
        chunks = max(1, -(-self.sizes[0] // BULK_CHUNK_BYTES))
        per_chunk = self.wire[1] * 8.0 / switch.rate_bps / chunks
        # Chunk ends by repeated addition, as the stream adds them.
        ends = self.ends = list(accumulate(repeat(per_chunk, chunks),
                                           initial=self._start(0)))
        del ends[0]
        end = ends[-1]
        delivery = end + per_chunk
        self.deliveries = ends[1:]
        self.deliveries.append(delivery)
        return end + switch.forward_latency < delivery

    def _start(self, k: int) -> float:
        """The instant frame ``k``'s gap ends."""
        return (self.ends[k - 1] if k else self.began) + self.gap

    def _past(self, at: float, delay: float, eid: int | None = None
              ) -> bool:
        """Whether the loop's event due at ``at``, scheduled ``delay``
        before it, was processed before the current event: it is due
        earlier, or due now and was scheduled before the current one.
        Scheduled at the same instant, the event with the smaller eid
        came first, where the loop event's ``eid`` is known (the first
        gap end's)."""
        env = self.env
        now = env.now
        if at != now:
            return at < now
        current = env.current_event
        if current is None:
            return False
        current_delay = getattr(current, "_delay", 0.0)
        if delay == current_delay and eid is not None \
                and hasattr(current, "_eid"):
            return eid < current._eid
        return delay > current_delay

    def _ser(self, k: int) -> float:
        """Frame ``k``'s serialization time."""
        return (self.sizes[k] + params.ETH_FRAME_OVERHEAD) * 8.0 \
            / self.switch.rate_bps

    def _passed(self) -> int:
        """How many frames have left the sender by now (the last one
        leaves with the finish event, a late one with the delivery)."""
        k = self.sent
        last = len(self.sizes) - (not self.late)
        while k < last and self._past(self.ends[k], self._ser(k)):
            k += 1
        return k

    def _count(self, upto: int) -> None:
        """Count frames up to ``upto`` as gone from the sender, their
        ``nic:tx`` spans at their planned instants."""
        k = self.sent
        if upto == k:
            return
        nic = self.nic
        tracer = nic.telemetry.tracer
        if tracer.profiling:
            for index in range(k, upto):
                tracer.end(tracer.start("tx", self.parent, component="nic",
                                        at=self._start(index)),
                           at=self.ends[index])
        count = upto - k
        nic._count_tx(sum(self.sizes[k:upto])
                      + count * params.ETH_FRAME_OVERHEAD, count)
        self.sent = upto
        self.on_sent(count)

    def _frame(self, k: int) -> Frame:
        return Frame(self.nic.name, self.dst, self.payloads[k],
                     self.sizes[k], self.protocol)

    # -- planned ------------------------------------------------------------

    def _plan_finish(self) -> None:
        finish = self.finish = self.env.timeout_at(self.ends[-1])
        finish.callbacks.append(self._finished)

    def _delivery(self, _timer) -> None:
        self.timer = None
        k = self.delivered + 1
        self.delivered = k
        last = k == len(self.sizes)
        if last:
            if self.late and not self.sent:
                self._leave()
            self.rx_lock.holder = None
        self.switch._arrive(self._frame(k - 1))
        if self.planned and not last:
            timer = self.timer = self.env.timeout_at(self.deliveries[k])
            timer.callbacks.append(self._delivery)
            if k == self.finish_after:
                self._plan_finish()

    def _finished(self, _timer) -> None:
        self.finish = None
        self._leave()

    def _leave(self) -> None:
        """The last frame has left the sender: free its port, count the
        frames and run ``done``."""
        if self.tx_lock.holder is self:
            self.tx_lock.holder = None
        self._count(len(self.sizes))
        self.done()

    def settle(self, step: bool = False) -> None:
        """A late frame's sender wants its ``done`` by the loop's
        instant: run it now if the frame has left the sender, and with
        ``step`` otherwise hand the train over, so that the loop's
        send-end timer runs it."""
        if not (self.planned and self.late) or self.sent:
            return
        if self._past(self.ends[0], self._ser(0)):
            self._leave()
        elif step:
            self._hand_over()

    def _bulk_delivery(self, _timer) -> None:
        """The bulk payload has crossed the receiving port."""
        self.timer = None
        self.tx_lock.holder = self.rx_lock.holder = None
        self.switch._deliver(Frame(self.nic.name, self.dst,
                                   self.payloads[0], self.per_frame_payload,
                                   protocol=self.protocol), *self.wire)
        self._streamed()

    def _streamed(self) -> None:
        """A bulk reply is done: one fragment sent."""
        self.on_sent(1)
        self.done()

    # -- hand-over ------------------------------------------------------------

    def _fluid_changed(self, lock: _PortLock) -> None:
        self._hand_over()
        holder = lock.holder
        if holder is not None:
            # The bulk stream now holding the link is told in turn.
            holder._fluid_changed(lock)

    def _hand_over(self) -> None:
        """Build the stepped reply's state now and step from here on."""
        self.planned = False
        for lock in (self.tx_lock, self.rx_lock):
            if lock.holder is self:
                lock.holder = None
        if self.per_frame_payload is None:
            self._hand_over_frames()
        else:
            self._hand_over_chunks()

    def _hand_over_frames(self) -> None:
        env = self.env
        switch = self.switch
        tx, rx = self.tx_lock, self.rx_lock
        sent = self.sent
        self._count(self._passed())
        k = self.sent
        timer, finish = self.timer, self.finish
        self.timer = self.finish = None
        # The sending side: frame k in its gap, or on the port.
        if k < len(self.sizes):
            start = self._start(k)
            if self.late or self._past(start, self.gap,
                                       None if k else self.eid):
                frame = self.frame = self._frame(k)
                tracer = self.nic.telemetry.tracer
                if tracer.profiling:
                    self.span = tracer.start("tx", self.parent,
                                             component="nic", at=start)
                request = _FrameRequest(tx, frame, self._frame_sent,
                                        queue=False)
                tx.users.append(request)
                if k < len(self.sizes) - 1:
                    self._cancel(finish)
                    finish = None
                self._retime(finish, self.ends[k], request,
                             switch._on_tx_sent)
            else:
                self._cancel(finish)
                env.timeout_at(start).callbacks.append(self._send)
        # The receiving side: every frame that has left the sender.
        for j in range(self.delivered, k):
            frame = self._frame(j)
            arrival = self.ends[j] + switch.forward_latency
            arrived = self._past(arrival, switch.forward_latency)
            if j == self.delivered and (arrived or self.booked[j]):
                request = _FrameRequest(rx, frame, queue=False)
                rx.users.append(request)
                done = self._retime(timer, self.deliveries[j], request,
                                    switch._on_rx_done)
                timer = None
                if self.booked[j]:
                    # Booked when it left the sender; its cancelled
                    # arrival is revivable until the frame arrives.
                    held = None
                    if not arrived:
                        held = env.timeout_at(arrival, frame)
                        env.cancel(held)
                    request.arrival = held
                    request.done = done
                    rx.booking = request
            elif arrived:
                request = _FrameRequest(rx, frame, queue=False)
                request.callbacks.append(switch._on_rx_granted)
                rx.queue.append(request)
            else:
                env.timeout_at(arrival, frame).callbacks.append(
                    switch._on_rx_arrived)
        self._cancel(timer)
        if self.late and self.sent > sent:
            # The late frame left the sender before the hand-over.
            self.done()

    def _hand_over_chunks(self) -> None:
        env = self.env
        timer = self.timer
        self.timer = None
        began = self._start(0)
        if not self._past(began, self.gap, self.eid):
            self._cancel(timer)
            env.timeout_at(began).callbacks.append(self._stream)
            return
        stream = _BulkStream(self.switch, self.nic.name, self.dst,
                             self.payloads[0], self.sizes[0],
                             self.per_frame_payload, self.protocol,
                             self._streamed, ask=False)
        tx, rx = stream.tx, stream.rx
        if env.now == began:
            # Asked for when the gap ended, with the current event due:
            # granted, its grant event still to come.
            self._cancel(timer)
            request = tx.request = _Request(tx.lock, None)
            tx.lock._do_request(request)
            request.callbacks.append(stream._tx_granted)
            return
        ends = self.ends
        tx.ends = list(ends)
        if self._past(ends[-1], ends[-1] - began):
            # The last chunk has left; it arrives before the delivery.
            stream.pending = 1
        else:
            self._hold(stream, tx, began)
            stream._arm(tx)
        first = ends[0]
        if not self._past(first, first - began):
            self._cancel(timer)
            stream._rx_watch()
            return
        stream.rx_waiting = False
        rx.trigger = began
        if env.now == first:
            # Woken for the first chunk with the current event due: its
            # re-request hop is still to come.
            self._cancel(timer)
            rx.lock.rejoining += 1
            stream._tell(rx, stream._rejoin)
            return
        rx.ends = list(self.deliveries)
        self._hold(stream, rx, first)
        rx.timer = self._retime(timer, rx.ends[-1], None, stream._rx_end)

    @staticmethod
    def _hold(stream: _BulkStream, side, began: float) -> None:
        """Put ``side`` in the hold over all its chunks begun at
        ``began``, as its grant did."""
        lock = side.lock
        request = side.request = _Request(lock, side.trigger)
        lock.users.append(request)
        lock.holder = stream
        side.began = began
        if len(side.ends) > 1:
            stream._watch(side)

    def _cancel(self, timer) -> None:
        if timer is not None:
            self.env.cancel(timer)

    def _retime(self, timer, at: float, value, callback):
        """Turn one of the train's pending events, due at ``at``, into
        the loop's timer there (made if there is none)."""
        if timer is None:
            timer = self.env.timeout_at(at)
        timer._value = value
        timer.callbacks[:] = [callback]
        return timer

    # -- stepped --------------------------------------------------------------

    def _step(self) -> None:
        if self.per_frame_payload is not None:
            step = self._stream
        elif self.sent == len(self.sizes):
            self.done()
            return
        elif self.late:
            # Sent in place, as ``Nic.start_send`` sends a frame.
            self._send(None)
            return
        else:
            step = self._send
        self.env.timeout(self.gap).callbacks.append(step)

    def _stream(self, _timer) -> None:
        """The bulk reply's CPU time is over: its stream starts."""
        self.switch.start_bulk_transfer(
            self.nic.name, self.dst, self.payloads[0], self.sizes[0],
            self.per_frame_payload, self.protocol, self._streamed)

    def _send(self, _timer) -> None:
        frame = self.frame = self._frame(self.sent)
        tracer = self.nic.telemetry.tracer
        self.span = tracer.start("tx", self.parent, component="nic") \
            if tracer.profiling else None
        self.switch.start_transmit(frame, self._frame_sent)

    def _frame_sent(self, _delivered) -> None:
        span = self.span
        if span is not None:
            self.span = None
            self.nic.telemetry.tracer.end(span)
        self.nic._count_tx(self.frame.wire_bytes)
        self.frame = None
        self.sent += 1
        self.on_sent(1)
        self._step()

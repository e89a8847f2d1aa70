"""AoE initiator with retransmission and RTT estimation (VMM side).

The device mediator hands this client an intercepted taskfile's
(op, LBA, count) and gets back content runs.  The client adds the paper's
protocol extensions: fragmentation/reassembly keyed on the tag field, and
a retransmission timer (RTO from an EWMA RTT estimate) to tolerate frame
loss.  Completion detection is quantized to the VMM's polling interval,
because the VMM has no interrupts of its own (paper 3.2/4.1).

Each exchange runs as a callback machine (``_Transaction``): the NIC
hands every received frame straight to the client (``Nic.listen``), the
reply completes its exchange in that step, and the caller's process
wakes once, at the poll tick after the reply.
"""

from __future__ import annotations

from itertools import count

from repro.aoe.protocol import (
    AoeAck,
    AoeCommand,
    AoeDataFragment,
    AoeNak,
    ReassemblyBuffer,
    split_write_payload,
)
from repro.aoe.rtt import RttEstimator
from repro.net.nic import Nic
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Event


class AoeTimeoutError(Exception):
    """Transaction exceeded the retry budget."""


class AoeNakError(Exception):
    """The target refused the request (peer no longer holds the data)."""

    def __init__(self, tag: int, target: str, reason: str):
        super().__init__(f"AoE tag {tag} refused by {target}: {reason}")
        self.tag = tag
        self.target = target
        self.reason = reason


class _Transaction:
    """One AoE exchange run by callbacks: the command on the wire (a
    write's data fragments first), the RTO timer, the reply, then the
    caller's wake-up at the next VMM poll tick.

    The command is a late frame (``Nic.start_command``): while its ports
    are free it costs one event, its delivery, and ``_sent`` runs late,
    arming the RTO from the command's send end.  The RTO must be the
    one of that instant, so before the client changes a target's RTT
    estimate every command to it that has left the sender settles
    first (``_FrameTrain.settle``), and a reply to a command not yet
    sent makes it step, finishing at its send end as it would
    unplanned.  An uncontended read from the origin store thus costs
    three events: the command's delivery, the store's read timer and
    the reply's delivery (one per fragment and one more for a fragment
    train).

    The caller's process waits on ``done`` alone: it fires once, at the
    poll tick after the reply (or at once with the NAK or timeout
    error), so the exchange schedules nothing between the reply and
    that tick.
    """

    __slots__ = ("client", "command", "target", "protocol", "rtt", "done",
                 "reassembly", "started", "sent_at", "last_activity",
                 "retries", "nak", "timer", "outbox", "sending", "train",
                 "replied", "finished", "span")

    def __init__(self, client: "AoeInitiator", command: AoeCommand,
                 target: str, protocol: str):
        env = client.env
        self.client = client
        self.command = command
        self.target = target
        self.protocol = protocol
        self.rtt = client.estimator_for(target)
        self.done = Event(env)
        self.reassembly = ReassemblyBuffer(command.tag)
        self.started = env.now
        self.sent_at = env.now
        self.last_activity = env.now
        self.retries = 0
        self.nak: AoeNak | None = None
        #: The pending RTO timer, if armed.
        self.timer = None
        #: Payloads of the send in progress, next one first.
        self.outbox: list = []
        #: True while a send is on the wire; a reply meanwhile finishes
        #: the exchange once the send has left.
        self.sending = False
        #: The command's frame while it is planned and ``_sent`` has
        #: not run (see ``_FrameTrain.settle``).
        self.train = None
        self.replied = False
        self.finished = False
        tracer = client.telemetry.tracer
        self.span = tracer.start(
            f"aoe-{command.op}", tracer.current(client.span_parent),
            component="aoe-client", lba=command.lba,
            sectors=command.sector_count, target=target)

    # -- the send ----------------------------------------------------------

    def send(self) -> None:
        command = self.command
        client = self.client
        if client.observers:
            fields = {"retries": self.retries} if self.retries else {}
            client._emit("send", tag=command.tag, op=command.op,
                         lba=command.lba,
                         sector_count=command.sector_count,
                         target=self.target, retransmit=self.retries > 0,
                         **fields)
        if command.op == "write":
            # Data fragments travel first, then the command completes
            # the exchange (wire cost of the payload is paid here).
            self.outbox = split_write_payload(
                command.tag, command.lba, command.sector_count,
                list(command.payload_runs), client.nic.switch.mtu)
        self.outbox.append(command)
        self.sending = True
        self._next()

    def _next(self) -> None:
        payload = self.outbox.pop(0)
        nic = self.client.nic
        if payload is self.command:
            # The exchange's last frame: planned, its ``_sent`` runs late.
            self.train = nic.start_command(self.target, payload,
                                           payload.frame_bytes(),
                                           self.protocol, self._sent,
                                           self.span)
            return
        nic.start_send(self.target, payload, payload.payload_bytes,
                       self.protocol, self._sent, self.span)

    def _sent(self, _delivered=True) -> None:
        train = self.train
        self.train = None
        if self.finished:
            return  # the caller was torn down meanwhile
        if self.outbox:
            self._next()
            return
        self.sending = False
        if self.replied:
            self._finish()
        elif not self.command.fluid:
            # The fluid data leg is priced analytically and cannot lose
            # frames, so the RTO would only inject spurious duplicates (a
            # fluid flow routinely outlives the bulk RTO).  A NAK still
            # resolves the exchange.  A late ``_sent`` arms it from the
            # send end, with the estimate of then (see ``_settle``).
            self._arm(self.client.env.now if train is None
                      else train.ends[0])

    # -- the RTO -----------------------------------------------------------

    def _arm(self, start: float) -> None:
        timer = self.timer = self.client.env.timeout_at(start + self.rtt.rto)
        timer.callbacks.append(self._expired)

    def _expired(self, _timer) -> None:
        self.timer = None
        client = self.client
        env = client.env
        rtt = self.rtt
        # Fragments still trickling in: the reply is in flight, extend
        # rather than retransmit.
        if (env.now - self.last_activity) < rtt.rto:
            self._arm(env.now)
            return
        self.retries += 1
        command = self.command
        if self.retries > client.MAX_RETRIES:
            client._m_timeouts.inc()
            if client.observers:
                client._emit("timeout", tag=command.tag, target=self.target)
            self._close()
            self.done.fail(AoeTimeoutError(
                f"AoE tag {command.tag} gave up after "
                f"{client.MAX_RETRIES} retries"))
            return
        client.retransmissions += 1
        client._m_retransmissions.inc()
        # Back off the estimator on loss (Karn-style doubling).
        client._settle(self.target)
        rtt.back_off()
        self.sent_at = env.now
        self.send()

    # -- the reply ---------------------------------------------------------

    def reply(self) -> None:
        """The reply is complete (or refused): finish now, or once the
        send in progress has left."""
        if self.train is not None:
            # A command on the sending port finishes the exchange at its
            # send end, as it would unplanned.
            self.train.settle(step=True)
        self.replied = True
        if not self.sending:
            self._finish()

    def _finish(self) -> None:
        client = self.client
        command = self.command
        self._close()
        if self.nak is not None:
            if client.observers:
                client._emit("nak", tag=command.tag, target=self.target,
                             lba=command.lba,
                             sector_count=command.sector_count,
                             reason=self.nak.reason)
            self.done.fail(AoeNakError(command.tag, self.target,
                                       self.nak.reason))
            return
        if client.observers:
            client._emit("complete", tag=command.tag, target=self.target,
                         retries=self.retries)
        env = client.env
        client._m_rtt[command.op].observe(env.now - self.started)
        payload_bytes = command.sector_count * 512
        if command.op == "read":
            client.reads_completed += 1
            client.bytes_received += payload_bytes
            client._m_rx_bytes.inc(payload_bytes)
        else:
            client.writes_completed += 1
            client._m_tx_bytes.inc(payload_bytes)
        # Completion is observed at the next VMM polling tick.
        self.done.succeed(delay=client.poll_interval / 2.0
                          if client.poll_interval > 0 else 0.0)

    def _close(self) -> None:
        """Retire the exchange: no timer, no pending entry, no spans."""
        self.finished = True
        timer = self.timer
        if timer is not None:
            # Only while pending: a cancel on a processed event would
            # mark its *next* occurrence.
            if timer.callbacks is not None:
                self.client.env.cancel(timer)
            self.timer = None
        client = self.client
        client._pending.pop(self.command.tag, None)
        client.telemetry.tracer.end(self.span, retries=self.retries)


class AoeInitiator:
    """AoE client bound to the VMM's dedicated NIC."""

    #: Retransmission budget per transaction.
    MAX_RETRIES = 5

    def __init__(self, env: Environment, nic: Nic, server: str,
                 poll_interval: float = 0.0,
                 initial_rto: float = 50e-3,
                 min_rto: float = 2e-3,
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.nic = nic
        self.server = server
        self.poll_interval = poll_interval
        self._tags = count()
        self._pending: dict[int, _Transaction] = {}
        #: Called with ``(kind, **fields)`` at protocol milestones —
        #: ``"send"`` (fresh or retransmit), ``"rtt-sample"``, ``"nak"``,
        #: ``"timeout"``, ``"complete"``.  The AoE conformance validator
        #: subscribes here; observers must not mutate the client.
        self.observers: list = []
        self.initial_rto = initial_rto
        #: Primary-server estimator, kept as ``self.rtt`` for callers
        #: that read ``srtt``/``rto`` in the single-target case.
        self.rtt = RttEstimator(initial_rto, min_rto)
        #: Per-target estimators.  RTT state must not leak across
        #: targets: a warm peer answering from its local disk in
        #: microseconds would otherwise collapse the RTO that a
        #: congested origin replica is judged by, and every queued
        #: origin read would burn its whole retry budget (the reclaim
        #: path's warm peers made this mix the common case).
        self._rtts: dict[str, RttEstimator] = {server: self.rtt}
        self.min_rto = min_rto
        self._receiver = self._receive  # bound once: stop() compares it
        # Metrics.
        self.reads_completed = 0
        self.writes_completed = 0
        self.retransmissions = 0
        self.bytes_received = 0
        self.telemetry = telemetry
        #: Where an exchange's span nests when its process has no span
        #: open: the span open where the client was built (a
        #: deployment's root), re-pointed by a VMM at its phase span.
        self.span_parent = telemetry.tracer.current()
        registry = telemetry.registry
        self._m_rtt = {
            "read": registry.histogram("aoe_request_seconds", op="read",
                                       help="AoE round-trip latency"),
            "write": registry.histogram("aoe_request_seconds", op="write",
                                        help="AoE round-trip latency"),
        }
        self._m_retransmissions = registry.counter(
            "aoe_retransmissions_total",
            help="AoE commands retransmitted after an RTO expiry")
        self._m_timeouts = registry.counter(
            "aoe_timeouts_total",
            help="AoE transactions abandoned after the retry budget")
        self._m_rx_bytes = registry.counter(
            "aoe_bytes_received_total",
            help="payload bytes fetched from the storage server")
        self._m_tx_bytes = registry.counter(
            "aoe_bytes_sent_total",
            help="payload bytes pushed to the storage server")

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Take the NIC's received frames: each reply reaches its
        exchange in the step that delivers it (see ``Nic.listen``)."""
        self.nic.listen(self._receiver)

    def stop(self) -> None:
        """Leave received frames in the NIC's ring until :meth:`start`."""
        if self.nic.receiver is self._receiver:
            self.nic.listen(None)

    @property
    def rto(self) -> float:
        return self.rtt.rto

    @property
    def srtt(self) -> float:
        return self.rtt.srtt

    def estimator_for(self, target: str) -> RttEstimator:
        """The RTT estimator tracking one target (created on first use)."""
        estimator = self._rtts.get(target)
        if estimator is None:
            estimator = RttEstimator(self.initial_rto, self.min_rto)
            self._rtts[target] = estimator
        return estimator

    # -- public operations ----------------------------------------------------------

    def read_blocks(self, lba: int, sector_count: int,
                    bulk: bool = False, target: str | None = None,
                    protocol: str = "aoe", fluid: bool = False):
        """Generator: fetch content runs for a sector range.

        ``bulk=True`` selects the aggregate wire path, used for
        background-copy streaming: a handful of events however large the
        read (the command one, the store's read one and its reply one
        while nobody else wants their ports, the command two and the
        reply five once somebody does), but not the fragment train's
        timing.
        The server pays every frame's CPU time before the first byte
        leaves, and the payload crosses the receiving port on a 128 KiB
        chunk grid, so on an idle switch a 1 MiB read takes 11.320128 ms
        where the fragment train takes 10.392368 ms.  Reads a guest
        waits on (redirected reads) therefore stay non-bulk.
        ``fluid=True`` (bulk only) prices the data leg analytically via
        the switch's fluid-flow model and skips the retransmission
        machinery — callers must demote to packet mode before loss or
        moderation dynamics engage.  ``target`` overrides the default
        server port for this one transaction (the distribution fabric
        routes reads to replicas and peers); ``protocol`` tags the
        frames for the switch's per-protocol accounting.
        """
        if fluid and not bulk:
            raise ValueError("fluid transfers require bulk=True")
        command = AoeCommand(next(self._tags), "read", lba, sector_count,
                             bulk=bulk, fluid=fluid)
        transaction = yield from self._transact(command, target, protocol)
        return transaction.reassembly.assemble()

    def write_blocks(self, lba: int, sector_count: int, runs: list,
                     target: str | None = None):
        """Generator: push content runs to the server image."""
        command = AoeCommand(next(self._tags), "write", lba, sector_count,
                             payload_runs=tuple(runs))
        yield from self._transact(command, target, "aoe")

    # -- transaction engine ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        for observer in self.observers:
            observer(kind, **fields)

    def _transact(self, command: AoeCommand, target: str | None = None,
                  protocol: str = "aoe"):
        """Generator: run one exchange; returns it at the poll tick after
        its reply."""
        if self.nic.receiver is not self._receiver:
            self.start()
        transaction = _Transaction(self, command, target or self.server,
                                   protocol)
        self._pending[command.tag] = transaction
        transaction.send()
        try:
            yield transaction.done
        finally:
            if not transaction.finished:
                # The caller was torn down mid-exchange: drop the timer
                # so no retransmission outlives it.
                transaction._close()
        return transaction

    def _receive(self, frame) -> None:
        payload = frame.payload
        if isinstance(payload, AoeDataFragment):
            self._on_fragment(payload)
        elif isinstance(payload, AoeAck):
            self._on_ack(payload)
        elif isinstance(payload, AoeNak):
            self._on_nak(payload)

    def _on_fragment(self, fragment: AoeDataFragment) -> None:
        transaction = self._pending.get(fragment.tag)
        if transaction is None or transaction.replied:
            return  # stale retransmission
        transaction.last_activity = self.env.now
        transaction.reassembly.add(fragment)
        if transaction.reassembly.complete:
            self._sample_rtt(transaction)
            transaction.reply()

    def _on_ack(self, ack: AoeAck) -> None:
        transaction = self._pending.get(ack.tag)
        if transaction is None or transaction.replied:
            return
        self._sample_rtt(transaction)
        transaction.reply()

    def _sample_rtt(self, transaction: _Transaction) -> None:
        """Karn's algorithm: a reply to a retransmitted command is
        ambiguous — it may answer either copy — so it must not feed the
        estimator."""
        if transaction.retries != 0:
            return
        self._record_rtt_sample(transaction)

    def _record_rtt_sample(self, transaction: _Transaction) -> None:
        # Split from the gate above so the conformance validator sees
        # every sample taken, even by a subclass overriding the gate.
        if self.observers:
            self._emit("rtt-sample", tag=transaction.command.tag,
                       retries=transaction.retries,
                       rtt=self.env.now - transaction.sent_at)
        self._settle(transaction.target)
        self.estimator_for(transaction.target).observe(
            self.env.now - transaction.sent_at)

    def _settle(self, target: str) -> None:
        """About to change ``target``'s estimator: every planned command
        to it that has left the sender arms its RTO first, with the
        estimate it had there."""
        for transaction in self._pending.values():
            if transaction.train is not None \
                    and transaction.target == target:
                transaction.train.settle()

    def _on_nak(self, nak: AoeNak) -> None:
        transaction = self._pending.get(nak.tag)
        if transaction is None or transaction.replied:
            return
        transaction.nak = nak
        transaction.reply()

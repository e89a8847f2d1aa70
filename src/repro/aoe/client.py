"""AoE initiator with retransmission and RTT estimation (VMM side).

The device mediator hands this client an intercepted taskfile's
(op, LBA, count) and gets back content runs.  The client adds the paper's
protocol extensions: fragmentation/reassembly keyed on the tag field, and
a retransmission timer (RTO from an EWMA RTT estimate) to tolerate frame
loss.  Completion detection is quantized to the VMM's polling interval,
because the VMM has no interrupts of its own (paper 3.2/4.1).
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
from repro.sim import Environment, Event, Interrupt


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
    __slots__ = ("command", "target", "protocol", "done", "reassembly",
                 "sent_at", "last_activity", "retries", "nak")

    def __init__(self, env: Environment, command: AoeCommand,
                 target: str, protocol: str):
        self.command = command
        self.target = target
        self.protocol = protocol
        self.done = Event(env)
        self.reassembly = ReassemblyBuffer(command.tag)
        self.sent_at = env.now
        self.last_activity = env.now
        self.retries = 0
        self.nak: AoeNak | None = None


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
        self._dispatcher = None
        # Metrics.
        self.reads_completed = 0
        self.writes_completed = 0
        self.retransmissions = 0
        self.bytes_received = 0
        self.telemetry = telemetry
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

    def start(self):
        """Spawn the receive dispatcher; returns the process."""
        if self._dispatcher is None:
            self._dispatcher = self.env.process(self._dispatch(),
                                                name="aoe-dispatch")
        return self._dispatcher

    def stop(self) -> None:
        if self._dispatcher is not None and self._dispatcher.is_alive:
            self._dispatcher.interrupt("stop")
        self._dispatcher = None

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

        ``bulk=True`` selects the aggregate wire path — identical timing,
        far fewer simulation events; used for background-copy streaming.
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
        self.reads_completed += 1
        runs = transaction.reassembly.assemble()
        self.bytes_received += sector_count * 512
        self._m_rx_bytes.inc(sector_count * 512)
        yield from self._poll_quantize()
        return runs

    def write_blocks(self, lba: int, sector_count: int, runs: list,
                     target: str | None = None):
        """Generator: push content runs to the server image."""
        command = AoeCommand(next(self._tags), "write", lba, sector_count,
                             payload_runs=tuple(runs))
        yield from self._transact(command, target, "aoe")
        self.writes_completed += 1
        self._m_tx_bytes.inc(sector_count * 512)
        yield from self._poll_quantize()

    # -- transaction engine ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        for observer in self.observers:
            observer(kind, **fields)

    def _transact(self, command: AoeCommand, target: str | None = None,
                  protocol: str = "aoe"):
        if self._dispatcher is None:
            self.start()
        transaction = _Transaction(self.env, command,
                                   target or self.server, protocol)
        self._pending[command.tag] = transaction
        started = self.env.now
        span = self.telemetry.tracer.start(
            f"aoe-{command.op}", lba=command.lba,
            sectors=command.sector_count, target=transaction.target)
        try:
            with self.telemetry.profiler.track("aoe-client",
                                               f"aoe-{command.op}"):
                yield from self._transact_inner(transaction)
        finally:
            self._pending.pop(command.tag, None)
            self.telemetry.tracer.end(span, retries=transaction.retries)
        if transaction.nak is not None:
            if self.observers:
                self._emit("nak", tag=command.tag,
                           target=transaction.target, lba=command.lba,
                           sector_count=command.sector_count,
                           reason=transaction.nak.reason)
            raise AoeNakError(command.tag, transaction.target,
                              transaction.nak.reason)
        if self.observers:
            self._emit("complete", tag=command.tag,
                       target=transaction.target,
                       retries=transaction.retries)
        self._m_rtt[command.op].observe(self.env.now - started)
        return transaction

    def _transact_inner(self, transaction: _Transaction):
        command = transaction.command
        if self.observers:
            self._emit("send", tag=command.tag, op=command.op,
                       lba=command.lba,
                       sector_count=command.sector_count,
                       target=transaction.target, retransmit=False)
        yield from self._send_command(transaction)
        if command.fluid:
            # The fluid data leg is priced analytically and cannot lose
            # frames, so the RTO/retransmit machinery below would only
            # inject spurious duplicates (a fluid flow routinely outlives
            # the bulk RTO).  Any NAK still resolves the transaction and
            # is surfaced by _transact as usual.
            yield transaction.done
            return
        rtt = self.estimator_for(transaction.target)
        while not transaction.done.triggered:
            timer = self.env.timeout(rtt.rto, value="timeout")
            outcome = yield self.env.any_of([transaction.done, timer])
            if transaction.done in outcome:
                # Drop the spent RTO timer rather than let it fire later
                # as a dead event.  Only while it is still pending: a
                # cancel on a processed event would mark its *next*
                # occurrence.
                if timer.callbacks is not None:
                    self.env.cancel(timer)
                break
            # Fragments still trickling in: the reply is in flight,
            # extend rather than retransmit.
            if (self.env.now - transaction.last_activity) < rtt.rto:
                continue
            transaction.retries += 1
            if transaction.retries > self.MAX_RETRIES:
                self._m_timeouts.inc()
                if self.observers:
                    self._emit("timeout", tag=command.tag,
                               target=transaction.target)
                raise AoeTimeoutError(
                    f"AoE tag {command.tag} gave up after "
                    f"{self.MAX_RETRIES} retries")
            self.retransmissions += 1
            self._m_retransmissions.inc()
            # Back off the estimator on loss (Karn-style doubling).
            rtt.back_off()
            transaction.sent_at = self.env.now
            if self.observers:
                self._emit("send", tag=command.tag, op=command.op,
                           lba=command.lba,
                           sector_count=command.sector_count,
                           target=transaction.target,
                           retransmit=True,
                           retries=transaction.retries)
            yield from self._send_command(transaction)

    def _send_command(self, transaction: _Transaction):
        command = transaction.command
        if command.op == "write":
            # Data fragments travel first, then the command completes the
            # exchange (wire cost of the payload is paid here).
            fragments = split_write_payload(
                command.tag, command.lba, command.sector_count,
                list(command.payload_runs), self.nic.switch.mtu)
            for fragment in fragments:
                yield from self.nic.send(transaction.target, fragment,
                                         fragment.payload_bytes,
                                         protocol=transaction.protocol)
        yield from self.nic.send(transaction.target, command,
                                 command.frame_bytes(),
                                 protocol=transaction.protocol)

    def _dispatch(self):
        try:
            while True:
                frame = yield from self.nic.recv()
                payload = frame.payload
                if isinstance(payload, AoeDataFragment):
                    self._on_fragment(payload)
                elif isinstance(payload, AoeAck):
                    self._on_ack(payload)
                elif isinstance(payload, AoeNak):
                    self._on_nak(payload)
        except Interrupt:
            return

    def _on_fragment(self, fragment: AoeDataFragment) -> None:
        transaction = self._pending.get(fragment.tag)
        if transaction is None or transaction.done.triggered:
            return  # stale retransmission
        transaction.last_activity = self.env.now
        transaction.reassembly.add(fragment)
        if transaction.reassembly.complete:
            self._sample_rtt(transaction)
            transaction.done.succeed()

    def _on_ack(self, ack: AoeAck) -> None:
        transaction = self._pending.get(ack.tag)
        if transaction is None or transaction.done.triggered:
            return
        self._sample_rtt(transaction)
        transaction.done.succeed()

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
        self.estimator_for(transaction.target).observe(
            self.env.now - transaction.sent_at)

    def _on_nak(self, nak: AoeNak) -> None:
        transaction = self._pending.get(nak.tag)
        if transaction is None or transaction.done.triggered:
            return
        transaction.nak = nak
        transaction.done.succeed()

    def _poll_quantize(self):
        """Completion is observed at the next VMM polling tick."""
        # Yield-only, one per AoE operation: safe to pool.
        if self.poll_interval > 0:
            yield self.env.pooled_timeout(self.poll_interval / 2.0)
        else:
            yield self.env.pooled_timeout(0)

"""vblade-style AoE target.

Serves an OS image over the switch.  The stock vblade is single-threaded
and bottlenecks when an initiator floods read requests (paper 4.2); the
reproduction implements both that and the paper's thread-pool version, so
the difference is measurable (ablation bench).
"""

from __future__ import annotations

from repro import params
from repro.aoe.protocol import (
    AoeAck,
    AoeCommand,
    AoeDataFragment,
    sectors_per_frame,
    split_read_reply,
)
from repro.net.nic import Nic
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Request, Resource
from repro.util.intervalmap import IntervalMap


class ImageStore:
    """Server-side backing store for OS images.

    The image mostly sits in the server's page cache (it is served to
    every new instance), so reads alternate deterministically between a
    cheap cache hit and a disk-priced miss at the configured ratio.
    """

    def __init__(self, env: Environment, contents: IntervalMap,
                 image_sectors: int,
                 cache_hit_ratio: float = 0.85,
                 hit_seconds: float = 150e-6,
                 miss_seconds: float = 6e-3,
                 bandwidth: float = 800e6):
        if not 0.0 <= cache_hit_ratio <= 1.0:
            raise ValueError("cache_hit_ratio must be in [0, 1]")
        self.env = env
        self.contents = contents
        self.image_sectors = image_sectors
        self.cache_hit_ratio = cache_hit_ratio
        self.hit_seconds = hit_seconds
        self.miss_seconds = miss_seconds
        self.bandwidth = bandwidth
        self._request_index = 0
        self.reads = 0

    #: Requests at/above this size are streaming reads the server's
    #: readahead keeps in cache (the background copier's bulk fetches).
    STREAMING_SECTORS = 1024

    def start_read(self, lba: int, sector_count: int, done,
                   parent=None) -> None:
        """Fetch runs for ``[lba, lba+sector_count)``: ``done(runs)``
        when the read's timer fires, its one event.  (``parent`` places
        component spans; this store makes none.)"""
        self._request_index += 1
        self.reads += 1
        if sector_count >= self.STREAMING_SECTORS:
            # Sequential bulk: the prefetcher hides the disk.
            is_hit = True
        elif self.cache_hit_ratio >= 1.0:
            is_hit = True
        elif self.cache_hit_ratio <= 0.0:
            is_hit = False
        else:
            # Deterministic interleave achieving the hit ratio.
            period = 1.0 / (1.0 - self.cache_hit_ratio)
            is_hit = (self._request_index % round(period)) != 0
        base = self.hit_seconds if is_hit else self.miss_seconds
        transfer = sector_count * params.SECTOR_BYTES / self.bandwidth
        self.env.timeout(
            base + transfer, (lba, sector_count, done)).callbacks.append(
                self._fetched)

    def _fetched(self, timer) -> None:
        lba, sector_count, done = timer._value
        done(self.contents.runs_in(lba, sector_count))

    def start_write(self, lba: int, runs: list, done) -> None:
        """Store runs (initiator write path; rarely used): ``done()``."""
        nbytes = sum(end - start for start, end, _ in runs) \
            * params.SECTOR_BYTES
        self.env.timeout(
            self.miss_seconds + nbytes / self.bandwidth,
            (runs, done)).callbacks.append(self._written)

    def _written(self, timer) -> None:
        runs, done = timer._value
        for start, end, token in runs:
            if token is None:
                self.contents.clear_range(start, end - start)
            else:
                self.contents.set_range(start, end - start, token)
        done()


class AoeServer:
    """AoE target process bound to one NIC.

    ``workers=1`` reproduces stock single-threaded vblade; the paper's
    version uses a pool.
    """

    #: Per-frame software cost (syscall + copy) on the server; this is
    #: what jumbo frames amortize (paper 4.2's extension).
    PER_FRAME_CPU_SECONDS = 3e-6

    #: Frame protocol tag (the peer chunk responder overrides this so
    #: the switch can attribute origin vs peer traffic).
    PROTOCOL = "aoe"
    #: Profiler attribution for served commands (the peer chunk service
    #: overrides this so p2p serving shows up as its own component).
    COMPONENT = "aoe-server"

    def __init__(self, env: Environment, nic: Nic, store: ImageStore,
                 workers: int = 8, mtu: int | None = None,
                 telemetry=NULL_TELEMETRY):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.env = env
        self.nic = nic
        self.store = store
        self.mtu = mtu if mtu is not None else nic.switch.mtu
        #: The payload of one frame of a bulk reply.
        self._bulk_frame_payload = sectors_per_frame(self.mtu) \
            * params.SECTOR_BYTES + params.AOE_HEADER_BYTES
        self.telemetry = telemetry
        self.workers = Resource(env, capacity=workers)
        self.worker_count = workers
        self._receiver = self._receive  # bound once: stop() compares it
        # Metrics.
        self.commands_served = 0
        self.fragments_sent = 0
        registry = telemetry.registry
        self._metered = registry.enabled  # skipped, not called, if off
        self._m_service = {
            "read": registry.histogram(
                "aoe_server_service_seconds", op="read",
                help="server-side service time per AoE command"),
            "write": registry.histogram(
                "aoe_server_service_seconds", op="write",
                help="server-side service time per AoE command"),
        }
        self._m_commands = {
            "read": registry.counter("aoe_server_commands_total",
                                     op="read"),
            "write": registry.counter("aoe_server_commands_total",
                                      op="write"),
        }
        self._m_fragments = registry.counter(
            "aoe_server_fragments_total",
            help="reply fragments put on the wire")
        self._m_queue_wait = registry.histogram(
            "aoe_server_queue_wait_seconds",
            help="time a command waited for a free worker")

    def start(self) -> None:
        """Take the NIC's received frames: every command starts a serve
        in the step that delivers it (see ``Nic.listen``)."""
        self.nic.listen(self._receiver)

    def stop(self) -> None:
        """Leave received frames in the NIC's ring until :meth:`start`
        (unless another server has taken the NIC over since)."""
        if self.nic.receiver is self._receiver:
            self.nic.listen(None)

    # -- internals ---------------------------------------------------------------

    def _receive(self, frame) -> None:
        command = frame.payload
        if isinstance(command, AoeCommand):
            _Serve(self, command, frame.src)

    def _serve_read(self, serve: "_Serve") -> None:
        """Fetch a read's runs; ``serve`` replies with them."""
        command = serve.command
        self.store.start_read(command.lba, command.sector_count,
                              serve.runs_fetched, serve.span)

    def _read_served(self) -> None:
        """A read's reply has left the server."""


class _Serve:
    """One AoE command served by callbacks: a worker, the store, the
    reply, then the worker back.

    A read's reply goes through ``Nic.start_train``: a train of
    fragments, each after its per-frame CPU time, or one bulk payload
    after every frame's CPU time.  While nobody else wants the reply's
    ports a train costs one event per fragment and one more, a bulk
    reply one in all; the stepped path they hand over to costs five
    per fragment, or four per bulk reply.  The store's read before it
    is one event more (its timer, or a peer's disk).  A fluid reply
    waits out the same CPU time on a timer and starts a fluid flow.

    Started in the step that delivers the command, with no zero-delay
    hop: a free worker is taken in place (``Resource.acquire``),
    otherwise the request queues on a pool only commands use, in the
    order the commands arrive.
    """

    __slots__ = ("server", "command", "reply_to", "arrived", "started",
                 "grant", "span", "fluid_reply")

    def __init__(self, server: AoeServer, command: AoeCommand,
                 reply_to: str):
        self.server = server
        self.command = command
        self.reply_to = reply_to
        self.arrived = server.env.now
        self.started = None
        #: A fluid reply's fragment and wire sizes, until its CPU time
        #: is over.
        self.fluid_reply = None
        tracer = server.telemetry.tracer
        #: The serve's component span, on a lane of its own (profiling
        #: only).
        self.span = tracer.start(
            f"serve-{command.op}", None, component=server.COMPONENT,
            lane=f"aoe-serve-{command.tag}") if tracer.profiling else None
        grant = self.grant = Request(server.workers, queue=False)
        if server.workers.acquire(grant):
            self._granted(None)
        else:
            grant.callbacks.append(self._granted)

    def _granted(self, _event) -> None:
        server = self.server
        now = server.env.now
        if server._metered:
            server._m_queue_wait.observe(now - self.arrived)
        self.started = now
        op = self.command.op
        if op == "read":
            server._serve_read(self)
        elif op == "write":
            server.store.start_write(self.command.lba,
                                     list(self.command.payload_runs),
                                     self.stored)
        else:
            raise ValueError(f"unknown AoE op {op!r}")

    # -- read ---------------------------------------------------------------

    def runs_fetched(self, runs: list) -> None:
        server = self.server
        command = self.command
        if not command.bulk:
            fragments = split_read_reply(command.tag, command.lba, runs,
                                         server.mtu)
            server.nic.start_train(
                self.reply_to, fragments,
                [fragment.payload_bytes for fragment in fragments],
                server.PROTOCOL, server.PER_FRAME_CPU_SECONDS,
                self._fragments_sent, self._read_sent, self.span)
            return
        # A bulk reply is one logical fragment with the full wire time.
        payload_bytes = command.sector_count * params.SECTOR_BYTES
        per_frame_payload = server._bulk_frame_payload
        fragment = AoeDataFragment(
            tag=command.tag, fragment_index=0, fragment_total=1,
            lba=command.lba, sector_count=command.sector_count,
            runs=tuple(runs))
        if not command.fluid:
            server.nic.start_train(
                self.reply_to, [fragment], [payload_bytes], server.PROTOCOL,
                server.PER_FRAME_CPU_SECONDS, self._fragments_sent,
                self._read_sent, self.span, per_frame_payload)
            return
        # Fluid commands price the data leg analytically; the worker
        # grant is held either way, so replica fan-out contention (the
        # dominant queueing effect) is identical in both modes.
        self.fluid_reply = (fragment, payload_bytes, per_frame_payload)
        frames = max(1, -(-payload_bytes // per_frame_payload))
        server.env.timeout(
            frames * server.PER_FRAME_CPU_SECONDS).callbacks.append(
                self._send_fluid)

    def _send_fluid(self, _timer) -> None:
        server = self.server
        reply, self.fluid_reply = self.fluid_reply, None
        server.nic.switch.start_fluid_transfer(
            server.nic.name, self.reply_to, *reply, server.PROTOCOL,
            self._fluid_sent)

    def _fragments_sent(self, count: int) -> None:
        server = self.server
        server.fragments_sent += count
        if server._metered:
            server._m_fragments.inc(count)

    def _read_sent(self) -> None:
        self.server._read_served()
        self.finish()

    def _fluid_sent(self) -> None:
        self._fragments_sent(1)
        self._read_sent()

    # -- write --------------------------------------------------------------

    def stored(self) -> None:
        ack = AoeAck(self.command.tag)
        self.reply(ack, ack.payload_bytes)

    # -- shared -------------------------------------------------------------

    def reply(self, payload, payload_bytes: int) -> None:
        """Send one frame back, then finish."""
        server = self.server
        server.nic.start_send(self.reply_to, payload, payload_bytes,
                              server.PROTOCOL, self.finish, self.span)

    def finish(self, _delivered=None) -> None:
        server = self.server
        if server._metered:
            op = self.command.op
            server._m_service[op].observe(server.env.now - self.started)
            server._m_commands[op].inc()
        if self.span is not None:
            server.telemetry.tracer.end(self.span)
        server.workers.release(self.grant)
        server.commands_served += 1

"""Mechanical disk model (SATA nearline drive).

Service time = command overhead + seek + rotational latency + media
transfer, with a track/read cache in front.  The seek component is what
makes background-copy interference visible (paper 5.6: guest and VMM
writing different regions adds seek overhead, so the two throughputs do
not sum to the bare-metal rate).
"""

from __future__ import annotations

import hashlib
import math

from repro import params
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Request, Resource
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.util.intervalmap import IntervalMap


class Disk:
    """One rotational disk with a single actuator and a read cache."""

    def __init__(self, env: Environment,
                 capacity_bytes: int = params.DISK_BYTES,
                 read_bw: float = params.DISK_READ_BW,
                 write_bw: float = params.DISK_WRITE_BW,
                 seek_avg: float = params.DISK_SEEK_AVG_SECONDS,
                 seek_max: float = params.DISK_SEEK_MAX_SECONDS,
                 rotation: float = params.DISK_ROTATION_SECONDS,
                 cache_bytes: int = params.DISK_CACHE_BYTES,
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.telemetry = telemetry
        self.capacity_bytes = capacity_bytes
        self.total_sectors = capacity_bytes // params.SECTOR_BYTES
        self.read_bw = read_bw
        self.write_bw = write_bw
        self.seek_avg = seek_avg
        self.seek_max = seek_max
        self.rotation = rotation
        self.cache_sectors = cache_bytes // params.SECTOR_BYTES

        #: Sector tokens currently on the platters.
        self.contents = IntervalMap()
        #: Called with each completed WRITE request — the peer chunk
        #: service subscribes to learn when guest writes taint blocks
        #: it advertised as pristine image data.
        self.write_observers: list = []
        #: The single actuator: requests serialize here.
        self.arm = Resource(env, capacity=1)
        self._head_lba = 0
        # Read cache: remember the most recent read window (track cache
        # behaviour is approximated by a single recency window, which is
        # all the dummy-sector restart trick needs).
        self._cache_start = 0
        self._cache_end = 0

        # Callbacks of the per-command machine, bound once.
        self._on_granted = self._granted
        self._on_serviced = self._serviced

        # Metrics.
        self.requests_served = 0
        self.sectors_read = 0
        self.sectors_written = 0
        self.busy_seconds = 0.0
        self.seek_seconds = 0.0

    # -- timing model --------------------------------------------------------

    def seek_time(self, from_lba: int, to_lba: int) -> float:
        """Seek between two LBAs: sqrt law over stroke distance."""
        if from_lba == to_lba:
            return 0.0
        distance = abs(to_lba - from_lba) / self.total_sectors
        # Short seeks are cheap; sqrt law calibrated so distance=1/3
        # (the random average) gives seek_avg.
        return min(self.seek_max,
                   self.seek_avg * math.sqrt(distance * 3.0))

    def service_time(self, request: BlockRequest) -> float:
        """Full mechanical service time for ``request`` from current head."""
        if self._cache_hit(request):
            return params.DISK_CACHE_HIT_SECONDS
        return self._mechanical_time(
            request, self.seek_time(self._head_lba, request.lba))

    def _mechanical_time(self, request: BlockRequest, seek: float) -> float:
        """A cache miss's service time, given its ``seek``."""
        # Sequential continuation skips rotational latency.
        rotational = 0.0 if request.lba == self._head_lba \
            else self.rotation / 2.0
        bandwidth = (self.read_bw if request.op is BlockOp.READ
                     else self.write_bw)
        transfer = request.sector_count * params.SECTOR_BYTES / bandwidth
        return (params.DISK_COMMAND_OVERHEAD_SECONDS
                + seek + rotational + transfer)

    def _cache_hit(self, request: BlockRequest) -> bool:
        return (request.op is BlockOp.READ
                and request.lba >= self._cache_start
                and request.end_lba <= self._cache_end)

    # -- execution --------------------------------------------------------------

    def execute(self, request: BlockRequest):
        """Generator: perform ``request`` and wait for it; returns it.

        A wait on :meth:`start`, whose component span nests under the
        innermost span open on the calling process.
        """
        done = self.env.event()
        self.start(request, done.succeed,
                   parent=self.telemetry.tracer.current())
        return (yield done)

    def start(self, request: BlockRequest, done, lane: str | None = None,
              parent=None) -> None:
        """Perform ``request`` by callbacks; ``done(request)`` runs when
        it is complete.

        Acquires the actuator, waits the mechanical time, then applies
        the content transfer: reads fill ``request.buffer`` from the
        platter contents, writes store the buffer's runs.  The component
        span nests under ``parent``, on the trace lane ``lane`` (default:
        the parent's, else the active process's).

        A free actuator is taken in place, with no grant event, when
        nothing else is due at this instant (``Resource.acquire``).
        """
        if request.end_lba > self.total_sectors:
            raise ValueError(
                f"request beyond end of disk: lba={request.lba} "
                f"n={request.sector_count}")
        tracer = self.telemetry.tracer
        span = tracer.start(request.op.value, parent, component="disk",
                            lane=lane) if tracer.profiling else None
        grant = _ArmRequest(self.arm, request, done, span)
        if self.arm.acquire(grant):
            self._granted(grant)
        else:
            grant.callbacks.append(self._on_granted)

    def _granted(self, grant: "_ArmRequest") -> None:
        """The arm is ours: price the I/O and time its mechanics."""
        request = grant.io
        if self._cache_hit(request):
            grant.cache_hit = True
            duration = params.DISK_CACHE_HIT_SECONDS
        else:
            seek = self.seek_time(self._head_lba, request.lba)
            self.seek_seconds += seek
            duration = self._mechanical_time(request, seek)
        grant.duration = duration
        self.env.timeout(duration, grant).callbacks.append(
            self._on_serviced)

    def _serviced(self, timer) -> None:
        """The mechanics are done: move the data, free the arm, report."""
        grant = timer._value
        self._apply(grant.io, grant.cache_hit)
        self.busy_seconds += grant.duration
        self.arm.release(grant)
        if grant.span is not None:
            self.telemetry.tracer.end(grant.span)
        grant.done(grant.io)

    def _apply(self, request: BlockRequest, cache_hit: bool) -> None:
        if request.op is BlockOp.READ:
            request.buffer.fill_from(self.contents)
            self.sectors_read += request.sector_count
            if not cache_hit:
                # Update the read-cache window; a hit is served from the
                # cache and moves neither the window nor the head.
                self._cache_start = request.lba
                self._cache_end = request.end_lba
                self._head_lba = request.end_lba
        else:
            request.buffer.store_to(self.contents)
            self.sectors_written += request.sector_count
            self._head_lba = request.end_lba
            for observer in self.write_observers:
                observer(request)
        self.requests_served += 1

    # -- convenience -----------------------------------------------------------

    def content_hash(self, lba: int, sector_count: int) -> str:
        """Stable digest of the symbolic content runs in a sector range.

        Two ranges hash equal iff their (clipped) token runs are equal —
        what the bitmap↔disk consistency checker compares against the
        image store, and what its violation reports print instead of
        full run lists.
        """
        runs = list(self.contents.runs_in(lba, sector_count))
        return content_digest(runs)

    @property
    def head_lba(self) -> int:
        return self._head_lba

    def utilization(self, elapsed: float) -> float:
        return self.busy_seconds / elapsed if elapsed > 0 else 0.0


class _ArmRequest(Request):
    """An I/O's claim on the actuator, carrying the I/O through its
    service and where to report it."""

    __slots__ = ("io", "done", "span", "duration", "cache_hit")

    def __init__(self, arm: Resource, io: BlockRequest, done, span):
        self.io = io
        self.done = done
        self.span = span
        self.duration = 0.0
        self.cache_hit = False
        super().__init__(arm, queue=False)


def content_digest(runs) -> str:
    """Digest of ``(start, end, token)`` content runs (see above)."""
    data = repr(list(runs)).encode("utf-8")
    return hashlib.blake2b(data, digest_size=8).hexdigest()

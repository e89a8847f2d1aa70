"""Shared deployment state: bitmap, fetch path, and guest-I/O telemetry.

One :class:`DeploymentContext` is shared by the device mediator (which
consults the bitmap on every interpreted guest command and fetches
image data on redirects), the background copier (which fills empty
blocks), and the moderation policy (which reads the guest I/O frequency).
Both fetch through the one ``fetcher``: the VMM's
:class:`repro.dist.FetchRouter`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import params
from repro.dist.router import FetchRouter
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Notifier
from repro.storage.blockdev import BlockOp
from repro.vmm.bitmap import BlockBitmap


@dataclass
class RedirectRecord:
    """Metrics entry for one redirected guest read."""

    time: float
    lba: int
    sector_count: int
    latency: float


class DeploymentContext:
    """Everything the deployment phase shares across components."""

    def __init__(self, env: Environment, bitmap: BlockBitmap,
                 fetcher: FetchRouter,
                 poll_interval: float = params.POLL_INTERVAL_SECONDS,
                 dummy_lba: int | None = None,
                 protected_lba: int | None = None,
                 protected_sectors: int = 0,
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.bitmap = bitmap
        #: Where image fetches go: the VMM's router over the fabric.
        self.fetcher = fetcher
        #: Callbacks invoked with each block index the copier commits
        #: (the peer chunk service hangs its gossip batching here).
        self.block_filled_listeners: list = []
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = poll_interval
        #: Metrics/span telemetry shared by mediator and copier.
        self.telemetry = telemetry
        #: The VMM's current phase span: where its mediator's and
        #: copier's spans nest when their process has none open.
        self.span = telemetry.tracer.current()
        self._m_fetch_latency = telemetry.registry.histogram(
            "redirect_fetch_seconds",
            help="server fetch latency for redirected guest reads")
        self._m_redirected_bytes = telemetry.registry.counter(
            "redirected_bytes_total",
            help="bytes served to the guest from the storage server")
        #: Sector the dummy-completion reads target (defaults to the
        #: sector right after the image, which is otherwise unused).
        self.dummy_lba = dummy_lba if dummy_lba is not None \
            else bitmap.image_sectors
        #: On-disk region holding the persisted bitmap, protected from
        #: the guest (paper 3.3).
        self.protected_lba = protected_lba
        self.protected_sectors = protected_sectors

        # Guest I/O telemetry for moderation: timestamps of recent
        # guest commands (sliding one-second window).
        self._recent_guest_io: deque = deque()
        self.guest_reads = 0
        self.guest_writes = 0
        #: LBA of the guest's most recent request (seek-affine copying);
        #: consumed (reset to None) by the copier when it picks a block.
        self.last_guest_lba: int | None = None

        # Redirect metrics.
        self.redirects: list[RedirectRecord] = []
        self.redirected_bytes = 0

        #: Copy-on-read write-back queue consumed by the copier's writer.
        self.writeback_queue: deque = deque()
        #: Notified wherever work for the copier's idle threads can
        #: appear: a queued write-back, a FIFO put, and (as the bitmap's
        #: ``changed``) a released claim or a fill.
        self.copy_work = Notifier(env)
        bitmap.changed = self.copy_work

    # -- guest telemetry -------------------------------------------------------

    def note_guest_io(self, op: BlockOp, lba: int | None = None) -> None:
        now = self.env.now
        self._recent_guest_io.append(now)
        if lba is not None:
            self.last_guest_lba = lba
        if op is BlockOp.READ:
            self.guest_reads += 1
        else:
            self.guest_writes += 1

    def guest_io_frequency(self, window: float = 1.0) -> float:
        """Guest requests/second over the trailing ``window`` seconds."""
        horizon = self.env.now - window
        while self._recent_guest_io and self._recent_guest_io[0] < horizon:
            self._recent_guest_io.popleft()
        return len(self._recent_guest_io) / window

    # -- server fetch ------------------------------------------------------------

    def note_block_filled(self, block: int) -> None:
        """The copier committed ``block``; fan out to listeners."""
        for listener in self.block_filled_listeners:
            listener(block)

    def fetch(self, lba: int, sector_count: int):
        """Generator: content runs for a range, from the fabric."""
        start = self.env.now
        runs = yield from self.fetcher.read_blocks(lba, sector_count)
        self.redirected_bytes += sector_count * params.SECTOR_BYTES
        self._m_redirected_bytes.inc(sector_count * params.SECTOR_BYTES)
        self._m_fetch_latency.observe(self.env.now - start)
        self.redirects.append(RedirectRecord(
            time=start, lba=lba, sector_count=sector_count,
            latency=self.env.now - start))
        return runs

    # -- copy-on-read write-back ----------------------------------------------------

    def enqueue_writeback(self, lba: int, sector_count: int,
                          runs: list) -> None:
        """Hand fetched data to the copier for persistence to local disk."""
        self.writeback_queue.append((lba, sector_count, runs))
        self.copy_work.notify()

    def pop_writeback(self, max_sectors: int = 2048):
        """Pop the oldest write-back, coalescing LBA-adjacent successors.

        Boot-time copy-on-read produces bursts of small sequential
        fetches; merging them into one disk write (up to ``max_sectors``)
        keeps the drain cheap.
        """
        queue = self.writeback_queue
        if not queue:
            return None
        lba, count, runs = queue.popleft()
        runs = list(runs)
        while queue and queue[0][0] == lba + count \
                and count + queue[0][1] <= max_sectors:
            _, next_count, next_runs = queue.popleft()
            runs.extend(next_runs)
            count += next_count
        return lba, count, runs

    # -- protected-region test -----------------------------------------------------------

    def overlaps_protected(self, lba: int, sector_count: int) -> bool:
        if self.protected_lba is None or self.protected_sectors == 0:
            return False
        return (lba < self.protected_lba + self.protected_sectors
                and self.protected_lba < lba + sector_count)

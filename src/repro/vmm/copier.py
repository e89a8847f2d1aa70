"""Background copy: retriever and writer threads over a FIFO (paper 3.3).

The retriever fetches empty blocks through the VMM's fetch router
(seek-affine order: it jumps next to wherever the guest last touched the
disk); the writer pops the FIFO and lands them on the local disk through
the device mediator's I/O multiplexing, paced by the moderation policy.
The writer also drains the copy-on-read write-back queue so redirected
reads become local for free.

Consistency is enforced by the block bitmap: the writer re-derives the
writable sector runs *at write time*, so a guest write that raced the
fetch is never overwritten.
"""

from __future__ import annotations

from repro import params
from repro.net.flow import FluidState
from repro.sim import Environment, Interrupt, Store
from repro.storage.blockdev import BlockOp, BlockRequest, clip_runs
from repro.vmm.bitmap import BlockState
from repro.vmm.deploy import DeploymentContext
from repro.vmm.mediator import DeviceMediator
from repro.vmm.moderation import ModerationPolicy


class BackgroundCopier:
    """Retriever + writer thread pair with a bounded FIFO between them.

    Under an *unmoderated* policy (write and suspend intervals both
    zero — the full-speed deploys the startup-latency figures measure),
    the retriever coalesces contiguous pristine (EMPTY) blocks into runs
    of up to ``coalesce_blocks`` and fetches each run as ONE bulk
    transaction — same bytes on the wire, one command/ack round trip and
    one server read instead of per-block events — and the writer lands
    each run with a single disk transaction and an atomic bitmap
    range-commit.  Moderated policies keep a per-block pipeline: each
    block lands as a one-block run, pacing stays per VMM write and the
    FIFO's lookahead stays at ``fifo_capacity`` blocks.
    """

    #: Idle poll granularity of both threads: an idle retriever or
    #: writer notices new work at the next tick of its poll grid.
    IDLE_POLL_SECONDS = 5e-3

    #: Max contiguous blocks fetched as one bulk transaction.
    DEFAULT_COALESCE_BLOCKS = 8

    def __init__(self, env: Environment, deployment: DeploymentContext,
                 mediator: DeviceMediator, fluid_state: FluidState,
                 policy: ModerationPolicy | None = None,
                 fifo_capacity: int = 4,
                 prefetch_blocks=None,
                 coalesce_blocks: int | None = None):
        self.env = env
        self.deployment = deployment
        self.mediator = mediator
        self.policy = policy or ModerationPolicy()
        #: The VMM's FluidState, checked per fetch so a runtime
        #: demotion (NAK, retransmit) flips the very next fetch back to
        #: packet mode.
        self.fluid_state = fluid_state
        self.coalesce_blocks = coalesce_blocks \
            if coalesce_blocks is not None else self.DEFAULT_COALESCE_BLOCKS
        if self.coalesce_blocks < 1:
            raise ValueError("coalesce_blocks must be positive")
        self.fifo: Store = Store(env, capacity=fifo_capacity)
        #: Blocks to copy first, exempt from moderation: the regions the
        #: OS reads while booting (paper 3.3's prefetch optimization).
        self.prefetch_blocks: list[int] = list(prefetch_blocks or ())
        self._retriever = None
        self._writer = None
        #: The writer process inside a mediated write, which ``stop()``
        #: lets finish: an interrupt there would leave the VMM's command
        #: executing on a device the mediator has handed back to the
        #: guest, and guest commands queued meanwhile never replayed.
        self._device_writer = None
        #: Fires when the whole image is on the local disk.
        self.done = env.event()
        self._next_sequential_block = 0
        # Metrics.
        self.blocks_filled = 0
        self.bytes_written = 0
        self.writeback_bytes = 0
        self.suspensions = 0
        self.fetch_errors = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.telemetry = deployment.telemetry
        registry = self.telemetry.registry
        self._m_blocks_filled = registry.gauge(
            "copy_blocks_filled",
            help="image blocks made local by the background copy")
        self._m_progress = registry.gauge(
            "copy_progress_ratio",
            help="fraction of the image present on the local disk")
        self._m_bytes_written = registry.counter(
            "copy_bytes_written_total",
            help="bytes the background copy wrote to the local disk")
        self._m_writeback_bytes = registry.counter(
            "copy_writeback_bytes_total",
            help="copy-on-read bytes persisted by the writer thread")
        self._m_suspensions = registry.counter(
            "copy_suspensions_total",
            help="moderation suspensions taken before VMM writes")
        self._m_fetch_errors = registry.counter(
            "copy_fetch_errors_total",
            help="block fetches abandoned after the AoE retry budget")
        self._m_throughput = registry.series(
            "copy_throughput_bytes_per_second", unit="B/s",
            help="background-copy write rate sampled per filled block")
        self._span = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self):
        if self._retriever is not None:
            raise RuntimeError("copier already started")
        self.started_at = self.env.now
        self._span = self.telemetry.tracer.start(
            "background-copy", self.deployment.span,
            blocks=self.deployment.bitmap.block_count)
        self._retriever = self.env.process(self._retrieve_loop(),
                                           name="copier-retriever")
        self._writer = self.env.process(self._write_loop(),
                                        name="copier-writer")
        return self.done

    def stop(self) -> None:
        """Stop both threads and hand back every claim they hold: the
        runs queued in the FIFO here, the run being fetched or paced by
        the thread that holds it when its interrupt arrives.  The FIFO
        is replaced, so a put still waiting for room never lands in a
        restarted copier's queue.

        A writer inside a mediated write is not interrupted: its write
        lands and commits (the mediator stays non-quiescent until it
        has), and the writer then exits.  Its blocks are never EMPTY
        while its data is still on the way to them."""
        for process in (self._retriever, self._writer):
            if process is not None and process.is_alive \
                    and process is not self._device_writer:
                process.interrupt("stop")
        self._retriever = None
        self._writer = None
        bitmap = self.deployment.bitmap
        for block, count, _runs, _is_prefetch in self.fifo.items:
            bitmap.release_run(block, count)
        self.fifo = Store(self.env, capacity=self.fifo.capacity)
        self._end_span()

    def _end_span(self) -> None:
        if self._span is not None:
            self.telemetry.tracer.end(
                self._span, blocks_filled=self.blocks_filled,
                bytes_written=self.bytes_written,
                writeback_bytes=self.writeback_bytes)
            self._span = None

    @property
    def running(self) -> bool:
        return self._writer is not None and self._writer.is_alive

    # -- retriever thread ----------------------------------------------------------------

    #: Backoff after a failed fetch (server unreachable) before retrying.
    FETCH_RETRY_BACKOFF_SECONDS = 2.0

    def _retrieve_loop(self):
        from repro.aoe.client import AoeTimeoutError
        bitmap = self.deployment.bitmap
        # The claimed run this thread still owns, and its FIFO put once
        # made: an accepted put hands the run to the FIFO.
        claim = put = None
        try:
            while not bitmap.complete:
                block, is_prefetch = self._next_block()
                if block is None:
                    # Everything claimed or filled; let the writer drain.
                    yield from self._idle(self._retriever_has_work)
                    continue
                # Prefetch blocks are individually chosen (boot working
                # set), so they are never coalesced with their
                # neighbors; moderated policies stay per-block (see the
                # class docstring).
                limit = self.coalesce_blocks \
                    if (not is_prefetch and self._unmoderated()) else 1
                claimed = bitmap.claim_run(block, limit)
                if claimed == 0:
                    continue
                claim, put = (block, claimed), None
                start = block * bitmap.block_sectors
                count = min(claimed * bitmap.block_sectors,
                            bitmap.image_sectors - start)
                span = self.telemetry.tracer.open(
                    "fetch-block", component="copier") \
                    if self.telemetry.tracer.profiling else None
                try:
                    try:
                        runs = yield from self.deployment.fetcher.read_blocks(
                            start, count, bulk=True,
                            fluid=self.fluid_state.active)
                    finally:
                        if span is not None:
                            self.telemetry.tracer.close(span)
                except AoeTimeoutError:
                    # Server unreachable: release the claims, back off,
                    # and keep trying — a degraded deployment stalls,
                    # it does not die (and resumes when the server is
                    # back).
                    bitmap.release_run(block, claimed)
                    claim = None
                    self.fetch_errors += 1
                    self._m_fetch_errors.inc()
                    yield self.env.timeout(
                        self.FETCH_RETRY_BACKOFF_SECONDS)
                    continue
                item = (block, claimed, runs, is_prefetch)
                if not (self.env.settled and self.fifo.try_put(item)):
                    # No room, or something else is due now: the put
                    # waits for room, or hands over through its event.
                    put = self.fifo.put(item)
                self.deployment.copy_work.notify()
                if put is not None:
                    yield put
                claim = None
        except Interrupt:
            # Stopped mid-fetch or waiting for FIFO room: nobody will
            # write this run, so its blocks go back to EMPTY.
            if claim is not None and (put is None or not put.triggered):
                bitmap.release_run(*claim)
            return

    def _next_block(self):
        """(block, is_prefetch): prefetch list first, then normal order."""
        bitmap = self.deployment.bitmap
        while self.prefetch_blocks:
            candidate = self.prefetch_blocks.pop(0)
            if bitmap.state(candidate) is BlockState.EMPTY:
                return candidate, True
        return self._pick_block(), False

    def _pick_block(self) -> int | None:
        """Low-to-high LBA order, but jump next to the guest's last
        access to minimize seeking (paper 3.3)."""
        bitmap = self.deployment.bitmap
        last_guest = self.deployment.last_guest_lba
        if last_guest is not None:
            preferred = bitmap.block_of(min(last_guest,
                                            bitmap.image_sectors - 1))
            self.deployment.last_guest_lba = None
        else:
            preferred = self._next_sequential_block
        block = bitmap.first_empty_from(preferred)
        if block is not None:
            self._next_sequential_block = block + 1 \
                if block + 1 < bitmap.block_count else 0
        return block

    # -- writer thread ---------------------------------------------------------------------

    def _write_loop(self):
        bitmap = self.deployment.bitmap
        writer = self.env.active_process
        landing = None   # the run taken from the FIFO, not yet written
        try:
            while True:
                if self._writer is not writer:
                    # Stopped while its last write was on the device.
                    return
                # Copy-on-read write-backs take priority: they make the
                # guest's own hot data local first.  They are moderated
                # like any other VMM write — a boot's worth of queued
                # write-backs must not starve the guest afterwards.
                writeback = self.deployment.pop_writeback()
                if writeback is not None:
                    yield from self._moderate()
                    yield from self._do_writeback(*writeback)
                    continue
                item = self.fifo.try_get()
                if item is not None:
                    block, count, runs, is_prefetch = item
                    landing = (block, count)
                    if not is_prefetch:
                        # Prefetch blocks skip moderation: copying the
                        # boot working set early IS the point.
                        yield from self._moderate()
                    # The retriever sized the run: one block under a
                    # moderated policy, so pacing stays per VMM write.
                    yield from self._write_run(block, count, runs)
                    landing = None
                    continue
                if bitmap.complete:
                    break
                yield from self._idle(self._writer_has_work)
        except Interrupt:
            # Stopped while pacing the run it took: nobody will write it.
            if landing is not None:
                bitmap.release_run(*landing)
            return
        self.finished_at = self.env.now
        self._end_span()
        self.telemetry.causal.mark("deploy-complete")
        if not self.done.triggered:
            self.done.succeed(self.env.now)

    # -- idle waits -------------------------------------------------------------------------

    def _idle(self, has_work):
        """Generator: wait for work as the thread's idle loop of
        ``IDLE_POLL_SECONDS`` timeouts would, returning at the tick at
        which that loop would find ``has_work()``: one event per idle
        stretch, planned when ``deployment.copy_work`` is notified."""
        yield from self.deployment.copy_work.poll(has_work,
                                                  self.IDLE_POLL_SECONDS)

    def _retriever_has_work(self) -> bool:
        """A block to claim (a claim was released) or nothing left."""
        bitmap = self.deployment.bitmap
        return bitmap.complete or bitmap.first_empty_from(0) is not None

    def _writer_has_work(self) -> bool:
        """A write-back or a fetched run to land, or nothing left."""
        return bool(self.deployment.writeback_queue or self.fifo.items
                    or self.deployment.bitmap.complete)

    def _unmoderated(self) -> bool:
        """True when the policy never paces writes — the only regime
        where run-coalescing is allowed to restructure the pipeline."""
        policy = self.policy
        return (policy.write_interval == 0.0
                and policy.suspend_interval == 0.0)

    def _moderate(self):
        """Paper 3.3's pacing rule, applied before each VMM write: if the
        guest's I/O frequency exceeds the threshold, wait the (long)
        suspend interval; otherwise wait the (short) write interval.  A
        busy guest therefore still concedes one VMM write per suspend
        interval — the residual interference Figure 10 measures."""
        policy = self.policy
        if policy.is_suspended(self.deployment):
            self.suspensions += 1
            if self.telemetry.registry.enabled:
                self._m_suspensions.inc()
            name, delay = "moderate-hold", policy.suspend_interval
        elif policy.write_interval > 0:
            name, delay = "moderate-pace", policy.write_interval
        else:
            return
        tracer = self.telemetry.tracer
        span = tracer.open(name, component="copier") \
            if tracer.profiling else None
        try:
            yield self.env.timeout(delay)
        finally:
            if span is not None:
                tracer.close(span)

    def _write_run(self, first_block: int, block_count: int, runs: list):
        """The one block writer: land fetched blocks in one disk write.

        THE atomic check (paper 3.3) runs after the mediator owns the
        device: the revalidation masks out everything the guest has
        written or filled by now, one still-COPYING stretch at a time —
        no later guest write can reach the disk before ours anymore (it
        would be queued and replayed after).  Afterwards each maximal
        still-COPYING stretch commits through ``commit_fill_run``;
        blocks the guest fully overwrote are the guest's and are
        skipped.
        """
        bitmap = self.deployment.bitmap
        for _, _, state in bitmap.state_runs(first_block, block_count):
            if state is not BlockState.FILLED:
                break
        else:
            # The guest overwrote every block mid-fetch: drop ours.  An
            # EMPTY block goes on to the lost-claim check below.
            return
        start = first_block * bitmap.block_sectors
        count = min(block_count * bitmap.block_sectors,
                    bitmap.image_sectors - start)
        request = BlockRequest(BlockOp.WRITE, start, count, origin="vmm")
        request.buffer.runs = list(runs)

        def revalidate(pending: BlockRequest) -> list:
            clean: list = []
            for stretch_start, stretch_end, state in bitmap.state_runs(
                    first_block, block_count):
                if state is not BlockState.COPYING:
                    continue
                for run_start, run_count in bitmap.writable_runs(
                        stretch_start, stretch_end - stretch_start):
                    clean.extend(clip_runs(runs, run_start, run_count))
            return clean

        # Disabled telemetry is skipped, not called.
        metered = self.telemetry.registry.enabled
        tracer = self.telemetry.tracer
        span = tracer.open("write-block", component="copier") \
            if tracer.profiling else None
        writer = self._device_writer = self.env.active_process
        try:
            yield from self.mediator.vmm_request(request, revalidate)
        finally:
            if self._device_writer is writer:
                self._device_writer = None
            if span is not None:
                tracer.close(span)
        written = 0
        for begin, end, _ in request.buffer.runs:
            written += end - begin
        self.bytes_written += written * params.SECTOR_BYTES
        if metered:
            self._m_bytes_written.inc(written * params.SECTOR_BYTES)
        for stretch_start, stretch_end, state in bitmap.state_runs(
                first_block, block_count):
            if state is BlockState.FILLED:
                # Guest full-block write recorded mid-transaction; its
                # replayed write lands after ours — the stretch is the
                # guest's now, committing it would be a violation.
                continue
            if state is not BlockState.COPYING:
                # EMPTY with our write completed means someone released
                # our claim out from under us: a protocol bug, not the
                # benign race above.
                raise RuntimeError(
                    f"copier lost its claim on block {stretch_start} "
                    f"(state is {state.value!r} after write)")
            bitmap.commit_fill_run(stretch_start,
                                   stretch_end - stretch_start)
            if metered:
                progress = bitmap.filled_count / bitmap.block_count
                rate = self.write_rate()
            for block in range(stretch_start, stretch_end):
                self.deployment.note_block_filled(block)
                self.blocks_filled += 1
                if metered:
                    self._m_blocks_filled.set(self.blocks_filled)
                    self._m_progress.set(progress)
                    self._m_throughput.record(self.env.now, rate)

    def _do_writeback(self, lba: int, sector_count: int, runs: list):
        """Persist data fetched by copy-on-read.

        The same atomic rule applies: sectors in FILLED blocks (already
        local, possibly guest-newest) and guest-dirty sectors are
        excluded at write time, under device ownership.
        """
        bitmap = self.deployment.bitmap
        request = BlockRequest(BlockOp.WRITE, lba, sector_count,
                               origin="vmm")
        request.buffer.runs = list(runs)

        def revalidate(pending: BlockRequest) -> list:
            clean: list = []
            cursor = lba
            end = lba + sector_count
            while cursor < end:
                block = bitmap.block_of(cursor)
                block_end = min((block + 1) * bitmap.block_sectors, end)
                if not bitmap.is_filled(block):
                    for start, stop, value in bitmap.dirty.runs_in(
                            cursor, block_end - cursor):
                        if value is None:
                            clean.extend(clip_runs(runs, start, stop - start))
                cursor = block_end
            return clean

        tracer = self.telemetry.tracer
        with tracer.span("write-back", tracer.current(self.deployment.span),
                         component="copier", lba=lba,
                         sectors=sector_count):
            writer = self._device_writer = self.env.active_process
            try:
                yield from self.mediator.vmm_request(request, revalidate)
            finally:
                if self._device_writer is writer:
                    self._device_writer = None
        written = sum(end - begin for begin, end, _ in
                      request.buffer.runs)
        self.writeback_bytes += written * params.SECTOR_BYTES
        self._m_writeback_bytes.inc(written * params.SECTOR_BYTES)

    # -- reporting ------------------------------------------------------------------------------

    @property
    def elapsed(self) -> float | None:
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None \
            else self.env.now
        return end - self.started_at

    def write_rate(self) -> float:
        """Average VMM write throughput so far, bytes/second."""
        elapsed = self.elapsed
        if not elapsed:
            return 0.0
        return (self.bytes_written + self.writeback_bytes) / elapsed

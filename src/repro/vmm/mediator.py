"""Device mediator base: the paper's core mechanism (Section 3.2).

A device mediator performs *device-interface-level I/O mediation*:

* **I/O interpretation** — watch the guest's register traffic and recover
  the context (command, status, data) without virtual devices;
* **I/O redirection** — block a guest read of not-yet-copied blocks,
  fetch the data from the server, place it in the guest's DMA buffer,
  then make the *real* device generate the completion interrupt by
  restarting the blocked command as a one-sector dummy read that hits
  the disk cache;
* **I/O multiplexing** — slip the VMM's own requests (background copy)
  into idle gaps, emulating idle status to the guest, queueing guest
  commands issued meanwhile, and detecting completion by polling with
  interrupts masked, so the guest never observes the VMM's I/O.

This module holds everything device-independent; the IDE and AHCI
subclasses add register-level mechanics only — which is why the paper's
mediators are so much smaller than device drivers.
"""

from __future__ import annotations

import enum

from repro.sim import Environment, Notifier, Resource
from repro.storage.blockdev import BlockOp, BlockRequest, SectorBuffer
from repro.vmm.deploy import DeploymentContext


class MediatorMode(enum.Enum):
    PASSTHROUGH = "passthrough"
    REDIRECTING = "redirecting"
    VMM_OWNED = "vmm-owned"


#: Registry of mediator classes by controller kind.  Adding support for
#: a new host controller means registering a new mediator here — the VMM
#: core is never modified (the paper's 4.3 claim, kept honest by
#: construction).
MEDIATOR_CLASSES: dict[str, type] = {}


def register_mediator(kind: str):
    """Class decorator: register a mediator for a controller kind."""
    def decorator(cls):
        if kind in MEDIATOR_CLASSES:
            raise ValueError(f"mediator for {kind!r} already registered")
        MEDIATOR_CLASSES[kind] = cls
        return cls
    return decorator


def mediator_for(env, machine, deployment):
    """Build the right mediator for the machine's disk controller."""
    controller = machine.disk_controller
    if controller is None:
        raise RuntimeError("machine has no disk controller")
    cls = MEDIATOR_CLASSES.get(controller.kind)
    if cls is None:
        raise TypeError(
            f"no device mediator registered for controller "
            f"{controller.kind!r} (have: {sorted(MEDIATOR_CLASSES)})")
    return cls(env, machine, deployment)


class DeviceMediator:
    """Device-independent mediation engine.

    Subclasses implement the register-level primitives:

    * ``_install_intercepts()`` / ``_uninstall_intercepts()``
    * ``_guest_buffer()`` -> the DMA buffer of the blocked guest command
    * ``_issue_to_device(request, buffer)`` -> program + start (root mode)
    * ``_device_done()`` -> has the VMM's raw request completed?
    * ``_ack_device()`` -> clear device completion state (root mode)
    * ``_save_guest_registers()`` / ``_restore_guest_registers()``
    * ``_deliver_dummy_completion()`` -> restart the blocked guest command
      as a dummy-sector read so the device interrupts for real
    * ``_replay_guest_command(snapshot)`` -> reissue a queued command
    """

    def __init__(self, env: Environment, machine,
                 deployment: DeploymentContext):
        self.env = env
        self.machine = machine
        self.deployment = deployment
        self.mode = MediatorMode.PASSTHROUGH
        self.installed = False
        #: Serializes redirects and VMM requests against each other.
        self._device_lock = Resource(env, capacity=1)
        #: Guest commands absorbed while the VMM owned the device.
        self._queued_commands: list = []
        #: Fires when a blocked guest command's redirect context is
        #: released (subclasses serialize those contexts on it).
        self._unblocked = Notifier(env)
        # Metrics (per paper terminology).
        self.interpreted_commands = 0
        self.redirected_reads = 0
        self.multiplexed_requests = 0
        self.queued_guest_commands = 0
        self.dummy_completions = 0
        # Labeled telemetry, shared through the deployment context.
        self.telemetry = deployment.telemetry
        registry = self.telemetry.registry
        controller = machine.disk_controller
        kind = controller.kind if controller is not None else "none"
        self.controller_kind = kind
        self._m_interpreted = registry.counter(
            "mediator_interpreted_commands_total", controller=kind,
            help="guest commands decoded from register traffic")
        self._m_redirected = registry.counter(
            "mediator_redirected_reads_total", controller=kind,
            help="guest reads served from the server (copy-on-read)")
        self._m_multiplexed = registry.counter(
            "mediator_multiplexed_requests_total", controller=kind,
            help="VMM requests slipped into device idle gaps")
        self._m_queued = registry.counter(
            "mediator_queued_commands_total", controller=kind,
            help="guest commands absorbed while the VMM owned the device")
        self._m_redirect_latency = registry.histogram(
            "mediated_read_latency_seconds", controller=kind,
            help="guest-visible latency of a redirected read")
        self._m_multiplex_latency = registry.histogram(
            "vmm_multiplexed_request_seconds", controller=kind,
            help="lock-to-release time of a VMM multiplexed request")

    # -- lifecycle ----------------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("mediator already installed")
        self._install_intercepts()
        self.installed = True

    def uninstall(self) -> None:
        """De-virtualization: remove every intercept.

        Refuses while mediation is mid-flight — the caller (the
        de-virtualizer) must wait for a consistent hardware state.
        """
        if not self.installed:
            return
        if self.mode is not MediatorMode.PASSTHROUGH \
                or self._queued_commands:
            raise RuntimeError(
                "cannot de-virtualize while mediation is in flight")
        self._uninstall_intercepts()
        self.installed = False

    @property
    def quiescent(self) -> bool:
        """True when nothing VMM-related is in flight on this device."""
        return (self.mode is MediatorMode.PASSTHROUGH
                and not self._queued_commands
                and self._device_lock.count == 0)

    # -- classification of interpreted guest commands ---------------------------------

    def classify(self, request: BlockRequest) -> str:
        """Decide what to do with an interpreted guest command.

        Returns one of ``"pass"``, ``"redirect"``, ``"queue"``,
        ``"protect"``.
        """
        self.interpreted_commands += 1
        self._m_interpreted.inc()
        self.deployment.note_guest_io(request.op, request.lba)
        is_protected = self.deployment.overlaps_protected(
            request.lba, request.sector_count)
        if request.op is BlockOp.WRITE and not is_protected:
            # Record the write NOW, before any queueing decision: a
            # write absorbed during VMM ownership lands on the disk only
            # at replay, but the bitmap must already protect it from the
            # background copy (the 3.3 race, queued-write variant).
            self.deployment.bitmap.record_guest_write(request.lba,
                                                      request.sector_count)
        if self.mode is MediatorMode.VMM_OWNED:
            return "queue"
        if is_protected:
            return "protect"
        if request.op is BlockOp.WRITE:
            return "pass"
        # Reads beyond the image are ordinary disk traffic.
        if request.lba >= self.deployment.bitmap.image_sectors:
            return "pass"
        if self.deployment.bitmap.sectors_local(request.lba,
                                                request.sector_count):
            return "pass"
        return "redirect"

    def queue_guest_command(self, snapshot) -> None:
        self._queued_commands.append(snapshot)
        self.queued_guest_commands += 1
        self._m_queued.inc()

    # -- I/O redirection (copy-on-read) ---------------------------------------------------

    def redirect(self, request: BlockRequest):
        """Generator: serve a blocked guest read from the server.

        The guest command has already been absorbed; the guest is waiting
        on what it believes is a busy device.
        """
        bitmap = self.deployment.bitmap
        started = self.env.now
        span = self.telemetry.tracer.start(
            "mediated-read", lba=request.lba,
            sectors=request.sector_count)
        with self._device_lock.request() as grant, \
                self.telemetry.profiler.track("mediator", "redirect"):
            yield grant
            self.mode = MediatorMode.REDIRECTING
            try:
                # 1. Retrieve the data from the server.
                server_runs = yield from self.deployment.fetch(
                    request.lba, request.sector_count)
                # 2. Overlay locally authoritative sectors (guest-dirty,
                #    or blocks already filled) by reading the local disk.
                local = list(bitmap.local_subranges(request.lba,
                                                    request.sector_count))
                merged = _RunComposer(request.lba, request.sector_count,
                                      server_runs)
                if local:
                    yield from self._read_local_overlays(local, merged)
                # 3. Copy into the guest's DMA buffer (the mediator acts
                #    as a virtual DMA controller).
                buffer = self._guest_buffer()
                buffer.lba = request.lba
                buffer.sector_count = request.sector_count
                buffer.runs = merged.runs()
                # 4. Persist the fetched data locally for future use.
                self.deployment.enqueue_writeback(
                    request.lba, request.sector_count, server_runs)
                # 5. Make the real device interrupt: dummy-sector restart.
                self.dummy_completions += 1
                self._deliver_dummy_completion()
                self.redirected_reads += 1
                self._m_redirected.inc()
            finally:
                self.mode = MediatorMode.PASSTHROUGH
                self.telemetry.tracer.end(span)
                self._m_redirect_latency.observe(self.env.now - started)
        # Replay anything the guest issued while we were redirecting
        # (possible if the guest OS overlaps I/O across CPUs).
        yield from self._drain_queue()

    def _read_local_overlays(self, local, composer):
        """Fetch locally authoritative subranges with masked interrupts.

        Uses the same take-over discipline as :meth:`vmm_request`: save
        the guest-visible register state, issue raw, acknowledge the
        device after every read, and restore on the way out — otherwise
        the device is left pointing at VMM structures with interrupts
        silenced and the guest's dummy completion never fires.
        """
        interrupts = self.machine.interrupts
        line = self.irq_line
        # A completion the *guest* is owed may already be pending (raised
        # before its ISR got to wait).  Only drop what our own request
        # adds.
        guest_owed = interrupts.is_pending(line)
        interrupts.mask(line)
        self._save_guest_registers()
        try:
            for start, count in local:
                overlay = BlockRequest(BlockOp.READ, start, count,
                                       origin="vmm")
                buffer = SectorBuffer(start, count)
                yield from self._issue_raw_and_poll(overlay, buffer)
                self._ack_device()
                composer.overlay(buffer.runs)
        finally:
            self._restore_guest_registers()
            if not guest_owed:
                interrupts.clear_pending(line)
            interrupts.unmask(line)

    # -- I/O multiplexing (VMM-issued requests) ---------------------------------------------

    def vmm_request(self, request: BlockRequest, revalidate=None):
        """Generator: execute the VMM's own disk request transparently.

        ``revalidate``, if given, is called with the request *after* the
        VMM owns the device — the instant at which no guest command can
        slip in underneath — and must return the content runs that are
        still safe to write (empty list aborts the write).  This is the
        paper 3.3 "atomically checks the status" step: any check done
        earlier can be invalidated by a guest write that reaches the
        device while the VMM is still waiting for it to go idle.
        """
        request.origin = "vmm"
        started = self.env.now
        span = self.telemetry.tracer.start(
            "vmm-request", op=request.op.value, lba=request.lba,
            sectors=request.sector_count)
        with self._device_lock.request() as grant, \
                self.telemetry.profiler.track("mediator", "vmm-request"):
            yield grant
            # 1. Find proper timing: wait until the device is idle.
            yield from self._wait_device_idle()
            self.mode = MediatorMode.VMM_OWNED
            interrupts = self.machine.interrupts
            # Preserve any completion the guest is still owed: only the
            # interrupt *our* request generates may be dropped.
            guest_owed = interrupts.is_pending(self.irq_line)
            interrupts.mask(self.irq_line)
            self._save_guest_registers()
            try:
                safe = True
                if revalidate is not None:
                    request.buffer.runs = revalidate(request)
                    safe = bool(request.buffer.runs)
                if safe:
                    # 2. Issue and poll with interrupts suppressed.
                    yield from self._issue_raw_and_poll(request,
                                                        request.buffer)
                    self.multiplexed_requests += 1
                    self._m_multiplexed.inc()
            finally:
                # 3. Hide all evidence: ack the device, restore the
                #    guest-visible register state, drop the suppressed
                #    interrupt, re-enable delivery.
                self._ack_device()
                self._restore_guest_registers()
                if not guest_owed:
                    interrupts.clear_pending(self.irq_line)
                interrupts.unmask(self.irq_line)
                self.mode = MediatorMode.PASSTHROUGH
                self.telemetry.tracer.end(span)
                self._m_multiplex_latency.observe(self.env.now - started)
        # 4. Send queued guest requests to the device.
        yield from self._drain_queue()
        return request

    def _issue_raw_and_poll(self, request: BlockRequest,
                            buffer: SectorBuffer):
        # The controller stamps decoded requests with request_origin;
        # while the VMM owns the device, commands are the VMM's.  The
        # device lock guarantees no guest command executes inside this
        # window (queued ones replay after restore, as the guest).
        controller = self.machine.disk_controller
        controller.request_origin = "vmm"
        try:
            self._issue_to_device(request, buffer)
            yield from self._await(self._device_done, controller.completion)
        finally:
            controller.request_origin = "guest"

    def _wait_device_idle(self):
        yield from self._await(lambda: not self._device_busy(),
                               self.machine.disk_controller.completion)

    def _await(self, predicate, notifier):
        """Generator: return at the first poll tick at which
        ``predicate()`` holds, ticks counted from the call instant.

        The paper's VMM polls with interrupts masked on the preemption
        timer; this finds the tick at which that loop would notice the
        change without an event per tick.  ``predicate`` may only turn
        true when ``notifier`` fires (a controller completion, or the
        release of a blocked context).  The predicate is re-checked at
        every tick it returns on: the guest may make the device busy
        again between the notification and the tick.  The VM exits the
        polls cost are bulk-accounted by the VMM at de-virtualization.
        """
        if predicate():
            return
        env = self.env
        poll = self.deployment.poll_interval
        # A request that finishes within one tick costs one timeout.
        tick = env.now + poll
        yield env.timeout(poll)
        while not predicate():
            tick += poll
            yield notifier.wait()
            # Tick by tick, so the float instants are the ones a loop of
            # poll timeouts reaches; ``tick - now`` is exact (Sterbenz),
            # so the timeout lands on ``tick`` itself.
            now = env.now
            while tick < now:
                tick += poll
            yield env.timeout(tick - now)

    def _drain_queue(self):
        while self._queued_commands:
            snapshot = self._queued_commands.pop(0)
            yield from self._replay_guest_command(snapshot)

    # -- protected-region handling -----------------------------------------------------------

    def protect_access(self, request: BlockRequest):
        """Generator: guest touched the bitmap save region.

        Paper 3.3: converted to a dummy-sector read; writes are dropped,
        reads return dummy data.
        """
        if request.op is BlockOp.READ:
            buffer = self._guest_buffer()
            buffer.lba = request.lba
            buffer.sector_count = request.sector_count
            buffer.fill_constant(None)
        self.dummy_completions += 1
        self._deliver_dummy_completion()
        yield self.env.timeout(0)

    # -- subclass responsibilities ------------------------------------------------------------

    irq_line: int = 0

    def _install_intercepts(self) -> None:
        raise NotImplementedError

    def _uninstall_intercepts(self) -> None:
        raise NotImplementedError

    def _guest_buffer(self) -> SectorBuffer:
        raise NotImplementedError

    def _issue_to_device(self, request: BlockRequest,
                         buffer: SectorBuffer) -> None:
        raise NotImplementedError

    def _device_done(self) -> bool:
        raise NotImplementedError

    def _device_busy(self) -> bool:
        raise NotImplementedError

    def _ack_device(self) -> None:
        raise NotImplementedError

    def _save_guest_registers(self) -> None:
        raise NotImplementedError

    def _restore_guest_registers(self) -> None:
        raise NotImplementedError

    def _deliver_dummy_completion(self) -> None:
        raise NotImplementedError

    def _replay_guest_command(self, snapshot):
        raise NotImplementedError


class _RunComposer:
    """Merges server-fetched runs with locally authoritative overlays."""

    def __init__(self, lba: int, sector_count: int, base_runs: list):
        from repro.util.intervalmap import IntervalMap
        self.lba = lba
        self.sector_count = sector_count
        self._map = IntervalMap()
        for start, end, token in base_runs:
            if token is not None:
                self._map.set_range(start, end - start, token)

    def overlay(self, runs: list) -> None:
        for start, end, token in runs:
            if token is not None:
                self._map.set_range(start, end - start, token)
            else:
                self._map.clear_range(start, end - start)

    def runs(self) -> list:
        return list(self._map.runs_in(self.lba, self.sector_count))

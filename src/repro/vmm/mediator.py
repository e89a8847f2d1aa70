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

This module holds everything device-independent, including the one
redirect/protect decision (:meth:`DeviceMediator.action_for`) for fresh
and replayed commands and the one blocked-command path; the IDE and
AHCI subclasses add register-level mechanics only — which is why the
paper's mediators are so much smaller than device drivers.
"""

from __future__ import annotations

import enum

from repro.sim import Environment, Notifier, Request, Resource
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
        cls.kind = kind
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

    #: Controller kind mediated; set by :func:`register_mediator`.
    kind: str = ""

    def __init__(self, env: Environment, machine,
                 deployment: DeploymentContext):
        self.env = env
        self.machine = machine
        self.deployment = deployment
        self.controller = machine.disk_controller
        if self.controller.kind != self.kind:
            raise TypeError(f"{type(self).__name__} requires a "
                            f"{self.kind!r} controller")
        self.irq_line = self.controller.irq_line
        self.mode = MediatorMode.PASSTHROUGH
        self.installed = False
        #: Serializes redirects and VMM requests against each other.
        self._device_lock = Resource(env, capacity=1)
        #: Guest commands absorbed while the VMM owned the device.
        self._queued_commands: list = []
        #: The guest command being redirected or protected, as the
        #: subclass names it (a command slot, a frame address, the
        #: request itself).  ``None`` when no command is blocked.
        self._blocked = None
        #: Fires when the blocked command is released.
        self._unblocked = Notifier(env)
        #: A dummy-sector target for restarted reads (1 sector is
        #: enough; the buffer is block-sized for local overlay reads).
        self._dummy_buffer = SectorBuffer(0, 65536)
        self._dummy_address = machine.hostmem.allocate(self._dummy_buffer)
        # Metrics (per paper terminology).
        self.interpreted_commands = 0
        self.redirected_reads = 0
        self.multiplexed_requests = 0
        self.queued_guest_commands = 0
        self.dummy_completions = 0
        # Labeled telemetry, shared through the deployment context.
        self.telemetry = deployment.telemetry
        registry = self.telemetry.registry
        # Disabled telemetry is skipped, not called.
        self._metered = registry.enabled
        self._traced = self.telemetry.tracer.enabled
        kind = self.kind
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
        #: Every trapped register access — the raw interpretation
        #: workload (paper Table 1's "I/O interpretation" cost driver).
        self._m_intercepts = registry.counter(
            "mediator_io_intercepts_total", controller=kind,
            help="trapped guest accesses to the controller's registers")

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

        Returns ``"queue"`` while the VMM owns the device, otherwise
        :meth:`action_for`'s answer.
        """
        self.interpreted_commands += 1
        self._m_interpreted.inc()
        self.deployment.note_guest_io(request.op, request.lba)
        action = self.action_for(request)
        if request.op is BlockOp.WRITE and action == "pass":
            # Record the write NOW, before any queueing decision: a
            # write absorbed during VMM ownership lands on the disk only
            # at replay, but the bitmap must already protect it from the
            # background copy (the 3.3 race, queued-write variant).
            self.deployment.bitmap.record_guest_write(request.lba,
                                                      request.sector_count)
        if self.mode is MediatorMode.VMM_OWNED:
            return "queue"
        return action

    def action_for(self, request: BlockRequest) -> str:
        """The redirect/protect decision, free of side effects.

        ``"protect"`` for anything touching the bitmap-save region,
        ``"redirect"`` for an image read not wholly local, otherwise
        ``"pass"``.  Fresh and replayed commands both decide here.
        """
        deployment = self.deployment
        if deployment.overlaps_protected(request.lba, request.sector_count):
            return "protect"
        if request.op is BlockOp.WRITE:
            return "pass"
        bitmap = deployment.bitmap
        # Reads beyond the image are ordinary disk traffic.
        if request.lba >= bitmap.image_sectors \
                or bitmap.sectors_local(request.lba, request.sector_count):
            return "pass"
        return "redirect"

    def queue_guest_command(self, snapshot) -> None:
        self._queued_commands.append(snapshot)
        self.queued_guest_commands += 1
        self._m_queued.inc()

    # -- the blocked guest command ------------------------------------------------------------

    def _claim_blocked(self, handle):
        """Generator: make ``handle`` the blocked command.

        Hooks are re-entrant across guest processes (several command
        slots, several posted frames), but the engine serves one
        blocked command at a time, so a second one waits for the
        first's release.
        """
        yield from self._await(lambda: self._blocked is None,
                               self._unblocked)
        self._blocked = handle

    def _serve_blocked(self, request: BlockRequest, action: str):
        """Generator: redirect or protect the blocked command, then
        release it.  Status reads emulate a busy device until then."""
        try:
            if action == "redirect":
                yield from self.redirect(request)
            else:
                yield from self.protect_access(request)
        finally:
            self._blocked = None
            self._unblocked.notify()

    # -- I/O redirection (copy-on-read) ---------------------------------------------------

    def redirect(self, request: BlockRequest):
        """Generator: serve a blocked guest read from the server.

        The guest command has already been absorbed; the guest is waiting
        on what it believes is a busy device.
        """
        bitmap = self.deployment.bitmap
        started = self.env.now
        tracer = self.telemetry.tracer
        grant = Request(self._device_lock, queue=False)
        with grant, tracer.span("mediated-read",
                                tracer.current(self.deployment.span),
                                component="mediator", lba=request.lba,
                                sectors=request.sector_count):
            if not self._device_lock.acquire(grant):
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
        controller = self.controller
        controller.request_origin = "vmm"
        try:
            for start, count in local:
                overlay = BlockRequest(BlockOp.READ, start, count,
                                       origin="vmm")
                buffer = SectorBuffer(start, count)
                self._issue_to_device(overlay, buffer)
                yield from self._await(self._device_done,
                                       controller.completion)
                self._ack_device()
                composer.overlay(buffer.runs)
        finally:
            controller.request_origin = "guest"
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
        lock = self._device_lock
        grant = Request(lock, queue=False)
        span = None
        if self._traced:
            tracer = self.telemetry.tracer
            span = tracer.open("vmm-request",
                               tracer.current(self.deployment.span),
                               component="mediator", op=request.op.value,
                               lba=request.lba,
                               sectors=request.sector_count)
        try:
            if not lock.acquire(grant):
                yield grant
            if self._device_busy():
                # 1. Find proper timing: wait until the device is idle.
                yield from self._wait_device_idle()
            self.mode = MediatorMode.VMM_OWNED
            interrupts = self.machine.interrupts
            # Preserve any completion the guest is still owed: only the
            # interrupt *our* request generates may be dropped.
            guest_owed = interrupts.is_pending(self.irq_line)
            interrupts.mask(self.irq_line)
            self._save_guest_registers()
            # The controller stamps decoded requests with
            # request_origin; while the VMM owns the device, commands
            # are the VMM's.  The device lock guarantees no guest
            # command executes inside this window (queued ones replay
            # after restore, as the guest).
            controller = self.controller
            controller.request_origin = "vmm"
            try:
                safe = True
                if revalidate is not None:
                    request.buffer.runs = revalidate(request)
                    safe = bool(request.buffer.runs)
                if safe:
                    # 2. Issue and poll with interrupts suppressed.
                    self._issue_to_device(request, request.buffer)
                    yield from self._await(self._device_done,
                                           controller.completion)
                    self.multiplexed_requests += 1
                    if self._metered:
                        self._m_multiplexed.inc()
            finally:
                # 3. Hide all evidence: ack the device, restore the
                #    guest-visible register state, drop the suppressed
                #    interrupt, re-enable delivery.
                controller.request_origin = "guest"
                self._ack_device()
                self._restore_guest_registers()
                if not guest_owed:
                    interrupts.clear_pending(self.irq_line)
                interrupts.unmask(self.irq_line)
                self.mode = MediatorMode.PASSTHROUGH
                if self._metered:
                    self._m_multiplex_latency.observe(
                        self.env.now - started)
        finally:
            if span is not None:
                tracer.close(span)
            lock.release(grant)
        # 4. Send queued guest requests to the device.
        if self._queued_commands:
            yield from self._drain_queue()
        return request

    def _wait_device_idle(self):
        yield from self._await(lambda: not self._device_busy(),
                               self.machine.disk_controller.completion)

    def _await(self, predicate, notifier):
        """Generator: the VMM's poll loop, every
        ``deployment.poll_interval``, until ``predicate()`` holds: a
        first-tick timeout, then :meth:`Notifier.poll` on ``notifier``
        from that tick.  The polls' VM exits are bulk-accounted by the
        VMM at de-virtualization."""
        if predicate():
            return
        poll = self.deployment.poll_interval
        # Notifier.poll alone would find the same tick.  The first tick
        # stays a timeout one poll long because perfbench counts those
        # as ``vmm.poll_timeouts`` and its trace test expects some.
        # For the same reason it is not an ``Environment.elapse``: a
        # tick advanced in place schedules nothing for perfbench to
        # count, and the count would fall with the event set instead of
        # with the poll waits.
        yield self.env.timeout(poll)
        yield from notifier.poll(predicate, poll)

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
        return self._map.runs_in(self.lba, self.sector_count)

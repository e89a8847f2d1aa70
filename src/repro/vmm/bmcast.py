"""BMcast: the de-virtualizable deployment VMM (the paper's system).

Lifecycle (paper 3.1, Figure 1):

* **initialization** — network-boot the tiny VMM (~5 s), VMXON every
  CPU, reserve VMM memory by carving the BIOS map, enable identity-mapped
  nested paging with the mediated device's MMIO/PIO trapped, install the
  device mediator, connect to the storage server.
* **deployment** — the guest boots and runs with direct hardware access;
  copy-on-read redirects reads of empty blocks; the background copier
  streams the rest of the image, moderated.
* **de-virtualization** — once the bitmap is complete, tear everything
  down seamlessly (see :mod:`repro.vmm.devirt`).
* **bare-metal** — the VMM is gone; zero overhead.
"""

from __future__ import annotations

from repro import params
from repro.aoe.client import AoeInitiator
from repro.hw.cpu import ExitReason
from repro.hw.platform import PlatformCondition
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.copier import BackgroundCopier
from repro.vmm.deploy import DeploymentContext
from repro.vmm.devirt import Devirtualizer
from repro.vmm.mediator import mediator_for
# Importing the mediator modules registers them with the VMM core.
from repro.vmm import mediator_ahci  # noqa: F401
from repro.vmm import mediator_ide  # noqa: F401
from repro.vmm import mediator_megaraid  # noqa: F401
from repro.vmm.moderation import ModerationPolicy


#: Condition published while BMcast is deploying.
DEPLOY_CONDITION = PlatformCondition(
    label="bmcast-deploy",
    nested_paging=True,
    vmm_cpu_fraction=params.BMCAST_DEPLOY_CPU_FRACTION,
    # The 12-core machine mostly absorbs the deployment threads on idle
    # cores (paper 5.2: the 6% total CPU cost shaves throughput ~5%, not
    # the full 6% + TLB cost, because the workload is not core-saturated).
    vmm_cpu_contention=0.35,
    ib_latency_factor=params.BMCAST_IB_LATENCY_FACTOR,
)

#: Condition after de-virtualization: identical to bare metal.
DEVIRT_CONDITION = PlatformCondition(label="bmcast-devirt")


class BmcastVmm:
    """One BMcast instance managing one machine."""

    def __init__(self, env: Environment, machine, vmm_nic, server: str,
                 image_sectors: int,
                 policy: ModerationPolicy | None = None,
                 poll_interval: float | None = None,
                 vmxoff_mode: str = "full",
                 management_nic_slot: int | None = None,
                 boot_seconds: float = params.BMCAST_VMM_BOOT_SECONDS,
                 auto_devirtualize: bool = True,
                 resume: bool = False,
                 release_memory: bool = False,
                 prefetch_lbas=None,
                 extra_mediators=(),
                 fabric=None,
                 peer_nic=None,
                 fluid: bool = False,
                 coalesce_blocks: int | None = None,
                 initial_rto: float | None = None,
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.machine = machine
        self.vmm_nic = vmm_nic
        self.boot_seconds = boot_seconds
        self.auto_devirtualize = auto_devirtualize
        #: Resume a previously interrupted deployment from the on-disk
        #: bitmap (paper 3.3's shutdown-and-reboot case).
        self.resume = resume
        self.resumed_from_disk = False
        #: Memory hot-plug extension (paper 4.3 lists the prototype's
        #: failure to return the 128 MB as a fixable limitation): give
        #: the reservation back to the guest at de-virtualization.
        self.release_memory = release_memory

        if poll_interval is None:
            if machine.spec.has_preemption_timer:
                poll_interval = params.POLL_INTERVAL_SECONDS
            else:
                # Soft-timer fallback: coarser polling (paper 4.1).
                poll_interval = params.SOFT_TIMER_INTERVAL_SECONDS
        self.poll_interval = poll_interval

        #: Metrics registry + span tracer (opt-in; see repro.obs).
        self.telemetry = telemetry
        #: Parent for this VMM's phase spans: whatever deployment span
        #: is ambient at construction (the provisioner's root), if any.
        self._span_parent = telemetry.tracer.ambient
        self._phase_span = None
        # Fleet-deploy profiles raise the cold-start RTO (TCP-style):
        # a multi-megabyte coalesced fetch takes longer than the 50 ms
        # protocol default, and Karn's rule keeps the estimator cold
        # while every transaction retransmits — a storm, not a signal.
        rto_kwargs = {} if initial_rto is None \
            else {"initial_rto": initial_rto}
        self.initiator = AoeInitiator(env, vmm_nic, server,
                                      poll_interval=poll_interval,
                                      telemetry=telemetry, **rto_kwargs)
        self.bitmap = BlockBitmap(image_sectors)
        self.deployment = DeploymentContext(
            env, self.bitmap, self.initiator,
            poll_interval=poll_interval,
            protected_lba=image_sectors + 8,
            protected_sectors=64,
            telemetry=telemetry,
        )
        #: Distribution fabric (repro.dist): route fetches through a
        #: replica selector, and optionally serve local blocks to peers.
        self.fabric = fabric
        self.router = None
        self.peer_service = None
        if fabric is not None:
            from repro.dist.router import FetchRouter
            self.router = FetchRouter(env, self.initiator, fabric,
                                      node_port=vmm_nic.name,
                                      telemetry=telemetry)
            self.deployment.fetcher = self.router
            if fabric.p2p and peer_nic is not None:
                from repro.dist.peer import PeerChunkService
                self.peer_service = PeerChunkService(
                    env, peer_nic, machine.disk_controller.disk,
                    self.bitmap, fabric.directory, telemetry=telemetry)
                self.deployment.block_filled_listeners.append(
                    self.peer_service.note_block_filled)
        #: Copy blocks a guest write has touched: their on-disk content
        #: no longer matches the image.  Mirrors the peer service's
        #: taint signals but is always on, so the reclaim path
        #: (repro.ctl) can compute the warm/preserve set on non-p2p
        #: testbeds too.  Pre-devirt writes arrive mediated (bitmap
        #: listener); post-devirt direct I/O arrives via the disk
        #: observer, gated on the flag set at de-virtualization.
        self.tainted_blocks: set[int] = set()
        self._direct_io_taint = False
        self.bitmap.guest_write_listeners.append(self._taint_range)
        machine.disk_controller.disk.write_observers.append(
            self._taint_direct_write)
        self.mediator = self._build_mediator()
        prefetch_blocks = None
        if prefetch_lbas:
            seen = set()
            prefetch_blocks = []
            for lba in prefetch_lbas:
                block = self.bitmap.block_of(lba)
                if block not in seen:
                    seen.add(block)
                    prefetch_blocks.append(block)
        #: Fluid-flow opt-in (repro.net.flow): armed at boot, demoted
        #: permanently the moment any fidelity-bearing dynamic engages.
        from repro.net.flow import FluidState
        self.fluid = FluidState(requested=fluid, telemetry=telemetry)
        self.copier = BackgroundCopier(env, self.deployment, self.mediator,
                                       policy=policy,
                                       prefetch_blocks=prefetch_blocks,
                                       coalesce_blocks=coalesce_blocks,
                                       fluid_state=self.fluid)
        #: Additional mediators (e.g. a shared-NIC mediator, paper 6)
        #: installed at boot and removed at de-virtualization.
        self.extra_mediators = list(extra_mediators)
        self.devirtualizer = Devirtualizer(
            env, machine, [self.mediator] + self.extra_mediators,
            vmxoff_mode=vmxoff_mode,
            management_nic_slot=management_nic_slot)

        self.phase = "off"
        self.phase_log: list[tuple[float, str]] = [(env.now, "off")]
        self._devirt_watcher = None

    # -- bitmap persistence (paper 3.3: saved to an unused disk region) --------

    #: Token tag identifying an on-disk bitmap save.
    BITMAP_TOKEN = "bmcast-bitmap"

    def persist_bitmap(self):
        """Generator: write the bitmap snapshot to the protected region.

        Survives shutdown/reboot mid-deployment; the region is invisible
        to the guest (reads are converted to dummy data).
        """
        from repro.storage.blockdev import BlockOp, BlockRequest
        snapshot = self.bitmap.snapshot()
        lba = self.deployment.protected_lba
        count = self.deployment.protected_sectors
        request = BlockRequest(BlockOp.WRITE, lba, count, origin="vmm")
        request.buffer.runs = [(lba, lba + count,
                                (self.BITMAP_TOKEN, snapshot))]
        yield from self.mediator.vmm_request(request)

    def load_saved_bitmap(self):
        """Generator: read a previously persisted bitmap, or ``None``."""
        from repro.storage.blockdev import BlockOp, BlockRequest
        lba = self.deployment.protected_lba
        count = self.deployment.protected_sectors
        request = BlockRequest(BlockOp.READ, lba, count, origin="vmm")
        yield from self.machine.disk_controller.disk.execute(request)
        for _, _, token in request.buffer.runs:
            if (isinstance(token, tuple) and len(token) == 2
                    and token[0] == self.BITMAP_TOKEN):
                return token[1]
        return None

    def shutdown(self):
        """Generator: graceful power-off mid-deployment.

        Stops the copier, saves the bitmap to disk (paper 3.3's
        shutdown/reboot case), and tears the VMM down so the machine can
        power off.  A later VMM boot with ``resume=True`` continues from
        the saved state instead of refetching filled blocks.
        """
        if self.phase != "deployment":
            raise RuntimeError(f"cannot shut down from {self.phase!r}")
        self.copier.stop()
        # Let any in-flight mediation settle.
        while not self.mediator.quiescent:
            yield self.env.timeout(1e-3)
        yield from self.persist_bitmap()
        if self.peer_service is not None:
            self.peer_service.stop()
        self.initiator.stop()
        self.mediator.uninstall()
        for cpu in self.machine.cpus:
            cpu.npt.disable()
            cpu.vmxoff()
        self.machine.memory.release(self.reserved_region)
        self.machine.set_condition(DEVIRT_CONDITION.with_(label="off"))
        self._enter_phase("off")

    def _build_mediator(self):
        return mediator_for(self.env, self.machine, self.deployment)

    # -- image-content provenance (the reclaim path's warm set) ---------------

    def _taint_range(self, lba: int, sector_count: int) -> None:
        if lba >= self.bitmap.image_sectors:
            return  # bitmap-save region, not image data
        for block in self.bitmap.blocks_overlapping(lba, sector_count):
            self.tainted_blocks.add(block)

    def _taint_direct_write(self, request) -> None:
        if self._direct_io_taint:
            self._taint_range(request.lba, request.sector_count)

    def pristine_blocks(self) -> set[int]:
        """FILLED copy blocks whose disk content still equals the image.

        The reclaim path preserves exactly this set: a reclaimed node
        re-deploying the same image may trust these blocks as already
        local, and may serve them to peers, because no guest write ever
        touched them.
        """
        return {
            block
            for start, end, _ in self.bitmap.filled_runs()
            for block in range(start, end)
            if block not in self.tainted_blocks
        }

    # -- phase machine ------------------------------------------------------------------

    def _enter_phase(self, phase: str) -> None:
        self.phase = phase
        self.phase_log.append((self.env.now, phase))
        # One phase span open at a time; new work (AoE round-trips,
        # mediated commands, the copier) attaches to the current phase.
        spans = self.telemetry.tracer
        if self._phase_span is not None:
            spans.end(self._phase_span)
        self._phase_span = spans.start(f"phase:{phase}",
                                       parent=self._span_parent)
        spans.ambient = self._phase_span

    def phase_at(self, time: float) -> str:
        current = self.phase_log[0][1]
        for stamp, phase in self.phase_log:
            if stamp <= time:
                current = phase
            else:
                break
        return current

    # -- initialization phase ---------------------------------------------------------------

    def boot(self):
        """Generator: the initialization phase.

        The machine's firmware must already be initialized (the
        provisioner network-boots the VMM).  Afterwards the guest may be
        started; the deployment phase is active.
        """
        self._enter_phase("initialization")
        # Tiny VMM, parallelized init: ~5 s total (paper 5.1), which
        # covers PXE load, VMX setup, and NIC bring-up.
        yield self.env.timeout(self.boot_seconds)

        # Reserve VMM memory by carving the BIOS map (paper 3.4) and
        # protect it with nested paging.
        memory = self.machine.memory
        reserve_start = memory.size_bytes - params.VMM_RESERVED_BYTES
        self.reserved_region = memory.reserve(reserve_start,
                                              params.VMM_RESERVED_BYTES)
        for cpu in self.machine.cpus:
            cpu.npt.protect(reserve_start, params.VMM_RESERVED_BYTES)
            cpu.vmxon()
            cpu.npt.enable()

        # Install the device mediator (this also registers the MMIO trap
        # ranges on the nested page tables) and enter the guest.
        self.mediator.install()
        for mediator in self.extra_mediators:
            mediator.install()

        if self.resume:
            snapshot = yield from self.load_saved_bitmap()
            if snapshot is not None:
                self.bitmap.load_snapshot(snapshot)
                self.resumed_from_disk = True

        for cpu in self.machine.cpus:
            cpu.vmenter()

        self.initiator.start()
        if self.peer_service is not None:
            self.peer_service.start()
        self.machine.set_condition(DEPLOY_CONDITION)
        self._enter_phase("deployment")
        if self.fluid.requested:
            self._fluid_arm()
        self.copier.start()
        if self.auto_devirtualize:
            self._devirt_watcher = self.env.process(
                self._watch_for_completion(), name="bmcast-devirt-watcher")

    # -- fluid-flow fast path (repro.net.flow) ----------------------------------------------------

    def _fluid_arm(self) -> None:
        """Engage fluid transfers iff no fidelity-bearing dynamic is on.

        Static demotion triggers are evaluated here, at deployment
        start; runtime triggers (NAK / timeout / retransmission) demote
        via the initiator observer so the very next copier fetch falls
        back to the exact per-packet path.
        """
        policy = self.copier.policy
        if policy.write_interval != 0.0 or policy.suspend_interval != 0.0:
            self.fluid.demote("moderation")
        loss = getattr(self.vmm_nic.switch, "loss", None)
        if loss is not None and loss.loss_probability > 0.0:
            self.fluid.demote("loss-injection")
        if self.fabric is not None and self.fabric.p2p:
            self.fluid.demote("peer-gossip")
        if self.fluid.engage():
            self.initiator.observers.append(self._fluid_observer)

    def _fluid_observer(self, kind: str, **fields) -> None:
        if not self.fluid.active:
            return
        if kind == "nak":
            self.fluid.demote("nak")
        elif kind == "timeout":
            self.fluid.demote("timeout")
        elif kind == "send" and fields.get("retransmit"):
            self.fluid.demote("retransmission")

    # -- deployment -> de-virtualization ---------------------------------------------------------

    def _watch_for_completion(self):
        yield self.copier.done
        yield from self.devirtualize()

    def devirtualize(self):
        """Generator: run the de-virtualization phase now."""
        if self.phase != "deployment":
            raise RuntimeError(f"cannot de-virtualize from {self.phase!r}")
        self._enter_phase("devirtualization")
        self._account_polling_exits()
        # From here the mediator disappears mid-teardown: switch the
        # taint source to raw disk writes (double-reporting a mediated
        # write during the hand-over is harmless — same set).
        self._direct_io_taint = True
        self.copier.stop()
        if self.peer_service is not None:
            self.peer_service.mark_direct_io()
        yield from self.devirtualizer.run()
        self.initiator.stop()
        if self.peer_service is not None:
            # The responder survives de-virtualization (it runs as a
            # host-level agent, not inside the VMM): a fully deployed
            # node is the fabric's best seed for later waves.
            self.peer_service.publish()
        if self.release_memory:
            # Memory hot-plug: hand the VMM's reservation back.
            self.machine.memory.release(self.reserved_region)
        self.machine.set_condition(DEVIRT_CONDITION)
        self._enter_phase("baremetal")
        self.telemetry.causal.mark("devirtualize")

    def _account_polling_exits(self) -> None:
        """Bulk-account the preemption-timer exits the polling threads
        cost during deployment (kept out of the hot event loop)."""
        deploy_start = next(stamp for stamp, phase in self.phase_log
                            if phase == "deployment")
        elapsed = self.env.now - deploy_start
        if self.poll_interval > 0:
            ticks = int(elapsed / self.poll_interval)
            cpu = self.machine.boot_cpu
            cpu.exit_counts[ExitReason.PREEMPTION_TIMER] += ticks
            cpu.exit_seconds += ticks * params.VM_EXIT_SECONDS

    # -- reporting ------------------------------------------------------------------------------

    def summary(self) -> dict:
        """Deployment metrics in one bundle."""
        dist = {}
        if self.router is not None:
            dist = self.router.stats()
        if self.peer_service is not None:
            dist["peer_chunks_served"] = self.peer_service.chunks_served
            dist["peer_naks_sent"] = self.peer_service.naks_sent
        return {
            "phase": self.phase,
            "fluid": self.fluid.describe(),
            **dist,
            "blocks_filled": self.copier.blocks_filled,
            "bytes_written": self.copier.bytes_written,
            "writeback_bytes": self.copier.writeback_bytes,
            "redirected_reads": self.mediator.redirected_reads,
            "redirected_bytes": self.deployment.redirected_bytes,
            "multiplexed_requests": self.mediator.multiplexed_requests,
            "queued_guest_commands": self.mediator.queued_guest_commands,
            "interpreted_commands": self.mediator.interpreted_commands,
            "retransmissions": self.initiator.retransmissions,
            "deployment_seconds": self.copier.elapsed,
            "total_vm_exits": self.machine.total_vm_exits(),
        }

"""Node lifecycle FSM and the bare-metal reclaim path.

The paper makes deployment fast; elasticity additionally needs the
*other* half of the lifecycle — a node that stops serving must return
to the free pool, cheaply, so the same metal can absorb the next
spike (M2's provision → run → scrub → reclaim loop).  The FSM here:

::

    free ──▶ netbooting ──▶ deploying ──▶ ready
     ▲                                      │
     │                                      ▼ (idle, scale-down)
     └── scrubbing ◀────────────────── draining
                (failed is reachable from every busy state)

Forward edges wrap the existing :class:`~repro.cloud.provisioner.
Provisioner`; the reclaim edges are new:

* **draining** — let in-flight work settle, then take the machine back
  from the guest.  A ``resident``-mode node still carries the dormant
  VMM, so re-virtualization is a sub-second re-arm; a fully
  de-virtualized node must power-cycle through firmware and netboot
  (the several-minute penalty the paper measured — which is exactly
  why resident mode earns its keep in an elastic cloud).  A node still
  *deploying* shuts down gracefully via the VMM's bitmap-persist path.
* **scrubbing** — either wipe the image extent (one sequential pass at
  disk write bandwidth: the new tenant must never see old data), or
  **preserve** it: the node's pristine blocks (FILLED by the copier,
  never guest-written) are snapshotted to the protected disk region so
  the next deployment of the same image resumes warm, and the node's
  peer chunk service re-publishes them — a *free* node that feeds the
  next scale-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import params
from repro.cloud.provisioner import Provisioner
from repro.hw.memory import MemoryMapError
from repro.hw.platform import BAREMETAL
from repro.obs.telemetry import NULL_TELEMETRY
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.devirt import reset_virtualization

# -- states -------------------------------------------------------------------

FREE = "free"
NETBOOTING = "netbooting"
DEPLOYING = "deploying"
READY = "ready"
DRAINING = "draining"
SCRUBBING = "scrubbing"
FAILED = "failed"

STATES = (FREE, NETBOOTING, DEPLOYING, READY, DRAINING, SCRUBBING, FAILED)

#: Legal FSM edges.  ``failed`` is reachable from every busy state and
#: recovers through a scrub (the only safe route back to the pool).
TRANSITIONS = {
    FREE: (NETBOOTING,),
    NETBOOTING: (DEPLOYING, FAILED),
    DEPLOYING: (READY, FAILED),
    READY: (DRAINING, FAILED),
    DRAINING: (SCRUBBING, FAILED),
    SCRUBBING: (FREE, FAILED),
    FAILED: (SCRUBBING,),
}

#: Declared protocol model for ``repro check``'s FSM pass.  The edge
#: list is written out independently of ``TRANSITIONS`` on purpose:
#: the checker extracts the implementation table and diffs it against
#: this spec, so an edit to either one alone fails the check.  The
#: spec graph itself is also checked for reachability, dead states,
#: and a recovery edge out of every busy state.
SIMCHECK_FSM = {
    "name": "node-lifecycle",
    "initial": FREE,
    "recovery": FAILED,
    "states": STATES,
    "transitions": {
        FREE: (NETBOOTING,),
        NETBOOTING: (DEPLOYING, FAILED),
        DEPLOYING: (READY, FAILED),
        READY: (DRAINING, FAILED),
        DRAINING: (SCRUBBING, FAILED),
        SCRUBBING: (FREE, FAILED),
        FAILED: (SCRUBBING,),
    },
    "extract": {"kind": "transitions-literal", "source": "TRANSITIONS"},
}

#: Re-arming the dormant resident VMM: reinstall intercepts and
#: re-protect its (still reserved) memory — no firmware, no PXE.
RESIDENT_REARM_SECONDS = 0.5

#: Sectors wiped beyond the image extent: the protected bitmap-save
#: region must not survive a scrub (a stale snapshot would warm-start
#: the next tenant from another tenant's deployment state).
SCRUB_TRAILER_SECTORS = 128


class LifecycleError(RuntimeError):
    """An illegal FSM transition or reclaim from the wrong state."""


@dataclass
class NodeRecord:
    """One node's position in the lifecycle, with full history."""

    index: int
    state: str = FREE
    #: Time of the last transition.
    since: float = 0.0
    #: (time, state) for every transition, in order.
    history: list = field(default_factory=list)
    instance: object = None
    vmm: BmcastVmm | None = None
    #: Pristine copy-block indexes preserved by the last reclaim.
    warm_blocks: set = field(default_factory=set)
    #: The admitted request currently served by this node, if any.
    request: object = None
    #: (start, end) intervals this node spent serving a request.
    service_log: list = field(default_factory=list)
    deploys: int = 0
    reclaims: int = 0
    fail_reason: str | None = None

    def transition(self, now: float, state: str) -> None:
        if state not in TRANSITIONS.get(self.state, ()):
            raise LifecycleError(
                f"node {self.index}: illegal transition "
                f"{self.state!r} -> {state!r}")
        self.state = state
        self.since = now
        self.history.append((now, state))

    @property
    def idle(self) -> bool:
        return self.state == READY and self.request is None


class NodePool:
    """The lifecycle FSM over one testbed's machines.

    Wraps a :class:`~repro.cloud.provisioner.Provisioner` for the
    forward path and owns the reclaim path.  Every deployment uses
    ``vmxoff_mode`` (default ``resident`` — the mode that makes
    reclaim fast); ``preserve`` selects scrub-vs-preserve at reclaim
    time and can be overridden per call.
    """

    def __init__(self, testbed, provisioner: Provisioner | None = None,
                 vmxoff_mode: str = "resident",
                 drain_seconds: float = 2.0,
                 deploy_options: dict | None = None,
                 telemetry=None):
        self.testbed = testbed
        self.env = testbed.env
        self.provisioner = provisioner or Provisioner(testbed)
        if vmxoff_mode not in ("full", "module-assisted", "resident"):
            raise ValueError(f"unknown vmxoff mode {vmxoff_mode!r}")
        self.vmxoff_mode = vmxoff_mode
        self.drain_seconds = drain_seconds
        self.deploy_options = dict(deploy_options or {})
        self.telemetry = telemetry if telemetry is not None \
            else getattr(testbed, "telemetry", NULL_TELEMETRY)
        self.nodes = [NodeRecord(index=i, since=self.env.now,
                                 history=[(self.env.now, FREE)])
                      for i in range(len(testbed.nodes))]
        #: Deploy-start-to-ready seconds, one entry per deployment.
        self.time_to_ready: list[float] = []
        #: Fluid fast-path outcomes across deployments: how many ran
        #: (still) fluid at ready, and how many were demoted, by reason.
        self.fluid_deploys = 0
        self.fluid_demotions: dict[str, int] = {}
        #: Reclaim-start-to-free seconds, one entry per reclaim.
        self.reclaim_latencies: list[float] = []
        registry = self.telemetry.registry
        self._m_ttr = registry.histogram(
            "ctl_time_to_ready_seconds",
            help="deploy-start to instance-ready per node deployment")
        self._m_reclaim = registry.histogram(
            "ctl_reclaim_seconds",
            help="drain-start to returned-to-free-pool per reclaim")
        self._m_deploys = registry.counter(
            "ctl_deploys_total", help="node deployments started")
        self._m_reclaims = registry.counter(
            "ctl_reclaims_total", help="node reclamations completed")

    def __len__(self) -> int:
        return len(self.nodes)

    # -- queries ------------------------------------------------------------

    def counts(self) -> dict:
        """State -> node count (every state always present)."""
        result = {state: 0 for state in STATES}
        for record in self.nodes:
            result[record.state] += 1
        return result

    def in_state(self, *states) -> list[NodeRecord]:
        return [record for record in self.nodes if record.state in states]

    def free_nodes(self) -> list[NodeRecord]:
        return self.in_state(FREE)

    def idle_ready(self) -> list[NodeRecord]:
        return [record for record in self.nodes if record.idle]

    def busy(self) -> int:
        """Nodes currently serving a request."""
        return sum(1 for record in self.nodes
                   if record.state == READY and record.request is not None)

    def provisioned(self) -> int:
        """Nodes that are, or are becoming, serving capacity."""
        return len(self.in_state(NETBOOTING, DEPLOYING, READY))

    def peer_port_of(self, index: int) -> str | None:
        node = self.testbed.nodes[index]
        if node.peer_nic is None:
            return None
        return self.testbed.fabric.peer_port_of(node.vmm_nic.name)

    # -- forward path -------------------------------------------------------

    def deploy(self, index: int, **options):
        """Generator: free -> netbooting -> deploying -> ready.

        Returns the :class:`~repro.cloud.instance.Instance`.  A node
        with preserved warm blocks resumes from its on-disk snapshot:
        those blocks never refetch, and the OS boot reads them locally.
        """
        record = self.nodes[index]
        record.transition(self.env.now, NETBOOTING)
        started = self.env.now
        self._m_deploys.inc()
        # The previous VMM lets go of the node: its warm-source
        # responder must release the NIC before the new deployment's
        # own peer service binds to it, and its disk observer must not
        # keep it alive.
        if record.vmm is not None:
            record.vmm.retire()
        merged = {**self.deploy_options, **options}
        merged.setdefault("vmxoff_mode", self.vmxoff_mode)
        if record.warm_blocks:
            merged.setdefault("resume", True)
        try:
            instance = yield from self.provisioner.deploy(
                "bmcast", node_index=index, skip_firmware=True, **merged)
        except Exception as error:
            record.fail_reason = str(error)
            record.transition(self.env.now, FAILED)
            raise
        record.instance = instance
        record.vmm = instance.platform
        record.deploys += 1
        record.warm_blocks = set()
        # Backfill the netbooting -> deploying edge from the VMM's own
        # phase log (the instant the guest was first allowed to run).
        deploy_at = next((stamp for stamp, phase in record.vmm.phase_log
                          if phase == "deployment"), self.env.now)
        record.state = DEPLOYING
        record.history.append((deploy_at, DEPLOYING))
        record.transition(self.env.now, READY)
        elapsed = self.env.now - started
        self.time_to_ready.append(elapsed)
        self._m_ttr.observe(elapsed)
        fluid = getattr(record.vmm, "fluid", None)
        if fluid is not None and fluid.requested:
            if fluid.demotion_reason is not None:
                reason = fluid.demotion_reason
                self.fluid_demotions[reason] = \
                    self.fluid_demotions.get(reason, 0) + 1
            else:
                self.fluid_deploys += 1
        if record.vmm.resumed_from_disk \
                and record.vmm.peer_service is not None:
            # The resumed blocks were FILLED before the copier ever ran,
            # so no fill callback will announce them — publish now.
            record.vmm.peer_service.publish()
        return instance

    # -- assignment ---------------------------------------------------------

    def assign(self, index: int, request) -> None:
        record = self.nodes[index]
        if not record.idle:
            raise LifecycleError(
                f"node {index} is not idle ready (state {record.state})")
        record.request = request
        record.service_log.append([self.env.now, None])

    def release(self, index: int) -> None:
        record = self.nodes[index]
        if record.request is None:
            raise LifecycleError(f"node {index} has no assigned request")
        record.request = None
        record.service_log[-1][1] = self.env.now

    # -- reclaim path -------------------------------------------------------

    def reclaim(self, index: int, preserve: bool = True):
        """Generator: ready -> draining -> scrubbing -> free.

        Returns the reclaim latency in seconds.  ``preserve`` keeps the
        pristine image blocks (warm pool + peer source); otherwise the
        image extent is wiped.
        """
        record = self.nodes[index]
        if record.state not in (READY, FAILED):
            raise LifecycleError(
                f"cannot reclaim node {index} from {record.state!r}")
        if record.request is not None:
            raise LifecycleError(
                f"node {index} still serves a request; release it first")
        started = self.env.now
        if record.state == FAILED:
            # Recovery route: no orderly drain possible, scrub only.
            preserve = False
            pristine = set()
            yield from self._power_cycle_into_control(record)
            record.transition(self.env.now, SCRUBBING)
        else:
            record.transition(self.env.now, DRAINING)
            pristine = yield from self._drain(record)
            record.transition(self.env.now, SCRUBBING)
        node = self.testbed.nodes[index]
        if preserve and pristine:
            yield from self._persist_warm_snapshot(record, pristine)
            record.warm_blocks = set(pristine)
            service = record.vmm.peer_service \
                if record.vmm is not None else None
            if service is not None:
                yield from self._republish_warm(service)
        else:
            yield from self._scrub(record)
            record.warm_blocks = set()
        node.machine.set_condition(BAREMETAL)
        record.instance = None
        record.transition(self.env.now, FREE)
        record.reclaims += 1
        elapsed = self.env.now - started
        self.reclaim_latencies.append(elapsed)
        self._m_reclaim.observe(elapsed)
        self._m_reclaims.inc()
        self.telemetry.causal.mark("reclaim-complete")
        return elapsed

    def fail(self, index: int, reason: str) -> None:
        """Mark a node failed (operator / health-check edge)."""
        record = self.nodes[index]
        record.fail_reason = reason
        record.transition(self.env.now, FAILED)

    # -- reclaim internals --------------------------------------------------

    def _drain(self, record: NodeRecord):
        """Generator: settle in-flight work, take the machine back.

        Returns the pristine block set measured at the moment the guest
        epoch ended.
        """
        vmm = record.vmm
        yield self.env.timeout(self.drain_seconds)
        if vmm.phase == "deployment":
            # Mid-deployment shrink: the VMM's own graceful-shutdown
            # path stops the copier, persists the bitmap, and tears the
            # virtualization down (memory released, CPUs VMXOFF).
            pristine = vmm.pristine_blocks()
            yield from vmm.shutdown()
            return pristine
        while vmm.phase == "devirtualization":
            # The drain landed inside the (brief) teardown window; let
            # the devirtualizer reach a settled state first.
            yield self.env.timeout(1e-3)
        if vmm.phase != "baremetal":
            raise LifecycleError(
                f"node {record.index}: cannot drain from VMM phase "
                f"{vmm.phase!r}")
        pristine = vmm.pristine_blocks()
        yield from self._power_cycle_into_control(record)
        return pristine

    def _power_cycle_into_control(self, record: NodeRecord):
        """Generator: end the guest epoch, return to netboot-ready.

        Resident mode re-arms the dormant VMM in place; full mode pays
        the firmware power-cycle plus a PXE netboot of the reclaim
        agent — the asymmetry the elasticity bench measures.
        """
        vmm = record.vmm
        machine = self.testbed.nodes[record.index].machine
        if vmm is not None and vmm.devirtualizer.vmxoff_mode == "resident":
            yield self.env.timeout(RESIDENT_REARM_SECONDS)
        else:
            yield from machine.firmware.reboot()
            yield from machine.firmware.network_boot()
            yield self.env.timeout(params.BMCAST_VMM_BOOT_SECONDS)
        reset_virtualization(
            machine,
            None if vmm is None
            else vmm.devirtualizer.management_nic_slot)
        if vmm is not None:
            self._release_vmm_memory(machine, vmm)

    @staticmethod
    def _release_vmm_memory(machine, vmm) -> None:
        region = getattr(vmm, "reserved_region", None)
        if region is not None and region in machine.memory.regions:
            try:
                machine.memory.release(region)
            except MemoryMapError:
                pass  # already usable (shutdown / release_memory path)

    def _persist_warm_snapshot(self, record: NodeRecord, pristine):
        """Generator: write a pristine-only bitmap snapshot to disk.

        The next deployment boots with ``resume=True`` and finds these
        blocks FILLED — content the copier wrote and no guest touched,
        so trusting it is safe for a *new* tenant.  Guest-written
        blocks are left EMPTY: they refetch from the fabric.
        """
        vmm = record.vmm
        bitmap = vmm.bitmap
        filled = self._runs_of(sorted(pristine))
        snapshot = {
            "image_sectors": bitmap.image_sectors,
            "block_sectors": bitmap.block_sectors,
            "filled": tuple((start, end, True) for start, end in filled),
            "dirty": (),
        }
        node = self.testbed.nodes[record.index]
        lba = vmm.deployment.protected_lba
        count = vmm.deployment.protected_sectors
        request = BlockRequest(BlockOp.WRITE, lba, count, origin="vmm")
        request.buffer.runs = [(lba, lba + count,
                                (BmcastVmm.BITMAP_TOKEN, snapshot))]
        yield from node.disk.execute(request)

    @staticmethod
    def _runs_of(blocks: list) -> list:
        """Sorted block indexes -> (start, end) runs."""
        runs: list = []
        for block in blocks:
            if runs and runs[-1][1] == block:
                runs[-1][1] = block + 1
            else:
                runs.append([block, block + 1])
        return [(start, end) for start, end in runs]

    def _republish_warm(self, service):
        """Generator: re-arm the node's responder as a warm source.

        ``start()`` is a no-op on a live responder, so this covers both
        the still-serving case (devirtualized node whose agent kept
        running) and the stopped case (mid-deployment shutdown).
        """
        service.serve_warm()
        yield self.env.timeout(0.0)

    def _scrub(self, record: NodeRecord):
        """Generator: one sequential wipe of the image extent.

        Covers the image plus the protected bitmap-save region, so
        neither tenant data nor a stale warm snapshot survives into the
        next lease.
        """
        node = self.testbed.nodes[record.index]
        vmm = record.vmm
        image_sectors = self.testbed.image.total_sectors \
            if vmm is None else vmm.bitmap.image_sectors
        extent = min(image_sectors + SCRUB_TRAILER_SECTORS,
                     node.disk.total_sectors)
        service = vmm.peer_service if vmm is not None else None
        if service is not None:
            service.stop()
        request = BlockRequest(BlockOp.WRITE, 0, extent, origin="vmm")
        request.buffer.runs = [(0, extent, None)]
        yield from node.disk.execute(request)

    # -- reporting ----------------------------------------------------------

    def wasted_node_seconds(self, until: float | None = None) -> float:
        """Node-seconds provisioned (or in transition) but not serving.

        The elasticity cost metric: every second a node is out of the
        free pool without a request on it is capacity paid for and not
        used — deployment, drain, scrub, and idle-ready time all count.
        """
        end = self.env.now if until is None else until
        total = 0.0
        for record in self.nodes:
            edges = record.history + [(end, record.state)]
            occupied = 0.0
            for (start, state), (stop, _) in zip(edges, edges[1:]):
                if state != FREE:
                    occupied += min(stop, end) - min(start, end)
            serving = sum(
                (end if stop is None else stop) - start
                for start, stop in record.service_log)
            total += occupied - serving
        return total

    def describe(self) -> dict:
        counts = self.counts()
        return {
            "nodes": len(self.nodes),
            **counts,
            "deploys": sum(record.deploys for record in self.nodes),
            "reclaims": sum(record.reclaims for record in self.nodes),
            "warm_nodes": sum(1 for record in self.nodes
                              if record.warm_blocks),
        }

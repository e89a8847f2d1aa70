"""The benchmark's workloads, driven through the simulator's public API.

Each workload is a :class:`Run` subclass built by ``build(name, seed)``.
Building covers testbed assembly and workload construction (counted in
``setup_s``); ``Run.drive()`` is the timed part, from the first simulated
event to the workload's end; ``Run.collect()`` reads the public counters,
computes the simulated ``model.*`` figures and applies the correctness
gate.

The simulator gets only the inputs generated here from the seed: the
image's boot trace, the guest-io read offsets and the demand stream.
"""

from __future__ import annotations

import random
import statistics

from repro.apps.fio import FioBenchmark
from repro.cloud import Cluster, build_testbed
from repro.cloud.provisioner import Provisioner
from repro.cloud.scaleout import WaveScheduler
from repro.ctl import DEMANDS, PLACEMENTS, POLICIES, ElasticController, \
    NodePool
from repro.ctl.lifecycle import FAILED, NETBOOTING, READY
from repro.guest.osimage import OsImage
from repro import params as sim_params
from repro.vmm.moderation import FULL_SPEED

MIB = 2**20
GIB = 2**30
SECTORS_PER_MIB = MIB // sim_params.SECTOR_BYTES

#: Every workload's full parameter set.  A result's manifest carries the
#: dict, so any number can be re-run from its record.  paper-deploy and
#: guest-io deploy under the default moderation policy, fleet-fluid under
#: ``FULL_SPEED``.
PARAMS = {
    "paper-deploy": {
        "image_gib": 32, "boot_read_mib": 72, "boot_think_s": 22.5,
        "node_count": 1, "disk_controller": "ahci",
        "mtu": sim_params.GBE_MTU, "skip_firmware": True,
    },
    "guest-io": {
        "image_gib": 32, "boot_read_mib": 72, "boot_think_s": 22.5,
        "node_count": 1, "disk_controller": "ahci",
        "mtu": sim_params.GBE_MTU, "skip_firmware": True,
        "request_mib": 1, "cold_read_mib": 192, "cold_region_gib": [20, 32],
        "fio_mib": 192, "fio_file_gib": 16,
    },
    "fleet-fluid": {
        "image_mib": 1024, "boot_read_kib": 128, "boot_think_s": 0.25,
        "node_count": 256, "replicas": 16,
        "select_policy": "least-outstanding", "server_cache_hit_ratio": 1.0,
        "wave_size": 8, "seed_fill_fraction": 1.0, "stagger_s": 1.0,
        "fluid": True, "coalesce_blocks": 32, "poll_interval_s": 0.1,
        "initial_rto_s": 2.0, "settle_s": 1.0,
    },
    "elastic-ctl": {
        "image_mib": 256, "boot_read_mib": 16, "boot_think_s": 3.0,
        "node_count": 8, "replicas": 1, "p2p": True,
        "demand": "flash-crowd", "spike_at_s": 600.0, "spike_factor": 36.0,
        "policy": "reactive", "placement": "cache-aware",
        "vmxoff_mode": "resident", "preserve_on_reclaim": True,
        "tick_s": 15.0, "duration_s": 2700.0,
    },
}

#: Shrunken instances of each workload, for the tracing-invariance test.
SHRUNK = {
    "paper-deploy": {"image_gib": 1, "boot_read_mib": 8, "boot_think_s": 3.0},
    "guest-io": {"image_gib": 1, "boot_read_mib": 8, "boot_think_s": 3.0,
                 "cold_read_mib": 8, "cold_region_gib": [0.5, 1],
                 "fio_mib": 8, "fio_file_gib": 0.25},
    "fleet-fluid": {"image_mib": 64, "node_count": 16, "replicas": 4},
    "elastic-ctl": {"image_mib": 32, "boot_read_mib": 4, "node_count": 4,
                    "duration_s": 900.0},
}

#: The traced run profiles only up to this simulated time, so a
#: workload whose profiled run would outlast the run limit still gets a
#: per-layer split.  paper-deploy's window covers the boot and the
#: first minutes of the background copy.
PROFILE_WINDOW_SIM_S = {"paper-deploy": 120.0}

#: The ``repro`` packages reported as layers (``<layer>.self_s``,
#: ``<layer>.calls``).
LAYERS = ("sim", "vmm", "guest", "storage", "hw", "aoe", "net", "dist",
          "ctl", "cloud", "obs", "util", "apps")

#: Scheduled-event components reported as ``sim.events.<component>``
#: (the labels of ``repro.obs.causal.classify_actor``).
EVENT_COMPONENTS = ("copier", "mediator", "disk", "aoe-server",
                    "aoe-client", "switch", "nic", "cpu", "app", "vmm",
                    "provisioner", "other")

COUNTERS = (
    "sim.events", "sim.processes", "vmm.blocks_filled",
    "vmm.copier_suspensions", "vmm.vm_exits", "vmm.redirected_reads",
    "vmm.multiplexed_requests", "vmm.queued_guest_commands",
    "vmm.interpreted_commands", "storage.disk_requests",
    "storage.disk_busy_sim_s", "storage.disk_seek_sim_s",
    "aoe.reads_completed", "aoe.server_commands", "aoe.server_fragments",
    "net.switch_frames", "net.flow_resolves", "net.flow_completed",
    "net.fluid_byte_share", "dist.origin_fetches", "dist.peer_hits",
    "dist.peer_hit_ratio", "ctl.deploys", "ctl.reclaims",
    "aoe.retransmissions", "net.rx_dropped", "vmm.fetch_errors",
)

MODEL = ("model.ready_sim_s", "model.complete_sim_s",
         "model.guest_read_MBps", "model.guest_write_MBps",
         "model.slo_attainment", "model.ttr_p95_sim_s",
         "model.wasted_node_sim_s")


class RecordingProvisioner(Provisioner):
    """A provisioner that keeps every instance it deployed, so counters
    of VMMs replaced by a later deployment on the same node still count.
    """

    def __init__(self, testbed):
        super().__init__(testbed)
        self.instances = []

    def deploy(self, method, node_index=0, skip_firmware=False,
               policy=None, **options):
        instance = yield from super().deploy(
            method, node_index=node_index, skip_firmware=skip_firmware,
            policy=policy, **options)
        self.instances.append(instance)
        return instance


class Run:
    """One built workload: ``drive()`` is timed, ``collect()`` is not."""

    #: Operations the workload attempts (deployments, plus guest-I/O
    #: phases), known before the run where the workload fixes them.
    planned_ops = 1

    def __init__(self, testbed, provisioner, poll_interval):
        self.testbed = testbed
        self.env = testbed.env
        self.provisioner = provisioner
        #: The VMM poll interval, for counting poll timeouts.
        self.poll_interval = poll_interval

    def drive(self) -> None:
        raise NotImplementedError

    def model(self) -> dict:
        raise NotImplementedError

    def check(self) -> tuple[int, list[str]]:
        """(operations attempted, failure descriptions)."""
        raise NotImplementedError

    def collect(self) -> dict:
        ops, failures = self.check()
        return {"counters": counters(self), "model": self.model(),
                "attempted": ops, "failures": failures}


def _image(seed, size_bytes, boot_read_bytes, boot_think_seconds):
    return OsImage(size_bytes=int(size_bytes), seed=seed,
                   boot_read_bytes=int(boot_read_bytes),
                   boot_think_seconds=boot_think_seconds)


def _verify_instances(run, instances, check_filled_only=False):
    """Each deployed disk equals the image plus the guest's own writes."""
    image = run.testbed.image
    nodes = {id(node.machine): node for node in run.testbed.nodes}
    failures = []
    for instance in instances:
        node = nodes[id(instance.machine)]
        written = instance.guest.written if instance.guest else None
        if check_filled_only:
            ok = _verify_filled(image, node.disk.contents,
                                instance.platform.bitmap, written)
        else:
            ok = image.verify_deployed(node.disk.contents, written)
        if not ok:
            failures.append(f"{instance.machine.name}: disk differs from "
                            f"image plus guest writes")
    return failures


def _verify_filled(image, disk_contents, bitmap, written) -> bool:
    """``verify_deployed`` restricted to the blocks the copier filled,
    for a run that stops before the copy completes."""
    for block_start, block_end, _ in bitmap.filled_runs():
        lba = block_start * bitmap.block_sectors
        count = (block_end - block_start) * bitmap.block_sectors
        count = min(count, image.total_sectors - lba)
        for start, end, token in image.contents.runs_in(lba, count):
            for run_start, run_end, disk_token in \
                    disk_contents.runs_in(start, end - start):
                if disk_token == token:
                    continue
                span = run_end - run_start
                if written is None or \
                        written.covered_length(run_start, span) != span:
                    return False
    return True


# -- paper-deploy -------------------------------------------------------------

class PaperDeploy(Run):
    """One default-testbed BMcast deploy, run to copy-complete."""

    def __init__(self, p, seed):
        image = _image(seed, p["image_gib"] * GIB, p["boot_read_mib"] * MIB,
                       p["boot_think_s"])
        testbed = build_testbed(node_count=p["node_count"],
                                disk_controller=p["disk_controller"],
                                mtu=p["mtu"], image=image)
        super().__init__(testbed, RecordingProvisioner(testbed),
                         sim_params.POLL_INTERVAL_SECONDS)
        self.p = p
        self.instance = None
        self.deploy_proc = self.env.process(self._deploy(),
                                            name="bench-deploy")

    def _deploy(self):
        self.instance = yield from self.provisioner.deploy(
            "bmcast", skip_firmware=self.p["skip_firmware"])

    def drive(self):
        self.env.run(until=self.deploy_proc)
        self.env.run(until=self.instance.platform.copier.done)

    def model(self):
        return {"model.ready_sim_s": self.instance.timeline.total,
                "model.complete_sim_s": self.env.now}

    def check(self):
        failures = _verify_instances(self, [self.instance])
        if not self.instance.platform.bitmap.complete:
            failures.append("copy did not complete")
        return 1, failures


# -- guest-io -----------------------------------------------------------------

class GuestIo(Run):
    """From ready onward, one guest thread issues 1 MiB requests: cold
    sequential reads the mediator redirects over AoE, then fio's layout,
    write and read passes over its own file."""

    planned_ops = 2

    def __init__(self, p, seed):
        image = _image(seed, p["image_gib"] * GIB, p["boot_read_mib"] * MIB,
                       p["boot_think_s"])
        testbed = build_testbed(node_count=p["node_count"],
                                disk_controller=p["disk_controller"],
                                mtu=p["mtu"], image=image)
        super().__init__(testbed, RecordingProvisioner(testbed),
                         sim_params.POLL_INTERVAL_SECONDS)
        self.p = p
        request = p["request_mib"] * SECTORS_PER_MIB
        # The cold reads start at a seeded, request-aligned offset in a
        # region the copier does not reach before the guest I/O ends.
        low, high = (int(gib * GIB // MIB) for gib in p["cold_region_gib"])
        first = low // p["request_mib"]
        last = (high - p["cold_read_mib"]) // p["request_mib"]
        start = random.Random(seed).randrange(first, last + 1) * request
        self.cold_lbas = range(
            start, start + p["cold_read_mib"] * SECTORS_PER_MIB, request)
        self.request = request
        self.fio_lba = int(p["fio_file_gib"] * GIB) // sim_params.SECTOR_BYTES
        self.instance = None
        self.read_rate = self.write_rate = None
        self.cold_read_errors = []
        self.proc = self.env.process(self._scenario(), name="bench-guest-io")

    def _scenario(self):
        self.instance = yield from self.provisioner.deploy(
            "bmcast", skip_firmware=self.p["skip_firmware"])
        contents = self.testbed.image.contents
        for lba in self.cold_lbas:
            runs = yield from self.instance.read(lba, self.request)
            covered = sum(end - start for start, end, _ in runs)
            if covered != self.request or any(
                    expected != token
                    for start, end, token in runs
                    for _, _, expected in contents.runs_in(start,
                                                           end - start)):
                self.cold_read_errors.append(lba)
        fio = FioBenchmark(self.instance, file_lba=self.fio_lba)
        fio.TOTAL_BYTES = self.p["fio_mib"] * MIB
        fio.BLOCK_BYTES = self.p["request_mib"] * MIB
        yield from fio.layout()
        self.write_rate = yield from fio.write_throughput()
        self.read_rate = yield from fio.read_throughput()

    def drive(self):
        self.env.run(until=self.proc)

    def model(self):
        return {
            "model.ready_sim_s": self.instance.timeline.total,
            "model.complete_sim_s": self.env.now,
            "model.guest_read_MBps": self.read_rate / MIB,
            "model.guest_write_MBps": self.write_rate / MIB,
        }

    def check(self):
        failures = _verify_instances(self, [self.instance],
                                     check_filled_only=True)
        if self.read_rate is None:
            failures.append("guest I/O did not finish")
        if self.cold_read_errors:
            failures.append(f"{len(self.cold_read_errors)} cold reads "
                            f"returned data other than the image's (first "
                            f"at LBA {self.cold_read_errors[0]})")
        # fio's file holds what its write pass wrote.
        disk = self.testbed.nodes[0].disk.contents
        sectors = self.p["fio_mib"] * SECTORS_PER_MIB
        runs = disk.runs_in(self.fio_lba, sectors)
        if sum(end - start for start, end, _ in runs) != sectors or any(
                not isinstance(token, tuple) or token[1] != "fio-write"
                for _, _, token in runs):
            failures.append("fio's file does not hold its write pass")
        return 2, failures


# -- fleet-fluid --------------------------------------------------------------

class FleetFluid(Run):
    """The 256-node fluid scale-out of ``benchmarks/bench_fleet.py``."""

    def __init__(self, p, seed):
        image = _image(seed, p["image_mib"] * MIB, p["boot_read_kib"] * 1024,
                       p["boot_think_s"])
        testbed = build_testbed(
            node_count=p["node_count"], server_count=p["replicas"],
            select_policy=p["select_policy"],
            server_cache_hit_ratio=p["server_cache_hit_ratio"], image=image)
        provisioner = RecordingProvisioner(testbed)
        super().__init__(testbed, provisioner, p["poll_interval_s"])
        self.p = p
        self.planned_ops = p["node_count"]
        self.cluster = Cluster(testbed, provisioner=provisioner)
        self.scheduler = WaveScheduler(
            self.cluster, wave_size=p["wave_size"],
            seed_fill_fraction=p["seed_fill_fraction"],
            stagger_seconds=p["stagger_s"])
        self.proc = self.env.process(self._scenario(), name="bench-fleet")

    def _scenario(self):
        p = self.p
        yield from self.scheduler.run(
            "bmcast", policy=FULL_SPEED, fluid=p["fluid"],
            coalesce_blocks=p["coalesce_blocks"],
            poll_interval=p["poll_interval_s"],
            initial_rto=p["initial_rto_s"])
        yield from self.cluster.wait_deployment_complete(
            settle_seconds=p["settle_s"])

    def drive(self):
        self.env.run(until=self.proc)

    def model(self):
        instances = self.provisioner.instances
        return {
            "model.ready_sim_s": statistics.fmean(
                instance.timeline.total for instance in instances),
            "model.complete_sim_s": self.env.now,
        }

    def check(self):
        instances = self.provisioner.instances
        failures = _verify_instances(self, instances)
        failures += [f"{instance.machine.name}: copy did not complete"
                     for instance in instances
                     if not instance.platform.bitmap.complete]
        missing = self.p["node_count"] - len(instances)
        failures += ["deployment never reached ready"] * missing
        retransmissions = sum(instance.platform.initiator.retransmissions
                              for instance in instances)
        if retransmissions:
            failures.append(f"{retransmissions} retransmissions")
        demoted = [instance.machine.name for instance in instances
                   if instance.platform.fluid.describe() != "active"]
        if demoted:
            failures.append(f"fluid state not active on {len(demoted)} "
                            f"nodes (first {demoted[0]})")
        return self.p["node_count"], failures


# -- elastic-ctl --------------------------------------------------------------

class ElasticCtl(Run):
    """A flash crowd served by the elastic control loop."""

    def __init__(self, p, seed):
        image = _image(seed, p["image_mib"] * MIB, p["boot_read_mib"] * MIB,
                       p["boot_think_s"])
        testbed = build_testbed(node_count=p["node_count"],
                                server_count=p["replicas"], p2p=p["p2p"],
                                image=image)
        provisioner = RecordingProvisioner(testbed)
        super().__init__(testbed, provisioner,
                         sim_params.POLL_INTERVAL_SECONDS)
        self.p = p
        self.pool = NodePool(testbed, provisioner=provisioner,
                             vmxoff_mode=p["vmxoff_mode"])
        demand = DEMANDS[p["demand"]](spike_at=p["spike_at_s"],
                                      factor=p["spike_factor"], seed=seed)
        self.controller = ElasticController(
            self.pool, demand, POLICIES[p["policy"]](),
            PLACEMENTS[p["placement"]](), tick=p["tick_s"],
            preserve_on_reclaim=p["preserve_on_reclaim"])
        self.proc = self.env.process(self.controller.run(p["duration_s"]),
                                     name="ctl-loop")

    def drive(self):
        self.env.run(until=self.proc)

    def model(self):
        report = self.controller.report()
        return {
            "model.ready_sim_s": statistics.fmean(self.pool.time_to_ready),
            "model.complete_sim_s": self.env.now,
            "model.slo_attainment": report["slo_attainment"],
            "model.ttr_p95_sim_s": report["ttr_p95_seconds"],
            "model.wasted_node_sim_s": report["wasted_node_seconds"],
        }

    def check(self):
        started = ready = in_flight = 0
        for record in self.pool.nodes:
            states = [state for _, state in record.history]
            started += states.count(NETBOOTING)
            ready += states.count(READY)
            # A deployment still in flight at the horizon has not failed.
            in_flight += states[-1] == NETBOOTING
        failures = ["deployment never reached ready"] \
            * (started - ready - in_flight)
        failures += [f"node {record.index} failed: {record.fail_reason}"
                     for record in self.pool.nodes
                     if record.state == FAILED]
        # Reclaimed nodes were scrubbed or re-deployed since; check the
        # disks of the deployments still serving.
        failures += _verify_instances(
            self, [record.instance for record in self.pool.nodes
                   if record.state == READY
                   and record.vmm.bitmap.complete])
        return max(started, 1), failures


WORKLOADS = {
    "paper-deploy": PaperDeploy,
    "guest-io": GuestIo,
    "fleet-fluid": FleetFluid,
    "elastic-ctl": ElasticCtl,
}


def build(name: str, seed: int, overrides: dict | None = None) -> Run:
    params = {**PARAMS[name], **(overrides or {})}
    return WORKLOADS[name](params, seed)


# -- counters (public attributes, read after the run) -------------------------

def counters(run: Run) -> dict:
    testbed = run.testbed
    env = run.env
    vmms = [instance.platform for instance in run.provisioner.instances]
    nodes = testbed.nodes
    nics = [nic for node in nodes
            for nic in (node.guest_nic, node.vmm_nic, node.peer_nic)
            if nic is not None]
    nics += [server.nic for server in testbed.servers]
    tx = sum(nic.tx_bytes + nic.fluid_tx_bytes for nic in nics)
    fluid_tx = sum(nic.fluid_tx_bytes for nic in nics)
    routers = [vmm.router for vmm in vmms if vmm.router is not None]
    fetches = sum(router.total_fetches for router in routers)
    peer_hits = sum(router.peer_hits for router in routers)
    flow = testbed.switch.flow_network
    pool_nodes = run.pool.nodes if isinstance(run, ElasticCtl) else []
    values = {
        "sim.events": env.events_processed,
        "sim.processes": env.processes_spawned,
        "vmm.blocks_filled": sum(vmm.copier.blocks_filled for vmm in vmms),
        "vmm.copier_suspensions": sum(vmm.copier.suspensions
                                      for vmm in vmms),
        "vmm.vm_exits": sum(node.machine.total_vm_exits() for node in nodes),
        "vmm.redirected_reads": sum(vmm.mediator.redirected_reads
                                    for vmm in vmms),
        "vmm.multiplexed_requests": sum(vmm.mediator.multiplexed_requests
                                        for vmm in vmms),
        "vmm.queued_guest_commands": sum(vmm.mediator.queued_guest_commands
                                         for vmm in vmms),
        "vmm.interpreted_commands": sum(vmm.mediator.interpreted_commands
                                        for vmm in vmms),
        "storage.disk_requests": sum(node.disk.requests_served
                                     for node in nodes),
        "storage.disk_busy_sim_s": sum(node.disk.busy_seconds
                                       for node in nodes),
        "storage.disk_seek_sim_s": sum(node.disk.seek_seconds
                                       for node in nodes),
        "aoe.reads_completed": sum(vmm.initiator.reads_completed
                                   for vmm in vmms),
        "aoe.server_commands": sum(server.commands_served
                                   for server in testbed.servers),
        "aoe.server_fragments": sum(server.fragments_sent
                                    for server in testbed.servers),
        "net.switch_frames": testbed.switch.frames_forwarded,
        "net.flow_resolves": flow.resolves,
        "net.flow_completed": flow.flows_completed,
        "net.fluid_byte_share": fluid_tx / tx if tx else 0.0,
        "dist.origin_fetches": sum(router.origin_fetches
                                   for router in routers),
        "dist.peer_hits": peer_hits,
        "dist.peer_hit_ratio": peer_hits / fetches if fetches else 0.0,
        "ctl.deploys": sum(record.deploys for record in pool_nodes),
        "ctl.reclaims": sum(record.reclaims for record in pool_nodes),
        "aoe.retransmissions": sum(vmm.initiator.retransmissions
                                   for vmm in vmms),
        "net.rx_dropped": sum(nic.rx_dropped for nic in nics),
        "vmm.fetch_errors": sum(vmm.copier.fetch_errors for vmm in vmms),
    }
    assert tuple(values) == COUNTERS
    return values


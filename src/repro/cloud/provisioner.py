"""The provisioner: the cloud's top-level deploy-an-instance API.

``yield from provisioner.deploy("bmcast")`` takes a node from cold power
to a ready instance by any of the methods the paper evaluates, recording
the startup timeline Figure 4 plots.
"""

from __future__ import annotations

from repro.baselines.image_copy import ImageCopyDeployment
from repro.baselines.kvm import KvmInstance
from repro.baselines.network_boot import NetworkBootInstance
from repro.baselines.os_streaming import StreamingOsInstance
from repro.cloud.instance import Instance, StartupTimeline
from repro.cloud.scenario import Testbed, TestbedNode
from repro.guest.kernel import GuestOs
from repro.obs.telemetry import NULL_TELEMETRY
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import ModerationPolicy

METHODS = ("baremetal", "bmcast", "image-copy", "network-boot",
           "kvm-nfs", "kvm-iscsi", "kvm-local", "os-streaming")


class Provisioner:
    """Deploys instances onto a testbed's nodes."""

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.env = testbed.env
        self.telemetry = getattr(testbed, "telemetry", NULL_TELEMETRY)

    def deploy(self, method: str, node_index: int = 0,
               skip_firmware: bool = False,
               policy: ModerationPolicy | None = None,
               **options):
        """Generator: deploy an instance; returns an :class:`Instance`.

        ``skip_firmware`` starts from a machine whose firmware already
        initialized (the paper's "excluding the first firmware
        initialization" comparison).
        """
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}; choose from {METHODS}")
        node = self.testbed.nodes[node_index]
        timeline = StartupTimeline(power_on=self.env.now)
        spans = self.telemetry.tracer
        # The deployment's root, open on this process while it deploys:
        # what is built and started here nests under it.
        with spans.span(f"deploy:{method}", parent=None,
                        node=node_index) as deploy_span:
            firmware_span = spans.start("firmware-init")
            if skip_firmware:
                node.machine.firmware.initialized = True
            else:
                yield from node.machine.power_on()
            spans.end(firmware_span, skipped=skip_firmware)
            timeline.firmware_done = self.env.now
            timeline.add_segment("firmware init",
                                 timeline.firmware_done - timeline.power_on)

            handler = getattr(self, "_deploy_" + method.replace("-", "_"))
            instance = yield from handler(node, timeline, policy=policy,
                                          **options)
            timeline.ready = self.env.now
            spans.end(deploy_span, ready_seconds=timeline.total)
        return instance

    # -- bare metal (pre-installed local disk) -----------------------------------------

    def _deploy_baremetal(self, node: TestbedNode,
                          timeline: StartupTimeline, policy=None):
        """The reference: image already on disk, boot it."""
        image = self.testbed.image
        # Pre-install: the disk holds the image before power-on.
        for start, end, token in image.contents.runs():
            node.disk.contents.set_range(start, end - start, token)
        timeline.platform_ready = self.env.now
        guest = GuestOs(node.machine, image)
        timeline.os_boot_started = self.env.now
        with self.telemetry.tracer.span("guest-os-boot"):
            yield from guest.boot()
        timeline.add_segment("OS boot", self.env.now
                             - timeline.os_boot_started)
        return Instance(node.machine, "baremetal", timeline,
                        storage_read=_driver_read(guest),
                        storage_write=_driver_write(guest),
                        guest=guest)

    # -- BMcast ---------------------------------------------------------------------------

    def _deploy_bmcast(self, node: TestbedNode, timeline: StartupTimeline,
                       policy: ModerationPolicy | None = None,
                       **vmm_options):
        image = self.testbed.image
        spans = self.telemetry.tracer
        sanitizers = vmm_options.pop("sanitizers", None)
        vmm_options.setdefault("telemetry", self.telemetry)
        vmm_options.setdefault("peer_nic", node.peer_nic)
        vmm = BmcastVmm(self.env, node.machine, node.vmm_nic,
                        self.testbed.fabric,
                        image_sectors=image.total_sectors,
                        policy=policy, **vmm_options)
        if sanitizers is not None:
            # Before boot: attaching late misses early guest writes and
            # the sanitizers would report phantom inconsistencies.
            sanitizers.attach_deployment(vmm, image=image)
            # Sanitizers validate per-packet protocol behavior (claim
            # replay, AoE conformance), which the analytic fluid path
            # deliberately skips — force the exact path.
            vmm.fluid.demote("sanitizers")
        self.telemetry.provenance.attach(vmm, node=node.machine.name)
        start = self.env.now
        with spans.span("vmm-netboot", component="vmm"):
            yield from node.machine.firmware.network_boot()
            yield from vmm.boot()
        timeline.platform_ready = self.env.now
        timeline.add_segment("VMM boot", self.env.now - start)
        guest = GuestOs(node.machine, image)
        timeline.os_boot_started = self.env.now
        with spans.span("guest-os-boot", vmm.deployment.span,
                        component="guest"):
            yield from guest.boot()
        timeline.add_segment("OS boot", self.env.now
                             - timeline.os_boot_started)
        return Instance(node.machine, "bmcast", timeline,
                        storage_read=_driver_read(guest),
                        storage_write=_driver_write(guest),
                        guest=guest, platform=vmm)

    # -- image copy ------------------------------------------------------------------------

    def _deploy_image_copy(self, node: TestbedNode,
                           timeline: StartupTimeline, policy=None):
        image = self.testbed.image
        deployment = ImageCopyDeployment(self.env, node,
                                         self.testbed.server_ports[0],
                                         image)
        start = self.env.now
        with self.telemetry.tracer.span("installer-and-transfer"):
            yield from deployment.run()
        timeline.platform_ready = self.env.now
        timeline.add_segment("installer boot",
                             deployment.installer_boot_seconds + 2.0)
        timeline.add_segment("image transfer", deployment.transfer_seconds)
        restart = (self.env.now - start
                   - deployment.installer_boot_seconds - 2.0
                   - deployment.transfer_seconds)
        timeline.add_segment("restart (firmware again)", restart)
        guest = GuestOs(node.machine, image)
        timeline.os_boot_started = self.env.now
        yield from guest.boot()
        timeline.add_segment("OS boot", self.env.now
                             - timeline.os_boot_started)
        return Instance(node.machine, "image-copy", timeline,
                        storage_read=_driver_read(guest),
                        storage_write=_driver_write(guest),
                        guest=guest, platform=deployment)

    # -- network boot -----------------------------------------------------------------------

    def _deploy_network_boot(self, node: TestbedNode,
                             timeline: StartupTimeline, policy=None):
        image = self.testbed.image
        instance_model = NetworkBootInstance(self.env, node,
                                             self.testbed.server_ports[0],
                                             image)
        timeline.platform_ready = self.env.now
        timeline.os_boot_started = self.env.now
        yield from instance_model.boot()
        timeline.add_segment("OS boot (netroot)",
                             self.env.now - timeline.os_boot_started)
        return Instance(node.machine, "network-boot", timeline,
                        storage_read=_facade_read(instance_model),
                        storage_write=_facade_write(instance_model),
                        platform=instance_model)

    # -- KVM variants -----------------------------------------------------------------------

    def _deploy_kvm_nfs(self, node, timeline, policy=None):
        return (yield from self._deploy_kvm(node, timeline, "nfs"))

    def _deploy_kvm_iscsi(self, node, timeline, policy=None):
        return (yield from self._deploy_kvm(node, timeline, "iscsi"))

    def _deploy_kvm_local(self, node, timeline, policy=None):
        # Local-disk backend assumes the image is already on disk
        # (paper 5.5.2's KVM/Local case).
        image = self.testbed.image
        for start, end, token in image.contents.runs():
            node.disk.contents.set_range(start, end - start, token)
        return (yield from self._deploy_kvm(node, timeline, "local"))

    def _deploy_kvm(self, node: TestbedNode, timeline: StartupTimeline,
                    backend: str):
        image = self.testbed.image
        instance_model = KvmInstance(self.env, node,
                                     self.testbed.server_ports[0], image,
                                     backend=backend)
        start = self.env.now
        timeline.os_boot_started = self.env.now
        yield from instance_model.boot()
        timeline.platform_ready = start \
            + instance_model.hypervisor_boot_seconds
        timeline.add_segment("KVM boot",
                             instance_model.hypervisor_boot_seconds)
        timeline.add_segment(
            "guest OS boot",
            self.env.now - start - instance_model.hypervisor_boot_seconds)
        return Instance(node.machine, f"kvm-{backend}", timeline,
                        storage_read=_facade_read(instance_model),
                        storage_write=_facade_write(instance_model),
                        platform=instance_model)

    # -- OS streaming -------------------------------------------------------------------------

    def _deploy_os_streaming(self, node: TestbedNode,
                             timeline: StartupTimeline,
                             policy: ModerationPolicy | None = None):
        image = self.testbed.image
        instance_model = StreamingOsInstance(self.env, node,
                                             self.testbed.server_ports[0],
                                             image, policy=policy)
        timeline.platform_ready = self.env.now
        timeline.os_boot_started = self.env.now
        yield from instance_model.boot()
        timeline.add_segment("OS boot (streaming)",
                             self.env.now - timeline.os_boot_started)
        return Instance(node.machine, "os-streaming", timeline,
                        storage_read=_facade_read(instance_model),
                        storage_write=_facade_write(instance_model),
                        platform=instance_model)


# -- storage facade adapters ------------------------------------------------------------------

def _driver_read(guest: GuestOs):
    def read(lba, sector_count):
        buffer = yield from guest.read(lba, sector_count)
        return buffer.runs
    return read


def _driver_write(guest: GuestOs):
    def write(lba, sector_count, tag):
        yield from guest.write(lba, sector_count, tag=tag)
        return None
    return write


def _facade_read(model):
    def read(lba, sector_count):
        return (yield from model.read(lba, sector_count))
    return read


def _facade_write(model):
    def write(lba, sector_count, tag):
        return (yield from model.write(lba, sector_count, tag=tag))
    return write

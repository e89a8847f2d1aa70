"""Cluster orchestration, OS transparency, and failure resilience."""

import pytest

from repro.baselines.os_streaming import OsNotSupportedError
from repro.cloud.cluster import Cluster
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import (
    OsImage,
    centos_image,
    ubuntu_image,
    windows_image,
)
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy

MB = 2**20


def small(factory=ubuntu_image, size_mb=32):
    return factory(size_bytes=size_mb * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=1.0)


# -- Cluster -------------------------------------------------------------------

def test_cluster_deploy_all_simultaneously():
    testbed = build_testbed(node_count=3, image=small())
    cluster = Cluster(testbed)
    env = testbed.env

    def scenario():
        return (yield from cluster.deploy_all("bmcast",
                                              policy=FULL_SPEED))

    instances = env.run(until=env.process(scenario()))
    assert len(instances) == 3
    assert len(cluster) == 3
    # Simultaneous: everyone's boot overlapped (all-ready within a small
    # factor of one node's time).
    assert cluster.total_startup_seconds() < 2 * min(
        instance.timeline.total for instance in instances)


def test_cluster_wait_and_verify():
    testbed = build_testbed(node_count=2, image=small())
    cluster = Cluster(testbed)
    env = testbed.env

    def scenario():
        yield from cluster.deploy_all("bmcast", policy=FULL_SPEED)
        yield from cluster.wait_deployment_complete()

    env.run(until=env.process(scenario()))
    assert cluster.all_baremetal()
    assert cluster.verify_all_deployed()


def test_cluster_phases_mixed_methods():
    testbed = build_testbed(node_count=2, image=small())
    cluster = Cluster(testbed)
    env = testbed.env

    def scenario():
        yield from cluster.deploy_all("baremetal", node_indexes=[0])
        yield from cluster.deploy_all("bmcast", node_indexes=[1],
                                      policy=FULL_SPEED)

    env.run(until=env.process(scenario()))
    phases = list(cluster.phases().values())
    assert "n/a" in phases  # the baremetal node has no platform phase
    assert any(phase in ("deployment", "baremetal") for phase in phases)


def test_cluster_startup_without_instances_rejected():
    testbed = build_testbed(image=small())
    cluster = Cluster(testbed)
    with pytest.raises(ValueError):
        cluster.total_startup_seconds()


# -- OS transparency across images (paper 4.3) -------------------------------------

@pytest.mark.parametrize("factory", [ubuntu_image, centos_image,
                                     windows_image])
def test_bmcast_deploys_any_os_unmodified(factory):
    image = small(factory)
    testbed = build_testbed(image=image)
    provisioner = Provisioner(testbed)
    env = testbed.env

    def scenario():
        instance = yield from provisioner.deploy("bmcast",
                                                 skip_firmware=True,
                                                 policy=FULL_SPEED)
        yield instance.platform.copier.done
        return instance

    instance = env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    assert instance.guest.booted
    assert instance.platform.phase == "baremetal"
    assert image.verify_deployed(testbed.node.disk.contents,
                                 instance.guest.written)


def test_os_streaming_cannot_deploy_windows():
    """The transparency failure mode BMcast removes (paper 2/6): the
    per-OS streaming driver only exists for the OSs it was ported to."""
    testbed = build_testbed(image=small(windows_image))
    provisioner = Provisioner(testbed)
    env = testbed.env

    def scenario():
        yield from provisioner.deploy("os-streaming", skip_firmware=True)

    with pytest.raises(OsNotSupportedError):
        env.run(until=env.process(scenario()))


def test_windows_boots_slower_but_deploys():
    ubuntu = small(ubuntu_image, 64)
    windows = windows_image(size_bytes=64 * MB,
                            boot_read_bytes=8 * MB,
                            boot_think_seconds=4.0)

    def boot_time(image):
        testbed = build_testbed(image=image)
        provisioner = Provisioner(testbed)
        env = testbed.env

        def scenario():
            return (yield from provisioner.deploy("bmcast",
                                                  skip_firmware=True))

        instance = env.run(until=env.process(scenario()))
        return instance.guest.boot_seconds

    assert boot_time(windows) > boot_time(ubuntu)


# -- server-outage resilience -----------------------------------------------------------

def test_deployment_survives_server_outage():
    """If the storage server goes away mid-deployment, the copier backs
    off instead of dying, and finishes once the server returns."""
    testbed = build_testbed(image=small(size_mb=48))
    provisioner = Provisioner(testbed)
    env = testbed.env

    def scenario():
        instance = yield from provisioner.deploy(
            "bmcast", skip_firmware=True,
            policy=ModerationPolicy(write_interval=5e-3))
        vmm = instance.platform
        # Kill the server mid-deployment.
        yield env.timeout(0.2)
        testbed.servers[0].stop()
        filled_at_outage = vmm.bitmap.filled_count
        yield env.timeout(30.0)
        # Stalled, not dead.
        assert not vmm.bitmap.complete
        assert vmm.copier.fetch_errors > 0
        assert vmm.copier.running
        # Server comes back.
        testbed.servers[0].start()
        yield vmm.copier.done
        return instance, filled_at_outage

    instance, filled_at_outage = env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    vmm = instance.platform
    assert vmm.bitmap.complete
    assert vmm.phase == "baremetal"
    assert testbed.image.verify_deployed(testbed.node.disk.contents,
                                         instance.guest.written)

"""Calibration regression pins.

These run the paper-scale headline experiments and pin the measured
values to the bands EXPERIMENTS.md reports, so a refactor that silently
shifts the reproduction gets caught here rather than in the benches.

All four tests read one 32 GiB BMcast deploy, run once per module to
copy-complete; the figures the first three pin are taken before any
test drives the testbed further.
"""

import pytest

from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed


def deploy(method, **kwargs):
    testbed = build_testbed(**kwargs)
    provisioner = Provisioner(testbed)
    env = testbed.env
    instance = env.run(until=env.process(
        provisioner.deploy(method, skip_firmware=True)))
    return testbed, instance


@pytest.fixture(scope="module")
def paper_deploy():
    """The deploy, run to copy-complete, with its figures at ready
    time and at copy-complete."""
    testbed, instance = deploy("bmcast")
    vmm = instance.platform
    figures = {
        "startup": instance.timeline.total,
        "redirected_bytes": vmm.deployment.redirected_bytes,
        "boot": instance.guest.boot_seconds,
    }
    testbed.env.run(until=vmm.copier.done)
    figures["copy_minutes"] = vmm.copier.elapsed / 60.0
    return testbed, instance, figures


def test_bmcast_startup_near_paper_63s(paper_deploy):
    _, _, figures = paper_deploy
    # Paper: 63 s (5 s VMM + 58 s boot); ours includes 2 s PXE.
    assert 55.0 < figures["startup"] < 72.0
    # Paper 5.1: only ~72 MB transferred during boot.
    assert figures["redirected_bytes"] == pytest.approx(72 * 2**20,
                                                        rel=0.1)


def test_guest_boot_near_paper_58s(paper_deploy):
    _, _, figures = paper_deploy
    assert 48.0 < figures["boot"] < 64.0


def test_idle_deployment_minutes_at_paper_scale(paper_deploy):
    _, _, figures = paper_deploy
    # Idle-guest deployment of 32 GB with default moderation: paper's
    # loaded runs took 16-17 min; idle is faster.  Pin the band.
    assert 8.0 < figures["copy_minutes"] < 16.0


def test_zero_exits_after_devirt_at_paper_scale(paper_deploy):
    testbed, instance, _ = paper_deploy
    env = testbed.env
    vmm = instance.platform
    env.run(until=env.now + 10.0)
    machine = instance.machine
    before = machine.total_vm_exits()

    def post_devirt_io():
        for index in range(10):
            yield from instance.read(index * 1024, 256)

    env.run(until=env.process(post_devirt_io()))
    assert machine.total_vm_exits() == before
    assert vmm.phase == "baremetal"

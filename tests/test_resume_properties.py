"""Property test: consistency across shutdown + resume mid-deployment.

Extends the deployment consistency property with the paper 3.3
shutdown/reboot case: guest writes land, the VMM saves its bitmap and
powers off, a new VMM resumes from disk, more guest writes land, and at
the end the disk must still converge to image-plus-newest-guest-data.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import params
from repro.cloud.scenario import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.util.intervalmap import IntervalMap
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import ModerationPolicy

MB = 2**20
IMAGE_MB = 16
IMAGE_SECTORS = IMAGE_MB * MB // params.SECTOR_BYTES

#: Slow enough that the shutdown happens mid-deployment.
POLICY = ModerationPolicy(write_interval=4e-3, suspend_interval=20e-3,
                          guest_io_threshold=200.0)


@st.composite
def schedules(draw):
    def ops():
        operations = []
        for _ in range(draw(st.integers(1, 6))):
            lba = draw(st.integers(0, IMAGE_SECTORS - 1025))
            count = draw(st.integers(1, 1024))
            operations.append((lba, count))
        return operations
    return ops(), ops(), draw(st.floats(0.05, 0.6))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules())
def test_property_consistency_across_resume(schedule):
    before_ops, after_ops, run_fraction = schedule
    image = OsImage(size_bytes=IMAGE_MB * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.1)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env
    oracle = IntervalMap()
    for start, end, token in image.contents.runs():
        oracle.set_range(start, end - start, token)

    vmm1 = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                     image_sectors=image.total_sectors, policy=POLICY,
                     auto_devirtualize=False)
    guest = GuestOs(node.machine, image)
    counter = [0]

    def write(lba, count):
        counter[0] += 1
        token = ("resume-prop", counter[0])
        yield from guest.driver.write(lba, count, token)
        guest.written.set_range(lba, count, True)
        oracle.set_range(lba, count, token)

    def first_life():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm1.boot()
        for lba, count in before_ops:
            yield from write(lba, count)
        # Let deployment run partway, then shut down.
        yield env.timeout(run_fraction * 2.0)
        yield from vmm1.shutdown()

    env.run(until=env.process(first_life()))
    assert vmm1.phase == "off"
    filled_before = vmm1.bitmap.filled_count

    vmm2 = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                     image_sectors=image.total_sectors, policy=POLICY,
                     resume=True)
    guest2 = GuestOs(node.machine, image)

    def write2(lba, count):
        counter[0] += 1
        token = ("resume-prop", counter[0])
        yield from guest2.driver.write(lba, count, token)
        guest2.written.set_range(lba, count, True)
        oracle.set_range(lba, count, token)

    def second_life():
        yield from node.machine.firmware.reboot()
        yield from node.machine.firmware.network_boot()
        yield from vmm2.boot()
        for lba, count in after_ops:
            yield from write2(lba, count)
        yield vmm2.copier.done

    env.run(until=env.process(second_life()))
    env.run(until=env.now + 5.0)

    # The resumed VMM picked up the saved state (unless the first life
    # finished nothing, which is fine).
    if filled_before:
        assert vmm2.resumed_from_disk
    assert vmm2.bitmap.complete
    assert vmm2.phase == "baremetal"
    disk = node.disk.contents
    for start, end, token in oracle.runs():
        for run_start, run_end, disk_token in disk.runs_in(
                start, end - start):
            assert disk_token == token, (
                f"sector {run_start}: disk {disk_token!r} != oracle "
                f"{token!r} (filled before shutdown: {filled_before})")

"""Property-based end-to-end tests of deployment consistency.

The paper's hardest correctness claim (3.3): no interleaving of guest
I/O and background copy may ever lose a guest write or return wrong
data to a guest read.  Hypothesis drives randomized guest workloads
against a deploying instance and checks every read against an oracle,
plus the final disk against the image.
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
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy

MB = 2**20
IMAGE_MB = 24
IMAGE_SECTORS = IMAGE_MB * MB // params.SECTOR_BYTES


@st.composite
def guest_workloads(draw):
    """A random schedule of guest operations during deployment."""
    operations = []
    for _ in range(draw(st.integers(3, 14))):
        kind = draw(st.sampled_from(["read", "write", "write", "pause"]))
        lba = draw(st.integers(0, IMAGE_SECTORS - 2049))
        count = draw(st.integers(1, 2048))
        delay = draw(st.floats(0.0, 0.2))
        operations.append((kind, lba, count, delay))
    return operations


def run_workload(operations, controller, policy):
    image = OsImage(size_bytes=IMAGE_MB * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(disk_controller=controller, image=image)
    node = testbed.node
    env = testbed.env
    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                    image_sectors=image.total_sectors, policy=policy)
    guest = GuestOs(node.machine, image)

    # Oracle: what every sector must read as (image token unless the
    # guest overwrote it).
    oracle = IntervalMap()
    for start, end, token in image.contents.runs():
        oracle.set_range(start, end - start, token)
    failures = []

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        for kind, lba, count, delay in operations:
            if delay:
                yield env.timeout(delay)
            if kind == "pause":
                continue
            if kind == "write":
                token = yield from _guest_write(guest, lba, count)
                oracle.set_range(lba, count, token)
            else:
                buffer = yield from guest.read(lba, count)
                expected = list(oracle.runs_in(lba, count))
                if buffer.runs != expected:
                    failures.append((lba, count, buffer.runs, expected))
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    return testbed, vmm, guest, oracle, failures


def _guest_write(guest, lba, count):
    guest._write_counter += 1
    token = (guest.name, "prop", guest._write_counter)
    yield from guest.driver.write(lba, count, token)
    guest.written.set_range(lba, count, True)
    return token


def check_final_state(testbed, vmm, guest, oracle, failures):
    assert not failures, f"guest reads returned wrong data: {failures[0]}"
    assert vmm.bitmap.complete
    assert vmm.phase == "baremetal"
    # Every sector of the image region must match the oracle.
    disk = testbed.node.disk.contents
    for start, end, token in oracle.runs():
        for run_start, run_end, disk_token in disk.runs_in(
                start, end - start):
            assert disk_token == token, (
                f"sector {run_start}: disk has {disk_token!r}, "
                f"oracle says {token!r}")


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(guest_workloads())
def test_property_no_lost_writes_ahci_fullspeed(operations):
    state = run_workload(operations, "ahci", FULL_SPEED)
    check_final_state(*state)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(guest_workloads())
def test_property_no_lost_writes_ide_fullspeed(operations):
    state = run_workload(operations, "ide", FULL_SPEED)
    check_final_state(*state)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(guest_workloads())
def test_property_no_lost_writes_moderated(operations):
    policy = ModerationPolicy(write_interval=2e-3,
                              suspend_interval=20e-3,
                              guest_io_threshold=50.0)
    state = run_workload(operations, "ahci", policy)
    check_final_state(*state)


def test_oracle_harness_detects_corruption():
    """Meta-test: the checker itself must catch a planted corruption."""
    state = run_workload([("write", 100, 50, 0.0)], "ahci", FULL_SPEED)
    testbed, vmm, guest, oracle, failures = state
    testbed.node.disk.contents.set_range(100, 1, "corrupted")
    with pytest.raises(AssertionError):
        check_final_state(*state)

"""Concurrent guest I/O during deployment.

The AHCI controller supports 32 outstanding command slots; a real guest
issues I/O from many processes at once.  These tests stress the mediator
with genuinely concurrent guest streams racing the background copy.
"""

import pytest

from repro.cloud.scenario import build_testbed
from repro.guest.driver_ahci import AhciDriver
from repro.guest.osimage import OsImage
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy

MB = 2**20


def make(size_mb=48, policy=FULL_SPEED):
    image = OsImage(size_bytes=size_mb * MB, boot_read_bytes=2 * MB,
                    boot_think_seconds=0.5)
    testbed = build_testbed(disk_controller="ahci", image=image)
    node = testbed.node
    vmm = BmcastVmm(testbed.env, node.machine, node.vmm_nic,
                    testbed.fabric,
                    image_sectors=image.total_sectors, policy=policy)
    return testbed, vmm


def boot(testbed, vmm):
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()

    env.run(until=env.process(scenario()))


def test_parallel_readers_all_get_image_data():
    testbed, vmm = make()
    env = testbed.env
    boot(testbed, vmm)
    driver = AhciDriver(testbed.node.machine)
    results = {}

    def reader(name, base):
        collected = []
        for index in range(12):
            buffer = yield from driver.read(base + index * 256, 128)
            collected.extend(buffer.runs)
        results[name] = collected

    processes = [
        env.process(reader(f"r{stream}", stream * 16384))
        for stream in range(4)
    ]
    env.run(until=env.all_of(processes))
    for name, runs in results.items():
        for start, end, token in runs:
            assert token == (testbed.image.name, 0), \
                f"{name} read wrong data at {start}"


def test_parallel_writers_and_readers_during_copy():
    testbed, vmm = make(policy=ModerationPolicy(write_interval=2e-3))
    env = testbed.env
    boot(testbed, vmm)
    driver = AhciDriver(testbed.node.machine)
    writes = {}

    def writer(stream):
        base = 10000 + stream * 4096
        for index in range(10):
            lba = base + index * 64
            token = ("stress", stream, index)
            yield from driver.write(lba, 32, token)
            writes[lba] = token

    def reader(stream):
        for index in range(10):
            yield from driver.read(40000 + stream * 2048 + index * 64, 64)

    processes = [env.process(writer(stream)) for stream in range(3)]
    processes += [env.process(reader(stream)) for stream in range(3)]
    env.run(until=env.all_of(processes))
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)

    disk = testbed.node.disk.contents
    for lba, token in writes.items():
        assert disk.get(lba) == token, f"lost write at {lba}"
    assert vmm.bitmap.complete
    assert vmm.phase == "baremetal"


def test_heavy_concurrency_keeps_interrupt_accounting_clean():
    testbed, vmm = make()
    env = testbed.env
    boot(testbed, vmm)
    driver = AhciDriver(testbed.node.machine)

    def worker(stream):
        for index in range(15):
            yield from driver.read((stream * 7919 + index * 131) % 90000,
                                   16)

    processes = [env.process(worker(stream)) for stream in range(6)]
    env.run(until=env.all_of(processes))
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    machine = testbed.node.machine
    line = vmm.mediator.irq_line
    # Nothing left pending: every interrupt was either consumed by the
    # guest or suppressed as the VMM's own.
    assert not machine.interrupts.is_pending(line)
    assert vmm.mediator.quiescent

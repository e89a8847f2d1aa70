"""Tests for the controller models driven by real guest drivers."""

import pytest

from repro.guest.driver_ahci import AhciDriver
from repro.guest.driver_ide import IdeDriver
from repro.guest.driver_megaraid import MegaRaidDriver
from repro.hw.machine import Machine, MachineSpec
from repro.sim import Environment
from repro.storage import ide
from repro.storage.ahci import AhciController
from repro.storage.blockdev import BlockOp
from repro.storage.disk import Disk
from repro.storage.ide import IdeController, Taskfile, decode_request
from repro.storage.megaraid import MegaRaidController


def make_ide():
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller="ide"))
    disk = Disk(env)
    controller = IdeController(env, disk, machine)
    driver = IdeDriver(machine)
    return env, machine, disk, controller, driver


def make_ahci():
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller="ahci"))
    disk = Disk(env)
    controller = AhciController(env, disk, machine)
    driver = AhciDriver(machine)
    return env, machine, disk, controller, driver


def make_megaraid():
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller="megaraid"))
    disk = Disk(env)
    controller = MegaRaidController(env, disk, machine)
    driver = MegaRaidDriver(machine)
    return env, machine, disk, controller, driver


MAKERS = {"ide": make_ide, "ahci": make_ahci, "megaraid": make_megaraid}


def run(env, generator):
    return env.run(until=env.process(generator))


# -- taskfile decode ----------------------------------------------------------

def test_taskfile_lba28_decode():
    taskfile = Taskfile()
    taskfile.load(lba=0x1234567, sector_count=16, ext=False)
    assert taskfile.decode_lba(ext=False) == 0x1234567
    assert taskfile.decode_sector_count(ext=False) == 16


def test_taskfile_lba28_count_zero_means_256():
    taskfile = Taskfile()
    taskfile.load(lba=0, sector_count=256, ext=False)
    assert taskfile.decode_sector_count(ext=False) == 256


def test_taskfile_lba48_decode():
    taskfile = Taskfile()
    taskfile.load(lba=0x123456789AB, sector_count=2048, ext=True)
    assert taskfile.decode_lba(ext=True) == 0x123456789AB
    assert taskfile.decode_sector_count(ext=True) == 2048


def test_taskfile_lba48_count_zero_means_65536():
    taskfile = Taskfile()
    taskfile.load(lba=0, sector_count=65536, ext=True)
    assert taskfile.decode_sector_count(ext=True) == 65536


def test_taskfile_range_validation():
    taskfile = Taskfile()
    with pytest.raises(ValueError):
        taskfile.load(lba=1 << 28, sector_count=1, ext=False)
    with pytest.raises(ValueError):
        taskfile.load(lba=0, sector_count=257, ext=False)
    with pytest.raises(ValueError):
        taskfile.load(lba=0, sector_count=0, ext=True)


def test_decode_request_read_and_write():
    taskfile = Taskfile()
    taskfile.load(lba=100, sector_count=8, ext=True)
    request = decode_request(taskfile, ide.CMD_READ_DMA_EXT)
    assert request.op is BlockOp.READ
    assert request.lba == 100
    assert request.sector_count == 8
    request = decode_request(taskfile, ide.CMD_WRITE_DMA_EXT)
    assert request.op is BlockOp.WRITE


def test_decode_request_non_dma_returns_none():
    taskfile = Taskfile()
    assert decode_request(taskfile, ide.CMD_IDENTIFY) is None


# -- IDE end-to-end --------------------------------------------------------------

def test_ide_write_read_roundtrip():
    env, machine, disk, controller, driver = make_ide()

    def proc():
        yield from driver.write(500, 64, token="data-v1")
        buffer = yield from driver.read(500, 64)
        return buffer.runs

    runs = run(env, proc())
    assert runs == [(500, 564, "data-v1")]
    assert controller.commands_executed == 2
    assert controller.interrupts_raised == 2


def test_ide_read_empty_disk_returns_gap():
    env, machine, disk, controller, driver = make_ide()

    def proc():
        buffer = yield from driver.read(0, 8)
        return buffer.runs

    assert run(env, proc()) == [(0, 8, None)]


def test_ide_flush_and_identify():
    env, machine, disk, controller, driver = make_ide()

    def proc():
        yield from driver.identify()
        yield from driver.write(0, 1, token="x")
        yield from driver.flush()

    run(env, proc())
    assert controller.commands_executed == 3


def test_ide_unknown_command_sets_error():
    env, machine, disk, controller, driver = make_ide()
    controller.pio_write(ide.REG_COMMAND, 0xFF)
    assert controller.status & ide.STATUS_ERR


def test_ide_sequential_reads_have_disk_timing():
    env, machine, disk, controller, driver = make_ide()

    def proc():
        yield from driver.write(0, 2048, token="x")
        start = env.now
        yield from driver.read(0, 2048)
        return env.now - start

    duration = run(env, proc())
    # 1 MB at ~116 MB/s plus overheads: between 5 ms and 50 ms.
    assert 5e-3 < duration < 50e-3


# -- every controller through the shared driver core ---------------------------

@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_large_transfer_split_across_commands(kind):
    env, machine, disk, controller, driver = MAKERS[kind]()
    sectors = 65536 + 1000

    def proc():
        yield from driver.write(0, sectors, token="big")
        buffer = yield from driver.read(0, sectors)
        return buffer.runs

    runs = run(env, proc())
    assert runs == [(0, sectors, "big")]
    assert controller.commands_executed == 4  # 2 writes + 2 reads
    assert driver.requests_completed == 4
    assert driver.sectors_transferred == 2 * sectors


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_latency_metrics(kind):
    env, machine, disk, controller, driver = MAKERS[kind]()

    def proc():
        for _ in range(5):
            yield from driver.read(1000, 8)
        reads_latency = driver.total_latency
        yield from driver.flush()
        return reads_latency

    reads_latency = run(env, proc())
    # Per data command: the flush counts toward neither.
    assert driver.requests_completed == 5
    assert driver.total_latency == reads_latency
    assert driver.mean_latency == reads_latency / 5 > 0


@pytest.mark.parametrize("kind", sorted(MAKERS))
@pytest.mark.parametrize("sector_count", [0, -8])
def test_non_positive_sector_count_rejected(kind, sector_count):
    env, machine, disk, controller, driver = MAKERS[kind]()

    def proc():
        yield from driver.read(0, sector_count)

    with pytest.raises(ValueError, match="sector_count must be positive"):
        run(env, proc())
    assert controller.commands_executed == 0


# -- AHCI end-to-end ---------------------------------------------------------------

def test_ahci_write_read_roundtrip():
    env, machine, disk, controller, driver = make_ahci()

    def proc():
        yield from driver.write(123, 16, token="ahci-data")
        buffer = yield from driver.read(123, 16)
        return buffer.runs

    runs = run(env, proc())
    assert runs == [(123, 139, "ahci-data")]
    assert controller.commands_executed == 2


def test_ahci_issue_without_start_rejected():
    env, machine, disk, controller, driver = make_ahci()
    with pytest.raises(RuntimeError):
        controller.mmio_write(controller.abar + 0x138, 1)


def test_ahci_multiple_outstanding_commands():
    env, machine, disk, controller, driver = make_ahci()
    done = []

    def issuer(lba):
        yield from driver.write(lba, 256, token=f"w{lba}")
        done.append(lba)

    def setup():
        yield from driver.start()

    run(env, setup())
    env.process(issuer(0))
    env.process(issuer(100000))
    env.process(issuer(200000))
    env.run()
    assert sorted(done) == [0, 100000, 200000]
    assert disk.contents.get(0) == "w0"
    assert disk.contents.get(100000) == "w100000"


def test_ahci_interrupt_only_when_enabled():
    env, machine, disk, controller, driver = make_ahci()

    def proc():
        # Start the port but disable interrupts; poll completion instead.
        yield from driver.start()
        yield from driver._mmio_write(0x114, 0)  # PxIE = 0
        from repro.storage.ahci import (CommandFis, CommandTable,
                                        CommandHeader)
        from repro.storage.ide import CMD_WRITE_DMA_EXT
        from repro.storage.blockdev import SectorBuffer
        buffer = SectorBuffer(0, 8)
        buffer.fill_constant("polled")
        addr = machine.hostmem.allocate(buffer)
        table = CommandTable(CommandFis(CMD_WRITE_DMA_EXT, 0, 8), [addr])
        ctba = machine.hostmem.allocate(table)
        driver._command_list[0] = CommandHeader(ctba)
        yield from driver._mmio_write(0x138, 1)
        while (yield from driver._mmio_read(0x138)) & 1:
            yield env.timeout(1e-3)

    run(env, proc())
    assert controller.commands_executed >= 1
    assert controller.interrupts_raised == 0
    assert disk.contents.get(0) == "polled"


def test_ahci_busy_flag_tracks_active_slots():
    env, machine, disk, controller, driver = make_ahci()

    def proc():
        yield from driver.start()
        assert not controller.busy
        yield from driver.write(0, 1024, token="x")
        assert not controller.busy

    run(env, proc())


def test_ahci_free_slot_helper():
    env, machine, disk, controller, driver = make_ahci()
    assert controller.free_slot() == 0
    controller._active_slots.add(0)
    controller.pxci |= 1
    assert controller.free_slot() == 1

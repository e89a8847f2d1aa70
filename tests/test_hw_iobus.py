"""Tests for the I/O bus and the VMM interception layer."""

import pytest

from repro.hw.cpu import Cpu
from repro.hw.iobus import BusError, IoBus
from repro.sim import Environment


class FakeDevice:
    """Register file recording accesses."""

    def __init__(self):
        self.registers = {}
        self.writes = []

    def pio_read(self, port):
        return self.registers.get(port, 0)

    def pio_write(self, port, value):
        self.registers[port] = value
        self.writes.append((port, value))

    mmio_read = pio_read
    mmio_write = pio_write


def setup_bus():
    env = Environment()
    bus = IoBus(env)
    device = FakeDevice()
    bus.register_pio(range(0x1F0, 0x1F8), device)
    bus.register_mmio(0xFEB00000, 0x1000, device)
    cpu = Cpu(env, 0)
    return env, bus, device, cpu


def run(env, generator):
    return env.run(until=env.process(generator))


def test_direct_pio_read_write():
    env, bus, device, cpu = setup_bus()

    def proc():
        yield from bus.pio_write(0x1F0, 0xAB, cpu=cpu)
        value = yield from bus.pio_read(0x1F0, cpu=cpu)
        return value

    assert run(env, proc()) == 0xAB
    assert bus.direct_accesses == 2
    assert bus.intercepted_accesses == 0


def test_unmapped_port_raises():
    env, bus, device, cpu = setup_bus()

    def proc():
        yield from bus.pio_read(0x9999, cpu=cpu)

    with pytest.raises(BusError):
        run(env, proc())


def test_double_registration_rejected():
    env, bus, device, cpu = setup_bus()
    with pytest.raises(BusError):
        bus.register_pio([0x1F0], FakeDevice())


def test_overlapping_mmio_rejected():
    env, bus, device, cpu = setup_bus()
    with pytest.raises(BusError):
        bus.register_mmio(0xFEB00800, 0x1000, FakeDevice())


def test_intercept_fires_only_in_guest_mode():
    env, bus, device, cpu = setup_bus()
    seen = []

    def hook(access):
        seen.append((access.is_write, access.address, access.value))
        yield env.timeout(0)

    bus.intercept_pio([0x1F7], hook)

    def proc():
        # Not in guest mode: no interception.
        yield from bus.pio_write(0x1F7, 1, cpu=cpu)
        cpu.vmxon()
        cpu.vmenter()
        # Guest mode: intercepted.
        yield from bus.pio_write(0x1F7, 2, cpu=cpu)

    run(env, proc())
    assert seen == [(True, 0x1F7, 2)]
    assert bus.intercepted_accesses == 1
    assert cpu.total_exits == 1


def test_intercept_costs_time():
    env, bus, device, cpu = setup_bus()

    def hook(access):
        yield env.timeout(0)

    bus.intercept_pio([0x1F7], hook)
    cpu.vmxon()
    cpu.vmenter()

    def proc():
        yield from bus.pio_write(0x1F7, 1, cpu=cpu)

    run(env, proc())
    assert env.now > 0


def test_intercept_write_forwarded_by_default():
    env, bus, device, cpu = setup_bus()

    def hook(access):
        yield env.timeout(0)

    bus.intercept_pio([0x1F0], hook)
    cpu.vmxon()
    cpu.vmenter()

    def proc():
        yield from bus.pio_write(0x1F0, 0x55, cpu=cpu)

    run(env, proc())
    assert device.registers[0x1F0] == 0x55


def test_intercept_can_absorb_write():
    env, bus, device, cpu = setup_bus()

    def hook(access):
        access.absorb = True
        yield env.timeout(0)

    bus.intercept_pio([0x1F0], hook)
    cpu.vmxon()
    cpu.vmenter()

    def proc():
        yield from bus.pio_write(0x1F0, 0x55, cpu=cpu)

    run(env, proc())
    assert 0x1F0 not in device.registers


def test_intercept_can_emulate_read_reply():
    env, bus, device, cpu = setup_bus()
    device.registers[0x1F7] = 0x50  # real status

    def hook(access):
        access.reply = 0x80  # emulate BSY
        yield env.timeout(0)

    bus.intercept_pio([0x1F7], hook)
    cpu.vmxon()
    cpu.vmenter()

    def proc():
        value = yield from bus.pio_read(0x1F7, cpu=cpu)
        return value

    assert run(env, proc()) == 0x80


def test_hook_handling_in_place_costs_only_the_exit():
    env, bus, device, cpu = setup_bus()
    device.registers[0x1F7] = 0x50

    def generator_hook(access):
        access.reply = 0x80
        yield env.timeout(0)

    def plain_hook(access):
        access.reply = 0x80

    def read():
        start = env.now
        value = yield from bus.pio_read(0x1F7, cpu=cpu)
        return value, env.now - start

    results = []
    for hook in (generator_hook, plain_hook):
        bus.uninstall_pio_intercepts([0x1F7])
        bus.intercept_pio([0x1F7], hook)
        cpu.vmxon()
        cpu.vmenter()
        before = env.events_processed
        value, took = run(env, read())
        results.append((value, took, env.events_processed - before))
        cpu.vmxoff()
    (value, took, events), (plain_value, plain_took, plain_events) = results
    assert value == plain_value == 0x80
    assert plain_took == took > 0
    assert plain_events == events - 1


def test_mmio_interception():
    env, bus, device, cpu = setup_bus()
    seen = []

    def hook(access):
        seen.append(access.address)
        yield env.timeout(0)

    bus.intercept_mmio(0xFEB00000, 0x1000, hook)
    cpu.vmxon()
    cpu.vmenter()

    def proc():
        yield from bus.mmio_write(0xFEB00010, 7, cpu=cpu)
        value = yield from bus.mmio_read(0xFEB00010, cpu=cpu)
        return value

    assert run(env, proc()) == 7
    assert seen == [0xFEB00010, 0xFEB00010]


def test_clear_all_intercepts_devirtualizes_bus():
    env, bus, device, cpu = setup_bus()

    def hook(access):
        yield env.timeout(0)

    bus.intercept_pio([0x1F0], hook)
    bus.intercept_mmio(0xFEB00000, 0x1000, hook)
    assert bus.has_intercepts
    bus.clear_all_intercepts()
    assert not bus.has_intercepts
    cpu.vmxon()
    cpu.vmenter()

    def proc():
        yield from bus.pio_write(0x1F0, 1, cpu=cpu)

    run(env, proc())
    assert bus.intercepted_accesses == 0
    assert cpu.total_exits == 0


def test_direct_access_is_free():
    env, bus, device, cpu = setup_bus()

    def proc():
        for _ in range(100):
            yield from bus.pio_write(0x1F0, 1, cpu=cpu)

    run(env, proc())
    assert env.now == 0.0

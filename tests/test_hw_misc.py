"""Tests for interrupts, PCI, MMU model, firmware, machine, platform."""

import pytest

from repro import params
from repro.hw.interrupts import IRQ_DELIVERY_SECONDS, InterruptController
from repro.hw.machine import Machine, MachineSpec
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import MemoryProfile, MmuFault, NestedPageTable
from repro.hw.pci import INVALID_VENDOR, PciBus, PciDevice
from repro.hw.platform import BAREMETAL, PlatformCondition
from repro.sim import Environment


# -- interrupts ---------------------------------------------------------------

def test_irq_delivered_to_waiter():
    env = Environment()
    intc = InterruptController(env)
    log = []

    def driver(env):
        line = yield intc.wait(14)
        log.append((env.now, line))

    env.process(driver(env))

    def device(env):
        yield env.timeout(1)
        intc.raise_irq(14)

    env.process(device(env))
    env.run()
    assert len(log) == 1
    assert log[0][1] == 14
    assert intc.delivered[14] == 1


def test_irq_delivery_is_one_timer_per_waiter():
    env = Environment()
    intc = InterruptController(env)
    waits = [intc.wait(14), intc.wait(14)]
    env.timeout(1).callbacks.append(lambda _event: intc.raise_irq(14))
    env.run()
    for event in waits:
        assert event.processed and event.value == 14
    # The raising timeout, one delivery timer and the waiter's event
    # per waiter: no helper process per delivery.
    assert env.events_processed == 1 + 2 * 2
    assert env.now == 1 + IRQ_DELIVERY_SECONDS


def test_irq_pending_when_no_waiter():
    env = Environment()
    intc = InterruptController(env)
    intc.raise_irq(5)
    assert intc.is_pending(5)
    log = []

    def driver(env):
        line = yield intc.wait(5)
        log.append(line)

    env.process(driver(env))
    env.run()
    assert log == [5]
    assert not intc.is_pending(5)


def test_masked_irq_suppressed_and_held_pending():
    env = Environment()
    intc = InterruptController(env)
    intc.mask(14)
    intc.raise_irq(14)
    assert intc.suppressed[14] == 1
    assert intc.is_pending(14)
    assert intc.delivered[14] == 0


def test_clear_pending_before_unmask_hides_vmm_interrupt():
    # The mediator's dance: mask, let the device interrupt for the VMM's
    # own request, ack the device, clear pending, unmask -> the guest
    # never sees it.
    env = Environment()
    intc = InterruptController(env)
    seen = []

    def driver(env):
        line = yield intc.wait(14)
        seen.append(line)

    env.process(driver(env))
    intc.mask(14)
    intc.raise_irq(14)       # VMM's interrupt, suppressed
    intc.clear_pending(14)
    intc.unmask(14)
    env.run(until=1.0)
    assert seen == []


def test_unmask_delivers_pending_to_waiter():
    env = Environment()
    intc = InterruptController(env)
    seen = []

    def driver(env):
        line = yield intc.wait(14)
        seen.append(line)

    env.process(driver(env))
    intc.mask(14)
    intc.raise_irq(14)
    intc.unmask(14)
    env.run()
    assert seen == [14]


def test_bad_line_rejected():
    env = Environment()
    intc = InterruptController(env, lines=4)
    with pytest.raises(ValueError):
        intc.raise_irq(99)


# -- PCI ------------------------------------------------------------------------

def make_pci():
    bus = PciBus()
    nic = PciDevice(vendor_id=0x8086, device_id=0x10D3,
                    class_code=0x020000, name="intel-pro1000")
    bus.attach(3, nic)
    return bus, nic


def test_pci_enumerate_and_read():
    bus, nic = make_pci()
    assert bus.read_vendor_id(3) == 0x8086
    assert bus.enumerate() == [(3, nic)]


def test_pci_hide_device():
    bus, nic = make_pci()
    bus.hide(3)
    assert bus.read_vendor_id(3) == INVALID_VENDOR
    assert bus.enumerate() == []
    assert bus.device_at(3) is None
    # Provider view still sees it.
    assert bus.all_slots() == [(3, nic)]
    bus.unhide(3)
    assert bus.read_vendor_id(3) == 0x8086


def test_pci_empty_slot_reads_invalid():
    bus, _ = make_pci()
    assert bus.read_vendor_id(9) == INVALID_VENDOR


def test_pci_double_attach_rejected():
    bus, nic = make_pci()
    with pytest.raises(ValueError):
        bus.attach(3, nic)


def test_pci_hide_empty_slot_rejected():
    bus, _ = make_pci()
    with pytest.raises(ValueError):
        bus.hide(9)


# -- MMU / nested paging ---------------------------------------------------------

def test_npt_trap_ranges_only_when_enabled():
    npt = NestedPageTable()
    trap = npt.add_trap_range(0xFEB00000, 0x1000, "ahci")
    assert npt.trap_for(0xFEB00010) is None  # disabled
    npt.enable()
    assert npt.trap_for(0xFEB00010) is trap
    assert npt.trap_for(0xFEC00000) is None


def test_npt_protection_enforced():
    npt = NestedPageTable()
    npt.protect(0x1000000, 0x100000, "vmm-memory")
    npt.enable()
    with pytest.raises(MmuFault):
        npt.check_guest_access(0x1000800)
    npt.check_guest_access(0x2000000)  # fine


def test_npt_disable_lifts_protection_and_flushes():
    npt = NestedPageTable()
    npt.protect(0x1000000, 0x100000)
    npt.enable()
    flushes = npt.tlb_flushes
    npt.disable()
    assert npt.tlb_flushes == flushes + 1
    npt.check_guest_access(0x1000800)  # no fault after de-virtualization


def test_memory_profile_slowdown():
    profile = MemoryProfile(tlb_stall_fraction=0.01)
    assert profile.slowdown(nested_paging=False) == 1.0
    slowdown = profile.slowdown(nested_paging=True)
    # 1% stall inflated by 5x misses * 2x walk = 10x -> +9%.
    assert slowdown == pytest.approx(1.09)


# -- platform condition ------------------------------------------------------------

def test_baremetal_condition_is_free():
    assert BAREMETAL.cpu_slowdown(0.01) == 1.0
    assert BAREMETAL.lhp_slowdown(24, 12) == 1.0
    assert BAREMETAL.memory_slowdown(16.0) == 1.0


def test_nested_paging_condition_slows_tlb_bound_work():
    condition = PlatformCondition(label="deploy", nested_paging=True)
    assert condition.cpu_slowdown(0.01) == pytest.approx(1.09)
    assert condition.cpu_slowdown(0.0) == 1.0


def test_vmm_cpu_fraction_reduces_capacity():
    condition = PlatformCondition(label="deploy", vmm_cpu_fraction=0.06)
    assert condition.cpu_slowdown() == pytest.approx(1 / 0.94)


def test_lhp_slowdown_grows_with_oversubscription():
    condition = PlatformCondition(label="kvm", lock_holder_preemption=True)
    low = condition.lhp_slowdown(2, 12)
    mid = condition.lhp_slowdown(12, 12)
    high = condition.lhp_slowdown(24, 12)
    assert low < mid < high
    assert high == pytest.approx(1.69, abs=0.02)  # paper Fig. 8: +68%


def test_memory_slowdown_scales_with_block_size():
    condition = PlatformCondition(label="kvm", memory_overhead=0.35)
    small = condition.memory_slowdown(1.0)
    large = condition.memory_slowdown(16.0)
    assert small < large
    assert large == pytest.approx(1.35, abs=0.01)


def test_condition_with_override():
    changed = BAREMETAL.with_(label="x", cpu_overhead=0.1)
    assert changed.label == "x"
    assert BAREMETAL.cpu_overhead == 0.0


# -- machine assembly ------------------------------------------------------------------

def test_machine_defaults():
    env = Environment()
    machine = Machine(env)
    assert len(machine.cpus) == params.CPU_CORES
    assert machine.memory.size_bytes == params.MEMORY_BYTES
    assert machine.condition is BAREMETAL


def test_machine_condition_log():
    env = Environment()
    machine = Machine(env)

    def proc(env):
        yield env.timeout(10)
        machine.set_condition(BAREMETAL.with_(label="deploy"))
        yield env.timeout(10)
        machine.set_condition(BAREMETAL.with_(label="devirt"))

    env.process(proc(env))
    env.run()
    assert machine.condition_log.at(5).label == "baremetal"
    assert machine.condition_log.at(15).label == "deploy"
    assert machine.condition_log.at(25).label == "devirt"


def test_machine_power_on_takes_firmware_time():
    env = Environment()
    machine = Machine(env, MachineSpec(firmware_init_seconds=133.0))

    def proc(env):
        yield from machine.power_on()

    env.run(until=env.process(proc(env)))
    assert env.now == pytest.approx(133.0)
    assert machine.firmware.initialized


def test_machine_single_disk_controller():
    env = Environment()
    machine = Machine(env)
    machine.attach_disk_controller(object())
    with pytest.raises(RuntimeError):
        machine.attach_disk_controller(object())


# -- firmware ---------------------------------------------------------------------------

def test_firmware_reboot_counts_inits():
    env = Environment()
    machine = Machine(env, MachineSpec(firmware_init_seconds=10.0))

    def proc(env):
        yield from machine.firmware.power_on()
        yield from machine.firmware.reboot()

    env.run(until=env.process(proc(env)))
    assert env.now == pytest.approx(20.0)
    assert machine.firmware.init_count == 2


def test_network_boot_requires_initialized_firmware():
    env = Environment()
    machine = Machine(env)

    def proc(env):
        yield from machine.firmware.network_boot()

    with pytest.raises(RuntimeError):
        env.run(until=env.process(proc(env)))

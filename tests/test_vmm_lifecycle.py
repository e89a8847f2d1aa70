"""Lifecycle extensions: shutdown/resume, memory hot-plug, resident mode.

These cover the paper's Section 3.3 shutdown-and-reboot case (bitmap
persisted to a guest-invisible disk region) and the Section 4.3
limitations the paper marks as fixable (memory release, keeping a
resident VMM to hide the management NIC).
"""

import pytest

from repro import params
from repro.cloud.scenario import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.hw.cpu import VmxMode
from repro.hw.pci import PciDevice
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy

MB = 2**20


def small_image(size_mb=64):
    return OsImage(size_bytes=size_mb * MB, boot_read_bytes=4 * MB,
                   boot_think_seconds=2.0)


def make(policy=FULL_SPEED, **vmm_kwargs):
    testbed = build_testbed(image=small_image())
    node = testbed.node
    vmm = BmcastVmm(testbed.env, node.machine, node.vmm_nic,
                    testbed.fabric,
                    image_sectors=testbed.image.total_sectors,
                    policy=policy, **vmm_kwargs)
    return testbed, vmm


def start(testbed, vmm):
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()

    env.run(until=env.process(scenario()))


# -- shutdown / resume -------------------------------------------------------

def test_shutdown_persists_bitmap_and_powers_off():
    testbed, vmm = make(policy=ModerationPolicy(write_interval=5e-3))
    env = testbed.env
    start(testbed, vmm)
    env.run(until=env.now + 0.5)  # copy a few blocks
    filled_before = vmm.bitmap.filled_count
    assert 0 < filled_before < vmm.bitmap.block_count

    env.run(until=env.process(vmm.shutdown()))
    assert vmm.phase == "off"
    for cpu in testbed.node.machine.cpus:
        assert cpu.mode is VmxMode.OFF
    assert not testbed.node.machine.bus.has_intercepts
    # The bitmap save is on disk, in the protected region.
    token = testbed.node.disk.contents.get(vmm.deployment.protected_lba)
    assert token[0] == BmcastVmm.BITMAP_TOKEN


def test_resume_skips_already_filled_blocks():
    testbed, vmm = make(policy=ModerationPolicy(write_interval=5e-3))
    env = testbed.env
    start(testbed, vmm)
    env.run(until=env.now + 0.5)
    env.run(until=env.process(vmm.shutdown()))
    filled_before = vmm.bitmap.filled_count
    server_reads_before = testbed.stores[0].reads

    # Reboot: a fresh VMM instance resumes from the saved bitmap.
    node = testbed.node
    vmm2 = BmcastVmm(env, node.machine, node.vmm_nic,
                     testbed.fabric,
                     image_sectors=testbed.image.total_sectors,
                     policy=FULL_SPEED, resume=True)

    def reboot():
        yield from node.machine.firmware.reboot()
        yield from node.machine.firmware.network_boot()
        yield from vmm2.boot()
        yield vmm2.copier.done

    env.run(until=env.process(reboot()))
    env.run(until=env.now + 5.0)
    assert vmm2.resumed_from_disk
    assert vmm2.bitmap.complete
    # The resumed deployment fetched only the remaining blocks.
    refetched = vmm2.copier.blocks_filled
    assert refetched == vmm2.bitmap.block_count - filled_before
    assert testbed.image.verify_deployed(testbed.node.disk.contents)
    assert testbed.stores[0].reads > server_reads_before


def test_resume_without_saved_bitmap_starts_fresh():
    testbed, vmm = make(resume=True)
    start(testbed, vmm)
    assert not vmm.resumed_from_disk
    assert vmm.bitmap.filled_count >= 0


def test_shutdown_from_wrong_phase_rejected():
    testbed, vmm = make()
    env = testbed.env
    start(testbed, vmm)
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    assert vmm.phase == "baremetal"

    def proc():
        yield from vmm.shutdown()

    with pytest.raises(RuntimeError):
        env.run(until=env.process(proc()))


def test_guest_cannot_corrupt_saved_bitmap():
    """The protected-region conversion (paper 3.3): guest writes to the
    bitmap region are dropped, so the save survives a hostile guest."""
    testbed, vmm = make(policy=ModerationPolicy(write_interval=5e-3))
    env = testbed.env
    start(testbed, vmm)
    env.run(until=env.now + 0.5)

    def persist_then_attack():
        yield from vmm.persist_bitmap()
        guest = GuestOs(testbed.node.machine, testbed.image)
        yield from guest.write(vmm.deployment.protected_lba, 8,
                               tag="corrupt")

    env.run(until=env.process(persist_then_attack()))
    token = testbed.node.disk.contents.get(vmm.deployment.protected_lba)
    assert token[0] == BmcastVmm.BITMAP_TOKEN  # still the VMM's save


# -- memory hot-plug ------------------------------------------------------------

def test_memory_not_released_by_default():
    """The prototype's documented limitation (paper 4.3)."""
    testbed, vmm = make()
    env = testbed.env
    start(testbed, vmm)
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    assert testbed.node.machine.memory.reserved_bytes \
        == params.VMM_RESERVED_BYTES


def test_memory_hotplug_release_extension():
    testbed, vmm = make(release_memory=True)
    env = testbed.env
    start(testbed, vmm)
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    assert vmm.phase == "baremetal"
    assert testbed.node.machine.memory.reserved_bytes == 0
    assert testbed.node.machine.memory.usable_bytes \
        == testbed.node.machine.memory.size_bytes


# -- resident mode (management NIC hiding) ----------------------------------------

def test_resident_mode_keeps_vmx_and_hides_nic():
    testbed, vmm = make(vmxoff_mode="resident", management_nic_slot=4)
    machine = testbed.node.machine
    machine.pci.attach(4, PciDevice(vendor_id=0x8086, device_id=0x10D3,
                                    class_code=0x020000,
                                    name="management-nic"))
    env = testbed.env
    start(testbed, vmm)
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    assert vmm.phase == "baremetal"
    # The VMM stays resident: VMX still on, but no intercepts or nested
    # paging remain, so overhead is negligible (only CPUID exits).
    assert vmm.devirtualizer.residual_vmx
    assert not machine.bus.has_intercepts
    assert all(not cpu.npt.enabled for cpu in machine.cpus)
    # The management NIC is invisible to the guest's PCI scan.
    assert machine.pci.device_at(4) is None
    assert machine.pci.read_vendor_id(4) == 0xFFFF


def test_full_vmxoff_leaves_nic_visible():
    testbed, vmm = make(vmxoff_mode="full")
    machine = testbed.node.machine
    machine.pci.attach(4, PciDevice(vendor_id=0x8086, device_id=0x10D3,
                                    class_code=0x020000,
                                    name="management-nic"))
    env = testbed.env
    start(testbed, vmm)
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    assert not vmm.devirtualizer.residual_vmx
    # Paper 4.3: after full VMXOFF the dedicated NIC can be found by
    # the guest if it looks.
    assert machine.pci.device_at(4) is not None

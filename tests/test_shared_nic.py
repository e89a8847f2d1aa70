"""Tests for the e1000 ring-buffer NIC and the shared-NIC mediator
(paper Section 6)."""

import pytest

from repro.cloud.scenario import build_testbed
from repro.guest.driver_e1000 import E1000Driver
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.net.e1000 import E1000Nic
from repro.net.nic import Nic
from repro.sim import Interrupt
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.mediator_nic import NicMediator, SharedNicPort
from repro.vmm.moderation import FULL_SPEED

MB = 2**20
E1000_BASE = 0xFE00_0000


def small_image(size_mb=32):
    return OsImage(size_bytes=size_mb * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=1.0)


def make_testbed(**kwargs):
    testbed = build_testbed(image=small_image(), **kwargs)
    node = testbed.node
    nic = E1000Nic(testbed.env, testbed.switch,
                   f"{node.machine.name}-e1000", node.machine,
                   mmio_base=E1000_BASE)
    peer = Nic(testbed.env, testbed.switch, "peer")
    return testbed, nic, peer


def echo_service(env, peer):
    """Echo every frame back to its sender."""
    def loop():
        try:
            while True:
                frame = yield from peer.recv()
                yield from peer.send(frame.src, frame.payload,
                                     frame.payload_bytes,
                                     protocol=frame.protocol)
        except Interrupt:
            return
    return env.process(loop(), name="echo")


def run(env, generator):
    return env.run(until=env.process(generator))


# -- bare e1000 (no mediator) ----------------------------------------------------

def test_e1000_send_receive_roundtrip():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    echo_service(env, peer)
    driver = E1000Driver(testbed.node.machine, nic)

    def proc():
        yield from driver.send("peer", "ping", 100)
        frame = yield from driver.recv()
        return frame.payload

    assert run(env, proc()) == "ping"
    assert nic.tx_frames == 1
    assert nic.rx_frames == 1
    assert driver.frames_received == 1


def test_e1000_many_frames_in_order():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    echo_service(env, peer)
    driver = E1000Driver(testbed.node.machine, nic)
    received = []

    def proc():
        for index in range(20):
            yield from driver.send("peer", f"m{index}", 100)
        for _ in range(20):
            frame = yield from driver.recv()
            received.append(frame.payload)

    run(env, proc())
    assert received == [f"m{index}" for index in range(20)]


def test_e1000_drops_when_no_rx_descriptors():
    testbed, nic, peer = make_testbed()
    env = testbed.env

    def flood():
        # NIC not configured by any driver: every frame drops.
        for _ in range(5):
            yield from peer.send(nic.name, "x", 100)

    run(env, flood())
    env.run()
    assert nic.rx_dropped == 5


def test_e1000_head_registers_are_device_owned():
    testbed, nic, peer = make_testbed()
    from repro.net.e1000 import REG_RDH
    with pytest.raises(ValueError):
        nic.mmio_write(nic.mmio_base + REG_RDH, 3)


# -- shared-NIC mediation ------------------------------------------------------------

def make_shared_vmm(testbed, nic):
    node = testbed.node
    mediator = NicMediator(testbed.env, node.machine, nic)
    port = SharedNicPort(mediator)
    vmm = BmcastVmm(testbed.env, node.machine, port, testbed.fabric,
                    image_sectors=testbed.image.total_sectors,
                    policy=FULL_SPEED, extra_mediators=[mediator])
    return vmm, mediator


def boot_vmm(testbed, vmm):
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()

    env.run(until=env.process(scenario()))


def test_guest_traffic_transparent_through_mediator():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    echo_service(env, peer)
    vmm, mediator = make_shared_vmm(testbed, nic)
    boot_vmm(testbed, vmm)
    driver = E1000Driver(testbed.node.machine, nic)

    def proc():
        yield from driver.send("peer", "hello-via-mediator", 200)
        frame = yield from driver.recv()
        return frame.payload

    assert run(env, proc()) == "hello-via-mediator"
    assert mediator.guest_tx_forwarded == 1
    assert mediator.guest_frames_delivered == 1
    # The guest never touched the real device registers.
    assert nic.tdba == mediator._s_tx_address


def test_full_deployment_over_shared_nic():
    """The strongest Section-6 claim: the whole streaming deployment —
    AoE commands, bulk fetches, redirects — runs over the guest's own
    NIC, interleaved with guest traffic through the shadow rings."""
    testbed, nic, peer = make_testbed()
    env = testbed.env
    echo_service(env, peer)
    vmm, mediator = make_shared_vmm(testbed, nic)
    boot_vmm(testbed, vmm)
    guest = GuestOs(testbed.node.machine, testbed.image)
    driver = E1000Driver(testbed.node.machine, nic)
    rtts = []

    def guest_traffic():
        for _ in range(30):
            start = env.now
            yield from driver.send("peer", "ping", 100)
            yield from driver.recv()
            rtts.append(env.now - start)
            yield env.timeout(5e-3)

    def scenario():
        yield from guest.boot()
        yield from guest_traffic()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    assert vmm.bitmap.complete
    assert testbed.image.verify_deployed(testbed.node.disk.contents,
                                         guest.written)
    assert mediator.vmm_frames_sent > 0
    assert len(rtts) == 30
    # Guest networking stayed functional throughout.
    assert max(rtts) < 50e-3


def test_spurious_interrupts_dismissed_by_guest():
    """VMM traffic interrupts reach the guest (interrupt controllers are
    not virtualized); the guest driver reads a clean virtual ICR and
    ignores them (paper 3.2 / 6)."""
    testbed, nic, peer = make_testbed()
    env = testbed.env
    vmm, mediator = make_shared_vmm(testbed, nic)
    boot_vmm(testbed, vmm)
    driver = E1000Driver(testbed.node.machine, nic)

    def proc():
        yield from driver.start()
        # Pure VMM traffic for a while: every completion interrupt the
        # device raises is irrelevant to the guest.
        yield env.timeout(0.5)

    run(env, proc())
    assert mediator.vmm_frames_sent > 0
    assert mediator.guest_frames_delivered == 0


def test_devirt_hands_nic_back_seamlessly():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    echo_service(env, peer)
    vmm, mediator = make_shared_vmm(testbed, nic)
    boot_vmm(testbed, vmm)
    driver = E1000Driver(testbed.node.machine, nic)

    def before():
        yield from driver.send("peer", "before", 100)
        frame = yield from driver.recv()
        return frame.payload

    assert run(env, before()) == "before"
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    assert vmm.phase == "baremetal"
    assert not mediator.installed
    # The real device now runs the guest's own rings.
    assert nic.tdba == driver._tx_ring_address
    assert nic.rdba == driver._rx_ring_address

    exits_before = testbed.node.machine.total_vm_exits()

    def after():
        yield from driver.send("peer", "after", 100)
        frame = yield from driver.recv()
        return frame.payload

    assert run(env, after()) == "after"
    # Zero exits: the driver talks straight to hardware now.
    assert testbed.node.machine.total_vm_exits() == exits_before

"""Edge cases for the e1000 model and the shared-NIC mediator."""

import pytest

from repro.cloud.scenario import build_testbed
from repro.guest.driver_e1000 import E1000Driver
from repro.guest.osimage import OsImage
from repro.net import e1000
from repro.net.e1000 import E1000Nic
from repro.net.nic import Nic
from repro.sim import Environment, Interrupt
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.mediator_nic import NicMediator, SharedNicPort
from repro.vmm.moderation import FULL_SPEED

MB = 2**20
E1000_BASE = 0xFE00_0000


def small_image():
    return OsImage(size_bytes=32 * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=1.0)


def make_testbed():
    testbed = build_testbed(image=small_image())
    node = testbed.node
    nic = E1000Nic(testbed.env, testbed.switch,
                   f"{node.machine.name}-e1000", node.machine,
                   mmio_base=E1000_BASE)
    peer = Nic(testbed.env, testbed.switch, "peer")
    return testbed, nic, peer


def run(env, generator):
    return env.run(until=env.process(generator))


# -- e1000 ring mechanics ------------------------------------------------------

def test_tx_ring_wraps_around():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    driver = E1000Driver(testbed.node.machine, nic)
    count = e1000.RING_SIZE + 20  # force a wrap

    def proc():
        for index in range(count):
            yield from driver.send("peer", index, 64)

    run(env, proc())
    env.run()
    assert nic.tx_frames == count
    assert driver.frames_sent == count


def test_rx_ring_wraps_around():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    driver = E1000Driver(testbed.node.machine, nic)
    count = e1000.RING_SIZE + 20
    received = []

    def sender():
        for index in range(count):
            yield from peer.send(nic.name, index, 64)

    def receiver():
        yield from driver.start()
        for _ in range(count):
            frame = yield from driver.recv()
            received.append(frame.payload)

    run(env, receiver.__call__() if False else _pair(env, receiver,
                                                     sender))
    assert received == list(range(count))


def _pair(env, receiver, sender):
    done = env.process(receiver())

    def both():
        yield env.timeout(1e-3)
        yield from sender()
        yield done

    return both()


def test_icr_read_to_clear():
    testbed, nic, peer = make_testbed()
    nic.ims = e1000.ICR_RXT0
    nic._interrupt(e1000.ICR_RXT0)
    assert nic.mmio_read(nic.mmio_base + e1000.REG_ICR) \
        == e1000.ICR_RXT0
    assert nic.mmio_read(nic.mmio_base + e1000.REG_ICR) == 0


def test_interrupt_gated_by_ims():
    testbed, nic, peer = make_testbed()
    nic.ims = 0
    nic._interrupt(e1000.ICR_RXT0)
    assert nic.interrupts_raised == 0
    nic.ims = e1000.ICR_RXT0
    nic._interrupt(e1000.ICR_RXT0)
    assert nic.interrupts_raised == 1


# -- shared-NIC mediator edges ------------------------------------------------------

def make_shared(testbed, nic):
    node = testbed.node
    mediator = NicMediator(testbed.env, node.machine, nic)
    port = SharedNicPort(mediator)
    vmm = BmcastVmm(testbed.env, node.machine, port, testbed.fabric,
                    image_sectors=testbed.image.total_sectors,
                    policy=FULL_SPEED, extra_mediators=[mediator],
                    auto_devirtualize=False)
    env = testbed.env

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()

    env.run(until=env.process(scenario()))
    return vmm, mediator


def test_guest_frames_dropped_when_guest_ring_unconfigured():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    vmm, mediator = make_shared(testbed, nic)

    def flood():
        for _ in range(5):
            yield from peer.send(nic.name, "unwanted", 100,
                                 protocol="guest")
        # Let the mediator's poll loop process the shadow ring.
        yield env.timeout(5e-3)

    run(env, flood())
    assert mediator.guest_frames_dropped == 5
    assert mediator.guest_frames_delivered == 0


def test_guest_rx_ring_overflow_drops_excess():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    vmm, mediator = make_shared(testbed, nic)
    driver = E1000Driver(testbed.node.machine, nic)

    def flood():
        yield from driver.start()
        # More frames than the guest RX ring can hold, none consumed.
        for index in range(e1000.RING_SIZE + 30):
            yield from peer.send(nic.name, index, 64,
                                 protocol="guest")
        yield env.timeout(10e-3)

    run(env, flood())
    assert mediator.guest_frames_dropped > 0
    # Whatever was delivered fits the ring (one slot is the full marker).
    assert mediator.guest_frames_delivered <= e1000.RING_SIZE - 1


def test_vmm_port_queues_frames_until_listened():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    vmm, mediator = make_shared(testbed, nic)
    port = SharedNicPort(mediator)
    assert port.name == nic.name
    assert port.switch is testbed.switch
    # With the VMM's initiator stopped, AoE frames wait for a listener.
    vmm.initiator.stop()
    assert port.receiver is None

    def send():
        yield from peer.send(nic.name, "hello", 64, protocol="aoe")
        yield env.timeout(5e-3)

    run(env, send())
    received = []
    port.listen(received.append)
    assert port.receiver is not None
    assert "hello" in [frame.payload for frame in received]
    count = len(received)
    run(env, send())
    assert len(received) > count and received[-1].payload == "hello"


def test_mediator_uninstall_requires_quiescence():
    testbed, nic, peer = make_testbed()
    env = testbed.env
    vmm, mediator = make_shared(testbed, nic)
    # Force a pending VMM frame, then try to uninstall.
    mediator._vmm_tx_queue.append(object())
    with pytest.raises(RuntimeError):
        mediator.uninstall()
    mediator._vmm_tx_queue.clear()


def test_double_install_rejected():
    testbed, nic, peer = make_testbed()
    vmm, mediator = make_shared(testbed, nic)
    with pytest.raises(RuntimeError):
        mediator.install()

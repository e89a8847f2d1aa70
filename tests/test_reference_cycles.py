"""The network's per-block machines leave no reference cycle.

A bulk stream, a reply (a frame train or a bulk reply), an AoE
exchange (its command frame, its serve and the store's read timer), a
fluid flow, and a frame's port requests and timers are allocated once
per block, reply or frame, so any of them left in a reference cycle is
freed only by the cyclic collector, whose collections then scale with
the image.  Each scenario runs with ``gc.DEBUG_SAVEALL``, which keeps
everything a collection finds unreachable in ``gc.garbage``; none of
these objects may be there.  Each scenario returns its switch or
testbed, kept alive through the final collection: what the simulation
still holds (frames in receive rings, the timeout pool) is not
garbage.
"""

import gc

import pytest

from repro import params
from repro.aoe.client import AoeInitiator, _Transaction
from repro.aoe.server import AoeServer, ImageStore, _Serve
from repro.cloud import build_testbed
from repro.cloud.provisioner import Provisioner
from repro.guest.osimage import OsImage
from repro.net.flow import Flow
from repro.net.link import EthernetSwitch, _BulkStream, _FrameRequest, _Side
from repro.net.nic import Nic
from repro.net.packet import Frame
from repro.net.train import _FrameTrain
from repro.sim import Environment, Timeout
from repro.util.intervalmap import IntervalMap

MIB = 2**20
PER_FRAME = 8740
FRAME_BYTES = 9000

PER_BLOCK = (_BulkStream, _Side, _FrameTrain, Flow, _FrameRequest, Frame,
             Timeout, _Transaction, _Serve)


def bulk_transfer(switch, src, dst, payload_bytes):
    done = switch.env.event()
    switch.start_bulk_transfer(src, dst, None, payload_bytes, PER_FRAME,
                               "aoe", done.succeed)
    yield done


def switch_with(ports):
    env = Environment()
    switch = EthernetSwitch(env)
    for name in ports:
        Nic(env, switch, name, rx_ring_size=4096)
    return env, switch


def sequential_transfers():
    env, switch = switch_with("ab")

    def transfers():
        for _ in range(1000):
            yield from bulk_transfer(switch, "a", "b", MIB)

    env.run(until=env.process(transfers()))
    return switch


def contended_streams():
    # Two streams share b's receiving port, and frames cross both
    # sending ports and that receiving port while they run.
    env, switch = switch_with("abcd")

    def later(start, body):
        yield env.timeout(start)
        yield from body

    env.process(bulk_transfer(switch, "a", "b", MIB))
    env.process(later(0.4e-3, bulk_transfer(switch, "c", "b", MIB)))
    nics = switch._ports
    for index, (src, dst) in enumerate(["ad", "db", "cd", "db"]):
        env.process(later(1e-3 + index * 0.7e-3,
                          nics[src].send(dst, index, FRAME_BYTES)))
    env.run()
    return switch


def train(env, nic, dst, count):
    """Send a ``count``-fragment reply from ``nic`` to ``dst``."""
    event = env.event()
    nic.start_train(dst, list(range(count)), [PER_FRAME] * count, "aoe",
                    3e-6, lambda _count: None, event.succeed)
    return event


def sequential_trains():
    env, switch = switch_with("ab")
    nic = switch._ports["a"]

    def replies():
        for count in range(1, 200):
            yield train(env, nic, "b", count % 9 + 1)
            yield env.timeout(0.5e-3)

    env.run(until=env.process(replies()))
    return switch


def handed_over_trains():
    # Frames and a bulk stream ask for the sending and the receiving
    # port in gaps and mid-frame, and a fluid flow starts on the
    # receiving port, while replies are planned as trains.
    env, switch = switch_with("abcd")
    nics = switch._ports

    def later(start, body):
        yield env.timeout(start)
        yield from body

    def replies():
        for _ in range(20):
            yield train(env, nics["a"], "b", 8)
            yield env.timeout(0.5e-3)

    def fluid():
        done = env.event()
        switch.start_fluid_transfer("c", "b", None, MIB // 4, PER_FRAME,
                                    "aoe", done.succeed)
        yield done

    env.process(replies())
    for index, (src, dst) in enumerate(["ad", "cb", "ad", "cb"]):
        env.process(later(1e-4 + index * 1.3e-3,
                          nics[src].send(dst, index, FRAME_BYTES)))
    env.process(later(6.1e-3, bulk_transfer(switch, "a", "d", MIB)))
    env.process(later(2.5e-2, fluid()))
    env.run()
    return switch


def bulk_reply(env, nic, dst, payload_bytes):
    """Send a bulk reply of ``payload_bytes`` from ``nic`` to ``dst``."""
    event = env.event()
    nic.start_train(dst, [None], [payload_bytes], "aoe", 3e-6,
                    lambda _count: None, event.succeed,
                    per_frame_payload=PER_FRAME)
    return event


def sequential_bulk_replies():
    env, switch = switch_with("ab")
    nic = switch._ports["a"]

    def replies():
        for _ in range(1000):
            yield bulk_reply(env, nic, "b", MIB)

    env.run(until=env.process(replies()))
    return switch


def handed_over_bulk_replies():
    # Frames, a bulk stream and a fluid flow ask for the sending and the
    # receiving port in the gap, mid-chunk and on chunk boundaries
    # while bulk replies are planned.
    env, switch = switch_with("abcd")
    nics = switch._ports

    def later(start, body):
        yield env.timeout(start)
        yield from body

    def replies():
        for _ in range(20):
            yield bulk_reply(env, nics["a"], "b", MIB // 2)
            yield env.timeout(0.5e-3)

    def fluid():
        done = env.event()
        switch.start_fluid_transfer("c", "b", None, MIB // 4, PER_FRAME,
                                    "aoe", done.succeed)
        yield done

    env.process(replies())
    for index in range(12):
        src, dst = ("ad", "cb")[index % 2]
        env.process(later(1e-4 + index * 3.7e-3,
                          nics[src].send(dst, index, FRAME_BYTES)))
    env.process(later(5.1e-2, bulk_transfer(switch, "a", "d", MIB)))
    env.process(later(6.03e-2, bulk_transfer(switch, "c", "b", MIB // 4)))
    env.process(later(7.9e-2, fluid()))
    env.run()
    return switch


def exchanges(contended):
    """AoE reads from two initiators to a two-worker origin server, the
    commands and replies planned.  ``contended``: frames cross the
    server's sending and an initiator's receiving port, so that
    commands and replies hand over."""
    env, switch = switch_with("xy")
    nics = switch._ports
    image = IntervalMap()
    image.set_range(0, 1 << 20, "img")
    store = ImageStore(env, image, 1 << 20, cache_hit_ratio=0.5)
    server = AoeServer(env, Nic(env, switch, "server", rx_ring_size=4096),
                       store, workers=2)
    server.start()
    clients = [AoeInitiator(env, Nic(env, switch, name, rx_ring_size=4096),
                            "server", poll_interval=100e-6)
               for name in ("c0", "c1")]

    def reads(client, offset):
        for k in range(40):
            yield from client.read_blocks(offset + 512 * k,
                                          256 + 64 * (k % 4),
                                          bulk=k % 3 == 0)

    def later(start, body):
        yield env.timeout(start)
        yield from body

    for index, client in enumerate(clients):
        env.process(reads(client, index * (1 << 19)))
    if contended:
        for index in range(30):
            src, dst = (("server", "y"), ("x", "c0"))[index % 2]
            env.process(later(1e-4 + index * 1.7e-3,
                              nics[src].send(dst, index, FRAME_BYTES)))
    env.run()
    return switch


def planned_exchanges():
    return exchanges(False)


def handed_over_exchanges():
    return exchanges(True)


def fluid_flows():
    # Flows share ports and come and go, and frames charge them debt.
    env, switch = switch_with("abcd")
    nics = switch._ports

    def flow(start, src, dst, size):
        yield env.timeout(start)
        done = env.event()
        switch.start_fluid_transfer(src, dst, None, size, PER_FRAME, "aoe",
                                    done.succeed)
        yield done

    for index in range(40):
        env.process(flow(index * 2e-3, "abc"[index % 3], "d",
                         MIB // (1 + index % 4)))
    for index in range(20):
        env.process(flow(index * 1e-3, "d", "abc"[index % 3], MIB // 8))
    for index in range(30):
        env.process(nics["c"].send("d", index, FRAME_BYTES))
    env.run()
    return switch


def ahci_deploy():
    image = OsImage(size_bytes=64 * MIB, seed=20150314,
                    boot_read_bytes=8 * MIB, boot_think_seconds=1.0)
    testbed = build_testbed(node_count=1, disk_controller="ahci",
                            mtu=params.GBE_MTU, image=image)
    env = testbed.env
    provisioner = Provisioner(testbed)
    deployed = env.process(provisioner.deploy("bmcast", skip_firmware=True))
    instance = env.run(until=deployed)
    env.run(until=instance.platform.copier.done)
    assert instance.platform.copier.blocks_filled > 0
    return testbed


@pytest.mark.parametrize("scenario", [sequential_transfers,
                                      contended_streams, sequential_trains,
                                      handed_over_trains,
                                      sequential_bulk_replies,
                                      handed_over_bulk_replies,
                                      planned_exchanges,
                                      handed_over_exchanges, fluid_flows,
                                      ahci_deploy])
def test_no_per_block_object_left_in_a_cycle(scenario):
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        alive = scenario()
        gc.collect()
        cyclic = [type(obj).__name__ for obj in gc.garbage
                  if isinstance(obj, PER_BLOCK)]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
    assert alive is not None
    assert cyclic == []

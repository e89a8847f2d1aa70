"""Event budget of the background copy.

One BMcast deploy streams its image block by block over AoE while the
guest runs (paper 3.3, 4.2); at the paper's 32 GiB the copy is most of
a deploy's events.  Two deploys that differ only in image size give the
events each copied 1 MiB block costs, and must keep the deploy's
simulated instants and VM exits exactly.

The pinned figures are the ones the code with a grant event per port,
a ring hand-off per received frame, a completion event per AoE
exchange and a zero-delay hop per MMIO hook produced, at 33.0 events
per block; and the ones the code with a 5 ms timer per copier idle
tick, three events per mediator poll wait (now two: the first-tick
timer and the tick wake) and a grant or done hop per disk arm, device
lock, bulk port and FIFO put produced, at 22.40; and the ones the code
with five events per bulk stream (a re-request hop before the
receiver's first chunk and a forwarding-latency timer before ``done``)
produced, at 15.34; and the ones the code with a bulk reply of four
events (the server's CPU gap timer and the bulk stream's three)
produced, at 13.34; and the ones the code with a planned bulk reply
of one event, but the command's send end still stepped, produced, at
10.30.  The command frame is now planned too (one event, its
delivery): with the origin store's read timer, three events per
exchange, at 9.25 per block.

A guest read of a block not yet copied is redirected to the storage
server, whose reply is a train of jumbo frames.  The per-frame path
spent five events on each (a CPU gap timer, a sending hold, an
arrival, a grant and a delivery; the first frame three), a frame train
one and one more for the whole reply.  The command frame's send end
cost one event more until it was planned as well.  Its instants must
stay the per-frame path's.
"""

import pytest

from repro import params
from repro.cloud import build_testbed
from repro.aoe.client import AoeInitiator
from repro.aoe.server import AoeServer, ImageStore
from repro.cloud.provisioner import Provisioner
from repro.guest.osimage import OsImage
from repro.net.link import EthernetSwitch
from repro.net.nic import Nic
from repro.sim import Environment
from repro.util.intervalmap import IntervalMap

GIB = 2**30
MIB = 2**20
SEED = 20150314

#: Events per copied block, at most (9.25 today).
BLOCK_BUDGET = 9.5

#: image GiB -> (ready s, complete s, VM exits).
PINNED = {
    1: (13.52221889403982, 35.2780514965449, 287903),
    2: (13.668252754677559, 55.297805177386344, 488101),
}


def deploy(image_gib):
    """(events, ready, complete, VM exits) of one deploy to
    copy-complete."""
    image = OsImage(size_bytes=image_gib * GIB, seed=SEED,
                    boot_read_bytes=8 * MIB, boot_think_seconds=3.0)
    testbed = build_testbed(node_count=1, disk_controller="ahci",
                            mtu=params.GBE_MTU, image=image)
    env = testbed.env
    provisioner = Provisioner(testbed)
    deployed = env.process(provisioner.deploy("bmcast", skip_firmware=True))
    instance = env.run(until=deployed)
    env.run(until=instance.platform.copier.done)
    assert image.verify_deployed(testbed.node.disk.contents,
                                 instance.guest.written)
    return (env.events_processed, instance.timeline.total, env.now,
            testbed.node.machine.total_vm_exits())


@pytest.fixture(scope="module")
def deploys():
    return {gib: deploy(gib) for gib in PINNED}


@pytest.mark.parametrize("gib", PINNED)
def test_instants_and_exits_unchanged(deploys, gib):
    _, ready, complete, exits = deploys[gib]
    assert (ready, complete, exits) == PINNED[gib]


def test_events_per_copied_block(deploys):
    blocks = GIB // params.COPY_BLOCK_BYTES
    per_block = (deploys[2][0] - deploys[1][0]) / blocks
    assert per_block <= BLOCK_BUDGET


# -- redirected reads -----------------------------------------------------------

#: A 1 MiB read (121 jumbo fragments) between two NICs on an idle
#: switch: the per-frame path's latency, and the events with the
#: command and the reply planned (609 on the per-frame path, 603 of
#: them for the reply; 128 with the command's send end stepped).
IDLE_READ = (0.010392368000000011, 127)
#: The same read as a bulk transfer: fewer events, but later (the
#: command and the reply planned, one event each; seven with the
#: command's send end stepped, ten with the reply stepped too).
IDLE_BULK_READ = (0.011320127999999999, 6)
#: A 1 MiB guest read the mediator redirects, right at the 1 GiB
#: deploy's ready: the per-frame path's start and end, and the events
#: with the command and the reply planned (616 on the per-frame path,
#: 135 with the command's send end stepped).
REDIRECTED_READ = (13.52221889403982, 13.532793262039752, 134)


def idle_switch_read(bulk=False):
    """(latency, events) of a 1 MiB AoE read on an idle switch."""
    env = Environment()
    switch = EthernetSwitch(env)
    contents = IntervalMap()
    contents.set_range(0, 1 << 16, "img")
    server = AoeServer(env, Nic(env, switch, "server"),
                       ImageStore(env, contents, 1 << 16))
    server.start()
    client = AoeInitiator(env, Nic(env, switch, "client"), "server")

    def read():
        runs = yield from client.read_blocks(0, MIB // 512, bulk=bulk)
        assert runs == [(0, MIB // 512, "img")]
        return env.now

    latency = env.run(until=env.process(read()))
    return latency, env.events_processed


def test_idle_switch_read_keeps_the_frame_path_instant():
    # The reply's 121 deliveries and its last send end, against the
    # per-frame 603; the command's delivery and the store's read.
    assert idle_switch_read() == IDLE_READ


def test_bulk_read_is_not_the_frame_path():
    # Why redirected reads stay frames: the bulk path pays every
    # frame's server CPU time up front and crosses the receiver on a
    # 128 KiB chunk grid.
    assert idle_switch_read(bulk=True) == IDLE_BULK_READ
    assert IDLE_BULK_READ[0] > IDLE_READ[0]


def test_redirected_guest_read_keeps_the_frame_path_instants():
    image = OsImage(size_bytes=GIB, seed=SEED, boot_read_bytes=8 * MIB,
                    boot_think_seconds=3.0)
    testbed = build_testbed(node_count=1, disk_controller="ahci",
                            mtu=params.GBE_MTU, image=image)
    env = testbed.env
    deployed = env.process(Provisioner(testbed).deploy("bmcast",
                                                       skip_firmware=True))
    instance = env.run(until=deployed)
    lba = (GIB - MIB) // params.SECTOR_BYTES
    assert not instance.platform.bitmap.sectors_local(lba, MIB // 512)

    def read():
        start = env.now
        runs = yield from instance.read(lba, MIB // params.SECTOR_BYTES)
        assert runs == list(image.contents.runs_in(lba, MIB // 512))
        return start, env.now

    before = env.events_processed
    start, end = env.run(until=env.process(read()))
    events = env.events_processed - before
    assert (start, end, events) == REDIRECTED_READ

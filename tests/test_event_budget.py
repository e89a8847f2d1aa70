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
lock, bulk port and FIFO put produced, at 22.40.
"""

import pytest

from repro import params
from repro.cloud import build_testbed
from repro.cloud.provisioner import Provisioner
from repro.guest.osimage import OsImage

GIB = 2**30
MIB = 2**20
SEED = 20150314

#: Events per copied block, at most (15.34 today).
BLOCK_BUDGET = 15.5

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

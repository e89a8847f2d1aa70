"""Host work of the background copy's bookkeeping.

The copier fetches and writes whole coalesced runs (paper 3.3), so its
bitmap bookkeeping is per run too: a run no guest write touched reaches
the disk's content map as one piece, and the progress gauge reads a
running filled count instead of walking the filled map once per block.
Both are deterministic call counts, like ``test_event_budget.py``'s
``BLOCK_BUDGET``.

The Python calls one copied block costs the host are counted the same
way: two paced deploys that differ only in image size, profiled from
the first simulated event to copy-complete, give the calls per 1 MiB
block (builtins included, as ``cProfile`` counts them).
"""

import cProfile
import pstats

from repro import params
from repro.cloud import build_testbed
from repro.cloud.provisioner import Provisioner
from repro.guest.osimage import OsImage
from repro.util.intervalmap import IntervalMap
from repro.vmm.moderation import FULL_SPEED

GIB = 2**30
MIB = 2**20
SEED = 20150314
COALESCE_BLOCKS = 32

#: Python calls per copied block, at most (392.2 on CPython 3.11; 573
#: when every event went through ``Environment.schedule``, interval-map
#: runs were yielded and disabled telemetry was called).
CALL_BUDGET = 399


def test_per_run_bookkeeping_of_a_full_speed_deploy(monkeypatch):
    image = OsImage(size_bytes=192 * MIB, seed=SEED,
                    boot_read_bytes=2 * MIB, boot_think_seconds=0.5)
    testbed = build_testbed(node_count=1, disk_controller="ahci",
                            mtu=params.GBE_MTU, image=image)
    env = testbed.env
    disk = testbed.node.disk

    # Pieces each disk write stores: the disk applies a write's runs
    # to its content map, then calls its write observers.
    stored = [0]
    store_piece = disk.contents.set_range

    def counting_set_range(start, length, value):
        stored[0] += 1
        store_piece(start, length, value)

    monkeypatch.setattr(disk.contents, "set_range", counting_set_range)
    writes = []

    def on_write(request):
        covered = sum(end - start for start, end, _ in request.buffer.runs)
        writes.append((request.origin, request.sector_count, covered,
                       stored[0]))
        stored[0] = 0

    disk.write_observers.append(on_write)

    walks = [0]
    total_covered = IntervalMap.total_covered

    def counting_total_covered(self):
        walks[0] += 1
        return total_covered(self)

    monkeypatch.setattr(IntervalMap, "total_covered",
                        counting_total_covered)

    provisioner = Provisioner(testbed)
    instance = env.run(until=env.process(provisioner.deploy(
        "bmcast", skip_firmware=True, policy=FULL_SPEED,
        coalesce_blocks=COALESCE_BLOCKS)))
    env.run(until=instance.platform.copier.done)

    assert image.verify_deployed(disk.contents, instance.guest.written)
    assert instance.platform.bitmap.complete
    run_sectors = COALESCE_BLOCKS * params.COPY_BLOCK_BYTES \
        // params.SECTOR_BYTES
    clean_runs = [pieces for origin, sectors, covered, pieces in writes
                  if origin == "vmm" and sectors == run_sectors
                  and covered == sectors]
    assert len(clean_runs) >= 4
    assert clean_runs == [1] * len(clean_runs)
    assert walks[0] == 0


def deploy_calls(image_gib: int) -> int:
    """Python calls of one paced deploy, from its first simulated event
    to copy-complete."""
    image = OsImage(size_bytes=image_gib * GIB, seed=SEED,
                    boot_read_bytes=8 * MIB, boot_think_seconds=3.0)
    testbed = build_testbed(node_count=1, disk_controller="ahci",
                            mtu=params.GBE_MTU, image=image)
    env = testbed.env
    provisioner = Provisioner(testbed)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        deployed = env.process(provisioner.deploy("bmcast",
                                                  skip_firmware=True))
        instance = env.run(until=deployed)
        env.run(until=instance.platform.copier.done)
    finally:
        profiler.disable()
    assert instance.platform.bitmap.complete
    return pstats.Stats(profiler).total_calls


def test_calls_per_copied_block():
    blocks = GIB // params.COPY_BLOCK_BYTES
    per_block = (deploy_calls(2) - deploy_calls(1)) / blocks
    assert per_block <= CALL_BUDGET, \
        f"{per_block:.2f} Python calls per copied block"

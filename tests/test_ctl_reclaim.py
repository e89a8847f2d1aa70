"""The reclaim path: resident vs full re-virtualization, scrub vs
preserve, taint exclusion, warm peers feeding the next scale-up, and
replay determinism over a whole grow -> shrink -> grow run."""

from repro import params
from repro.analysis import check_replay
from repro.cloud import build_testbed
from repro.ctl import (
    FREE,
    NodePool,
    elasticity_scenario,
)
from repro.ctl.lifecycle import RESIDENT_REARM_SECONDS
from repro.guest.osimage import OsImage
from repro.storage.blockdev import BlockOp, BlockRequest

MB = 2**20


def small_image(mb=32):
    return OsImage(size_bytes=mb * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=0.5)


def make_pool(node_count=1, p2p=True, vmxoff_mode="resident", **kwargs):
    testbed = build_testbed(node_count=node_count, server_count=1,
                            p2p=p2p, image=small_image(), **kwargs)
    return testbed, NodePool(testbed, vmxoff_mode=vmxoff_mode)


def run(env, generator, name="scenario"):
    process = env.process(generator, name=name)
    env.run(until=process)
    return process.value


def deploy_to_baremetal(testbed, pool, index=0):
    """Deploy one node and wait until de-virtualization completes."""

    def scenario():
        yield from pool.deploy(index)
        while pool.nodes[index].vmm.phase != "baremetal":
            yield testbed.env.timeout(1.0)

    run(testbed.env, scenario(), name=f"deploy-{index}")


# -- resident vs full re-virtualization ---------------------------------------

def test_resident_reclaim_is_subsecond_after_drain():
    testbed, pool = make_pool(vmxoff_mode="resident")
    deploy_to_baremetal(testbed, pool)
    elapsed = run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert pool.nodes[0].state == FREE
    # Drain + re-arm + snapshot write: nowhere near a firmware cycle.
    assert elapsed < pool.drain_seconds + RESIDENT_REARM_SECONDS + 2.0


def test_full_mode_reclaim_pays_the_firmware_cycle():
    testbed, pool = make_pool(vmxoff_mode="full")
    deploy_to_baremetal(testbed, pool)
    elapsed = run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert pool.nodes[0].state == FREE
    assert elapsed > params.FIRMWARE_INIT_SECONDS


# -- scrub vs preserve ---------------------------------------------------------

def read_sector(testbed, index, lba):
    request = BlockRequest(BlockOp.READ, lba, 1)
    run(testbed.env, testbed.nodes[index].disk.execute(request), "read")
    runs = request.buffer.runs
    return runs[0][2] if runs else None


def test_scrub_wipes_the_image_and_clears_the_warm_set():
    testbed, pool = make_pool()
    deploy_to_baremetal(testbed, pool)
    vmm = pool.nodes[0].vmm
    assert vmm.pristine_blocks()  # the image really was copied
    assert read_sector(testbed, 0, 0) is not None
    run(testbed.env, pool.reclaim(0, preserve=False), "scrub")
    record = pool.nodes[0]
    assert record.state == FREE
    assert record.warm_blocks == set()
    assert read_sector(testbed, 0, 0) is None  # tenant data gone
    # The protected bitmap-save region must not survive either: a new
    # deployment starts cold, not from a stale snapshot.
    instance = run(testbed.env, pool.deploy(0), "redeploy")
    assert not instance.platform.resumed_from_disk


def test_preserve_keeps_pristine_blocks_and_resumes_warm():
    testbed, pool = make_pool()
    deploy_to_baremetal(testbed, pool)
    first_ttr = pool.time_to_ready[0]
    pristine = pool.nodes[0].vmm.pristine_blocks()
    run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    record = pool.nodes[0]
    assert record.warm_blocks == pristine
    assert record.warm_blocks

    instance = run(testbed.env, pool.deploy(0), "redeploy")
    vmm = instance.platform
    assert vmm.resumed_from_disk
    assert vmm.router.origin_fetches == 0  # nothing refetched
    assert pool.time_to_ready[-1] < first_ttr
    assert record.warm_blocks == set()  # consumed by the deploy


def test_guest_written_blocks_are_not_preserved():
    testbed, pool = make_pool()
    deploy_to_baremetal(testbed, pool)
    vmm = pool.nodes[0].vmm
    # A bare-metal guest overwrites the start of the image (tenant
    # data): direct-I/O taint must exclude that block from preserve.
    block_sectors = vmm.bitmap.block_sectors
    request = BlockRequest(BlockOp.WRITE, 0, block_sectors,
                           origin="guest")
    request.buffer.fill_constant("tenant-secret")
    run(testbed.env, testbed.nodes[0].disk.execute(request), "write")
    assert 0 in vmm.bitmap.tainted
    assert 0 not in vmm.pristine_blocks()
    run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert 0 not in pool.nodes[0].warm_blocks
    assert pool.nodes[0].warm_blocks  # untouched blocks still warm


def test_redeploy_detaches_the_previous_vmm_from_the_disk():
    # Each deployment hooks one taint observer onto the node's disk;
    # a redeploy must drop the previous VMM's, or every cycle leaves
    # one behind and keeps the old VMM alive.
    testbed, pool = make_pool(p2p=True)
    observers = testbed.nodes[0].disk.write_observers
    for cycle in range(3):
        deploy_to_baremetal(testbed, pool)
        assert len(observers) == 1, f"cycle {cycle}"
        run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")


# -- warm peers feed the next scale-up ----------------------------------------

def test_reclaimed_warm_node_serves_the_next_deployment():
    testbed, pool = make_pool(node_count=2)
    deploy_to_baremetal(testbed, pool, index=0)
    run(testbed.env, pool.reclaim(0, preserve=True), "reclaim")
    assert pool.nodes[0].state == FREE

    run(testbed.env, pool.deploy(1), "deploy-cold")
    router = pool.nodes[1].vmm.router
    warm_port = pool.peer_port_of(0)
    assert router.peer_hits_by_target.get(warm_port, 0) > 0
    assert router.peer_hits > 0


# -- replay determinism over grow -> shrink -> grow ---------------------------

def test_autoscaling_run_replays_identically():
    scenario = elasticity_scenario(lambda: small_image(16),
                                   node_count=4, duration=1800.0)
    report = check_replay(scenario, runs=2)
    assert not report.divergent, report.describe()

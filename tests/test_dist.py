"""Tests for repro.dist: selectors, peer directory, chunk service, router."""

import pytest

from repro import params
from repro.aoe.client import AoeInitiator, AoeNakError
from repro.aoe.rtt import RttEstimator
from repro.cloud import Cluster, build_testbed
from repro.dist import (
    DistFabric,
    FetchRouter,
    PeerChunkService,
    PeerDirectory,
    make_selector,
)
from repro.dist.selector import POLICIES, ConsistentHashSelector
from repro.guest.osimage import OsImage
from repro.net import EthernetSwitch, Nic
from repro.sim import Environment
from repro.storage.disk import Disk
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.moderation import FULL_SPEED

MB = 2**20
REPLICAS = ["server", "server-r1", "server-r2"]
BLOCK_SECTORS = params.COPY_BLOCK_BYTES // params.SECTOR_BYTES


# -- selection policies ----------------------------------------------------------

def test_round_robin_cycles_in_order():
    selector = make_selector("round-robin", REPLICAS)
    picks = [selector.select(0, 8) for _ in range(6)]
    assert picks == REPLICAS + REPLICAS


def test_consistent_hash_same_block_same_replica():
    selector = make_selector("consistent-hash", REPLICAS)
    lba = 5 * BLOCK_SECTORS
    picks = {selector.select(lba + offset, 8) for offset in (0, 7, 100)}
    assert len(picks) == 1  # whole block maps to one replica


def test_consistent_hash_deterministic_across_instances():
    first = make_selector("consistent-hash", REPLICAS)
    second = make_selector("consistent-hash", REPLICAS)
    for block in range(32):
        lba = block * BLOCK_SECTORS
        assert first.select(lba, 8) == second.select(lba, 8)


def test_consistent_hash_spreads_blocks():
    selector = make_selector("consistent-hash", REPLICAS)
    picks = {selector.select(block * BLOCK_SECTORS, 8)
             for block in range(64)}
    assert len(picks) == len(REPLICAS)


def test_consistent_hash_mostly_stable_when_replica_added():
    before = ConsistentHashSelector(REPLICAS)
    after = ConsistentHashSelector(REPLICAS + ["server-r3"])
    moved = sum(
        1 for block in range(256)
        if before.select(block * BLOCK_SECTORS, 8)
        != after.select(block * BLOCK_SECTORS, 8))
    # Adding one replica to three should move roughly 1/4 of the keys,
    # not reshuffle everything.
    assert moved < 256 // 2


def test_least_outstanding_prefers_idle_replica():
    selector = make_selector("least-outstanding", REPLICAS)
    selector.note_sent("server")
    selector.note_sent("server")
    selector.note_sent("server-r1")
    assert selector.select(0, 8) == "server-r2"
    selector.note_complete("server", 0.001)
    selector.note_complete("server", 0.001)
    selector.note_sent("server-r2")
    assert selector.select(0, 8) == "server"


def test_rtt_aware_probes_then_prefers_fastest():
    selector = make_selector("rtt-aware", REPLICAS)
    # Explore-first: every replica gets probed before any repeats.
    probes = set()
    for _ in REPLICAS:
        target = selector.select(0, 8)
        probes.add(target)
        selector.note_complete(target, 0.010)
    assert probes == set(REPLICAS)
    selector.note_complete("server", 0.050)
    selector.note_complete("server-r1", 0.001)
    selector.note_complete("server-r2", 0.080)
    picks = [selector.select(0, 8) for _ in range(8)]
    assert picks.count("server-r1") >= 6  # periodic exploration allowed


def test_selector_candidates_restrict_pool():
    selector = make_selector("round-robin", REPLICAS)
    picks = {selector.select(0, 8, candidates=["server-r1"])
             for _ in range(4)}
    assert picks == {"server-r1"}


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        make_selector("random", REPLICAS)
    with pytest.raises(ValueError):
        DistFabric(REPLICAS, select_policy="no-such-policy")


def test_policy_registry_covers_all():
    for policy in POLICIES:
        assert make_selector(policy, REPLICAS) is not None


# -- RTT estimator (Karn satellite) ------------------------------------------------

def test_karn_retransmitted_reply_does_not_feed_estimator():
    env = Environment()
    switch = EthernetSwitch(env)
    nic = Nic(env, switch, "vmm")
    Nic(env, switch, "server")
    initiator = AoeInitiator(env, nic, "server")
    from repro.aoe.client import _Transaction
    from repro.aoe.protocol import AoeAck, AoeCommand

    command = AoeCommand(0, "write", 0, 8, payload_runs=((0, 8, "x"),))
    transaction = _Transaction(initiator, command, "server", "aoe")
    transaction.retries = 1  # a retransmission happened: ambiguous RTT
    initiator._pending[0] = transaction
    before = (initiator.rtt.srtt, initiator.rtt.samples)
    initiator._on_ack(AoeAck(0))
    assert transaction.done.triggered
    assert (initiator.rtt.srtt, initiator.rtt.samples) == before

    # The unambiguous twin does feed it.
    clean = _Transaction(initiator, AoeCommand(1, "write", 0, 8), "server",
                         "aoe")
    initiator._pending[1] = clean
    initiator._on_ack(AoeAck(1))
    assert initiator.rtt.samples == before[1] + 1


def test_rtt_estimator_backoff_inflates_rto():
    estimator = RttEstimator()
    estimator.observe(0.010)
    rto = estimator.rto
    estimator.back_off()
    assert estimator.rto > rto


# -- peer directory ---------------------------------------------------------------

def test_directory_superset_lookup_and_exclude():
    directory = PeerDirectory()
    directory.publish("b-peer", {1, 2, 3})
    directory.publish("a-peer", {2, 3})
    assert directory.peers_for([2, 3]) == ["a-peer", "b-peer"]  # sorted
    assert directory.peers_for([1, 2]) == ["b-peer"]
    assert directory.peers_for([2], exclude="a-peer") == ["b-peer"]
    assert directory.peers_for([9]) == []


def test_directory_invalidate_and_withdraw():
    directory = PeerDirectory()
    directory.publish("a-peer", {1, 2})
    directory.invalidate("a-peer", 1)
    assert directory.peers_for([1]) == []
    assert directory.peers_for([2]) == ["a-peer"]
    directory.withdraw("a-peer")
    assert len(directory) == 0
    directory.invalidate("gone", 5)  # no-op, no error


# -- peer chunk service -----------------------------------------------------------

def _peer_rig():
    env = Environment()
    switch = EthernetSwitch(env)
    disk = Disk(env)
    bitmap = BlockBitmap(image_sectors=8 * BLOCK_SECTORS)
    directory = PeerDirectory()
    peer_nic = Nic(env, switch, "node0-eth1-peer")
    service = PeerChunkService(env, peer_nic, disk, bitmap, directory)
    service.start()
    client_nic = Nic(env, switch, "client")
    initiator = AoeInitiator(env, client_nic, "node0-eth1-peer")
    return env, disk, bitmap, service, directory, initiator


def _fill(bitmap: BlockBitmap, disk: Disk, block: int) -> None:
    bitmap.try_claim(block)
    start, count = bitmap.block_range(block)
    disk.contents.set_range(start, count, f"img{block}")
    bitmap.commit_fill(block)


def test_peer_serves_filled_block():
    env, disk, bitmap, service, directory, initiator = _peer_rig()
    _fill(bitmap, disk, 0)

    def scenario():
        runs = yield from initiator.read_blocks(
            0, 16, protocol="aoe-peer")
        return runs

    runs = env.run(until=env.process(scenario()))
    assert runs == [(0, 16, "img0")]
    assert service.chunks_served == 1
    assert service.naks_sent == 0


def test_peer_naks_unfilled_block():
    env, disk, bitmap, service, directory, initiator = _peer_rig()

    def scenario():
        yield from initiator.read_blocks(0, 16, protocol="aoe-peer")

    with pytest.raises(AoeNakError):
        env.run(until=env.process(scenario()))
    assert service.naks_sent == 1
    assert service.chunks_served == 0


def test_guest_write_taints_block():
    env, disk, bitmap, service, directory, initiator = _peer_rig()
    _fill(bitmap, disk, 0)
    _fill(bitmap, disk, 1)
    assert service.summary() == {0, 1}
    # A mediated guest write dirties block 0: no longer pristine.
    bitmap.record_guest_write(4, 8)
    assert service.summary() == {1}
    assert not service.servable(0, 16)
    assert service.servable(BLOCK_SECTORS, 16)


def test_post_devirt_disk_writes_taint():
    # Once the VMM has de-virtualized, no mediator records guest
    # writes: a raw disk write is the guest's, and the node's peer
    # service must stop serving and advertising the block.
    testbed = build_testbed(node_count=1, server_count=1, p2p=True,
                            image=OsImage(size_bytes=16 * MB,
                                          boot_read_bytes=2 * MB,
                                          boot_think_seconds=0.5))
    cluster = Cluster(testbed)
    env = testbed.env

    from repro.storage.blockdev import BlockOp, BlockRequest

    def scenario():
        yield from cluster.deploy_all("bmcast", policy=FULL_SPEED)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    env.run(until=env.process(scenario()))
    vmm = cluster.instances[0].platform
    service = vmm.peer_service
    assert vmm.phase == "baremetal"
    assert 2 in service.summary()
    assert service.servable(2 * BLOCK_SECTORS, 8)

    def guest_write():
        lba = 2 * BLOCK_SECTORS
        request = BlockRequest(BlockOp.WRITE, lba, 8, origin="guest")
        request.buffer.runs = [(lba, lba + 8, "guest")]
        yield from testbed.node.disk.execute(request)

    env.run(until=env.process(guest_write()))
    assert not service.servable(2 * BLOCK_SECTORS, 8)
    assert 2 not in service.summary()
    assert service.summary() == vmm.pristine_blocks()
    assert vmm.bitmap.tainted == {2}


def test_publish_batches_and_stop_withdraws():
    env, disk, bitmap, service, directory, initiator = _peer_rig()
    batch = PeerChunkService.ANNOUNCE_BLOCKS
    for block in range(batch - 1):
        _fill(bitmap, disk, block)
        service.note_block_filled(block)
    assert len(directory) == 0  # still below the announce batch
    _fill(bitmap, disk, batch - 1)
    service.note_block_filled(batch - 1)
    assert directory.advertised("node0-eth1-peer") == set(range(batch))
    service.stop()
    assert len(directory) == 0


# -- router bulk-segment splitting -------------------------------------------------

IMAGE_BLOCKS = 8


def _router_rig():
    """A FetchRouter over one origin replica on a p2p fabric.

    Peers are added with :func:`_add_peer`; the rig drives
    ``router.read_blocks(..., bulk=True)`` directly so the
    ``_read_segmented`` splitting logic is exercised without a full
    deployment around it.
    """
    from repro.aoe.server import AoeServer, ImageStore
    from repro.util.intervalmap import IntervalMap

    env = Environment()
    switch = EthernetSwitch(env)
    contents = IntervalMap()
    contents.set_range(0, IMAGE_BLOCKS * BLOCK_SECTORS, "origin")
    store = ImageStore(env, contents, IMAGE_BLOCKS * BLOCK_SECTORS)
    server_nic = Nic(env, switch, "server", rx_ring_size=8192)
    server = AoeServer(env, server_nic, store)
    server.start()
    fabric = DistFabric(["server"], p2p=True)
    node_nic = Nic(env, switch, "node1-eth1")
    initiator = AoeInitiator(env, node_nic, "server")
    router = FetchRouter(env, initiator, fabric, "node1-eth1")
    return env, switch, fabric, router


def _add_peer(env, switch, fabric, name, filled, advertised=None):
    """A peer chunk service holding ``filled`` blocks.

    ``advertised`` defaults to ``filled``; pass a superset to model a
    directory entry that outlived the peer's ability to serve it.
    """
    disk = Disk(env)
    bitmap = BlockBitmap(image_sectors=IMAGE_BLOCKS * BLOCK_SECTORS)
    nic = Nic(env, switch, name)
    service = PeerChunkService(env, nic, disk, bitmap, fabric.directory)
    service.start()
    for block in filled:
        _fill(bitmap, disk, block)
    fabric.directory.publish(
        name, set(filled if advertised is None else advertised))
    return service


def _read_bulk(env, router, lba, sector_count):
    def scenario():
        runs = yield from router.read_blocks(lba, sector_count, bulk=True)
        return runs

    return env.run(until=env.process(scenario()))


def _assert_contiguous(runs, lba, sector_count):
    assert runs[0][0] == lba
    assert runs[-1][1] == lba + sector_count
    for (_, prev_end, _), (start, _, _) in zip(runs, runs[1:]):
        assert start == prev_end


def test_segmented_read_splits_single_block_runs():
    # Alternating coverage cuts the run into eight single-block
    # segments — the narrowest split _read_segmented can produce.
    env, switch, fabric, router = _router_rig()
    evens = [block for block in range(IMAGE_BLOCKS) if block % 2 == 0]
    service = _add_peer(env, switch, fabric, "node0-eth1-peer", evens)

    runs = _read_bulk(env, router, 0, IMAGE_BLOCKS * BLOCK_SECTORS)
    _assert_contiguous(runs, 0, IMAGE_BLOCKS * BLOCK_SECTORS)
    # Even blocks carry the peer's per-block fill tokens; odd blocks
    # carry the origin image token.
    for block in evens:
        assert (block * BLOCK_SECTORS, (block + 1) * BLOCK_SECTORS,
                f"img{block}") in runs
    assert router.peer_hits == len(evens)
    assert router.origin_fetches == IMAGE_BLOCKS - len(evens)
    assert router.peer_misses == 0
    assert service.chunks_served == len(evens)


def test_segmented_read_splits_at_peer_boundary_mid_run():
    # Peer A covers blocks [0, 1], peer B covers [2, 3]: no single
    # peer covers the whole run, so the widest-prefix walk must stop
    # at the boundary and emit exactly two segments.
    env, switch, fabric, router = _router_rig()
    first = _add_peer(env, switch, fabric, "node0-eth1-peer", [0, 1])
    second = _add_peer(env, switch, fabric, "node2-eth1-peer", [2, 3])

    runs = _read_bulk(env, router, 0, 4 * BLOCK_SECTORS)
    _assert_contiguous(runs, 0, 4 * BLOCK_SECTORS)
    assert router.peer_hits == 2
    assert router.origin_fetches == 0
    assert router.peer_misses == 0
    # One bulk command per segment, one segment per peer.
    assert first.chunks_served == 1
    assert second.chunks_served == 1
    assert router.peer_hits_by_target == {"node0-eth1-peer": 1,
                                          "node2-eth1-peer": 1}


def test_segmented_read_survives_peer_withdrawal_between_split_and_fetch():
    # The directory still advertises blocks [0, 1] but the peer can no
    # longer serve them (withdrawn/tainted after the split consulted
    # the directory): the peer NAKs, the router repairs the directory
    # and falls back to origin, and the caller still gets the bytes.
    env, switch, fabric, router = _router_rig()
    service = _add_peer(env, switch, fabric, "node0-eth1-peer",
                        filled=[], advertised=[0, 1])

    runs = _read_bulk(env, router, 0, 4 * BLOCK_SECTORS)
    _assert_contiguous(runs, 0, 4 * BLOCK_SECTORS)
    assert all(token == "origin" for _, _, token in runs)
    assert router.peer_misses == 1
    assert router.peer_hits == 0
    assert router.origin_fetches >= 1
    assert service.naks_sent == 1
    # The NAK repaired the stale directory entry.
    assert fabric.directory.peers_for([0]) == []
    assert fabric.directory.peers_for([1]) == []
    # The next read routes straight to origin with no peer attempt.
    _read_bulk(env, router, 0, 2 * BLOCK_SECTORS)
    assert router.peer_misses == 1


# -- fabric + full deployment ------------------------------------------------------

def _small_image() -> OsImage:
    return OsImage(size_bytes=128 * MB, boot_read_bytes=8 * MB,
                   boot_think_seconds=1.0)


def test_fabric_blocks_of_and_ports():
    fabric = DistFabric(REPLICAS)
    assert fabric.blocks_of(0, 8) == [0]
    assert fabric.blocks_of(BLOCK_SECTORS - 1, 2) == [0, 1]
    assert fabric.peer_port_of("node3-eth1") == "node3-eth1-peer"
    assert fabric.describe()["replicas"] == REPLICAS


def test_build_testbed_replicas_share_image():
    testbed = build_testbed(server_count=3, image=_small_image())
    assert testbed.server_ports == ["server", "server-r1", "server-r2"]
    assert len(testbed.servers) == len(testbed.stores) == 3
    assert all(store.contents is testbed.image.contents
               for store in testbed.stores)
    assert testbed.fabric.replica_ports == testbed.server_ports
    # No p2p: nodes carry no peer port.
    assert testbed.node.peer_nic is None


def test_replicated_deployment_completes_and_verifies():
    testbed = build_testbed(node_count=2, server_count=3,
                            select_policy="round-robin",
                            loss_probability=0.002,
                            image=_small_image())
    cluster = Cluster(testbed)

    def scenario():
        yield from cluster.deploy_all("bmcast", policy=FULL_SPEED)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    testbed.env.run(until=testbed.env.process(scenario()))
    assert cluster.verify_all_deployed()
    for instance in cluster.instances:
        load = instance.platform.router.stats()["replica_load"]
        # Round-robin: every replica took a share of this node's fetches.
        assert set(load) == set(testbed.server_ports)
        assert all(count > 0 for count in load.values())


def test_p2p_deployment_second_node_hits_peers():
    testbed = build_testbed(node_count=2, server_count=1, p2p=True,
                            image=_small_image())
    cluster = Cluster(testbed)
    env = testbed.env

    def scenario():
        first = yield from cluster.deploy_all("bmcast",
                                              node_indexes=[0],
                                              policy=FULL_SPEED)
        yield first[0].platform.copier.done
        yield from cluster.deploy_all("bmcast", node_indexes=[1],
                                      policy=FULL_SPEED)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    env.run(until=env.process(scenario()))
    assert cluster.verify_all_deployed()
    second = cluster.instances[1].platform
    stats = second.router.stats()
    assert stats["peer_hits"] > 0
    # The seed node actually served chunks over its peer port.
    assert cluster.instances[0].platform.peer_service.chunks_served > 0
    assert "aoe-peer" in testbed.switch.bytes_by_protocol


def test_loss_seed_varies_loss_pattern():
    def retransmissions(seed: int) -> int:
        testbed = build_testbed(loss_probability=0.01, loss_seed=seed,
                                image=_small_image())
        cluster = Cluster(testbed)

        def scenario():
            yield from cluster.deploy_all("bmcast", policy=FULL_SPEED)
            yield from cluster.wait_deployment_complete(
                settle_seconds=1.0)

        testbed.env.run(until=testbed.env.process(scenario()))
        return cluster.instances[0].platform.initiator.retransmissions

    assert retransmissions(1) == retransmissions(1)  # deterministic
    counts = {retransmissions(seed) for seed in (1, 2, 3, 4)}
    assert len(counts) > 1  # the seed actually steers the loss stream

"""Elastic scale-out: the paper's motivating scenario, fabric edition.

A Cassandra tier is serving a write-heavy YCSB workload when load
spikes.  Act one: the operator adds ONE bare-metal node — with image
copying it sits dead for minutes before serving a request; with BMcast
it serves within ~a minute and silently reaches full bare-metal
performance when deployment finishes.

Act two: the spike keeps growing, so the operator adds FOUR nodes at
once.  A single storage server would divide its bandwidth four ways;
instead the fleet deploys over the distribution fabric (`repro.dist`)
— two origin replicas, peer-to-peer chunk serving, launched in waves —
and the second wave pulls most of the image from the first wave's
half-deployed nodes rather than the origin.

Act three: the spike passes, and no operator touches anything.  The
elastic control plane (`repro.ctl`) reclaims the idle nodes — drain,
re-virtualize in resident mode, preserve the disk — and when demand
returns, cache-aware placement lands the new deployments on those
warm nodes, which also serve image chunks to any cold neighbour.

Run:  python examples/elastic_scaleout.py
"""

from repro import Provisioner, build_testbed
from repro.apps.kvstore import CASSANDRA, KvStoreServer
from repro.apps.ycsb import WRITE_HEAVY, YcsbBenchmark
from repro.cloud import Cluster, WaveScheduler
from repro.ctl import (ElasticController, FlashCrowdDemand, NodePool,
                       CacheAwarePlacement, ReactivePolicy)
from repro.guest.osimage import OsImage
from repro.obs import format_table

#: Shrunk image so the example runs in seconds (same machinery).
IMAGE = dict(size_bytes=4 * 2**30, boot_read_bytes=24 * 2**20,
             boot_think_seconds=6.0)

OBSERVE_SECONDS = 420.0
WINDOW = 15.0


def scale_out_with(method: str):
    """Deploy the new node via ``method``; returns (bench, ready_after)."""
    testbed = build_testbed(image=OsImage(**IMAGE))
    provisioner = Provisioner(testbed)
    env = testbed.env
    t_request = env.now  # the moment the operator asks for capacity

    instance = env.run(until=env.process(
        provisioner.deploy(method, skip_firmware=True)))
    ready_after = env.now - t_request

    store = KvStoreServer(instance, CASSANDRA)
    bench = YcsbBenchmark(store, WRITE_HEAVY, window=WINDOW)
    env.run(until=env.process(bench.run(OBSERVE_SECONDS)))
    return bench, ready_after


def one_node_race():
    print("Act 1 — scaling out by ONE bare-metal node...\n")
    results = {}
    for method in ("bmcast", "image-copy"):
        bench, ready_after = scale_out_with(method)
        results[method] = (bench, ready_after)
        print(f"{method}: first request served "
              f"{ready_after:.0f}s after the scale-out request")

    print()
    rows = []
    bmcast_bench, bmcast_ready = results["bmcast"]
    copy_bench, copy_ready = results["image-copy"]
    peak = max(bmcast_bench.throughput.values())
    for minute in range(int(OBSERVE_SECONDS // 60)):
        start, end = minute * 60.0, (minute + 1) * 60.0

        def served(bench):
            try:
                return bench.throughput.mean_between(start, end) / 1e3
            except ValueError:
                return 0.0

        rows.append([
            f"{minute + 1}",
            round(served(bmcast_bench), 1),
            round(served(copy_bench), 1),
        ])
    print(format_table(
        ["minute after ready", "BMcast KT/s", "image-copy KT/s"], rows,
        title="New node's serving rate, minute by minute "
        "(time axis starts when each node is ready)"))

    total_bmcast = sum(bmcast_bench.throughput.values()) * WINDOW
    lead = copy_ready - bmcast_ready
    print(f"\nBMcast's node came up {lead:.0f}s earlier and had served "
          f"~{total_bmcast / 1e6:.0f}M extra requests by the time the "
          f"image-copy node finished booting.")
    print(f"(Peak per-node rate: {peak / 1e3:.1f} KT/s.)")


def fleet_scale_out():
    print("\nAct 2 — the spike keeps growing: FOUR nodes at once, "
          "over the distribution fabric...\n")
    testbed = build_testbed(node_count=4, server_count=2, p2p=True,
                            select_policy="least-outstanding",
                            image=OsImage(**IMAGE))
    cluster = Cluster(testbed)
    scheduler = WaveScheduler(cluster, wave_size=2,
                              seed_fill_fraction=0.25)
    env = testbed.env

    def scenario():
        yield from scheduler.run("bmcast")
        yield from cluster.wait_deployment_complete()

    env.run(until=env.process(scenario()))
    assert cluster.verify_all_deployed()

    rows = [
        [wave.index + 1,
         " ".join(f"node{i}" for i in wave.node_indexes),
         round(wave.ready_seconds, 1),
         f"{wave.live_peer_hit_ratio():.0%}"]
        for wave in scheduler.waves
    ]
    print(format_table(
        ["wave", "nodes", "ready (s)", "served by peers"], rows,
        title="Fleet deployment over 2 origin replicas + p2p"))
    aoe = testbed.switch.bytes_by_protocol.get("aoe", 0)
    peer = testbed.switch.bytes_by_protocol.get("aoe-peer", 0)
    print(f"\nWire bytes: origin (aoe) {aoe / 2**20:.0f} MB, "
          f"peer-to-peer (aoe-peer) {peer / 2**20:.0f} MB — "
          f"{peer / (aoe + peer):.0%} of image traffic never "
          f"touched an origin server.")


def elastic_breathing():
    print("\nAct 3 — the spike passes: the autoscaler gives the "
          "metal back, then gets it back cheap...\n")
    # Quarter-size image: act 3 runs dozens of deploy/reclaim cycles,
    # and warm-vs-cold behaves identically at any image size.
    testbed = build_testbed(node_count=6, server_count=1, p2p=True,
                            image=OsImage(size_bytes=2**30,
                                          boot_read_bytes=24 * 2**20,
                                          boot_think_seconds=6.0))
    pool = NodePool(testbed, vmxoff_mode="resident")
    controller = ElasticController(
        pool, FlashCrowdDemand(spike_at=600.0, seed=20150314),
        ReactivePolicy(), CacheAwarePlacement(), tick=15.0)
    env = testbed.env
    env.run(until=env.process(controller.run(2700.0), name="ctl-loop"))

    print(format_table(
        ["t (s)", "fleet", "target", "why"],
        [[f"{t:.0f}", provisioned, target, reason]
         for t, target, provisioned, reason in controller.decisions],
        title="Every scale decision the reactive policy made"))

    report = controller.report()
    reclaims = report["reclaims"]
    warm = [record.index for record in pool.nodes
            if record.warm_blocks]
    print(f"\nServed {report['served']}/{report['requests']} requests "
          f"(SLO attainment {report['slo_attainment']:.0%}), wasting "
          f"{report['wasted_node_seconds']:.0f} node-seconds; "
          f"{reclaims} reclamation(s), each re-armed in "
          f"p95 {report['reclaim_p95_seconds']:.1f}s (resident mode).")

    print(f"Nodes {warm} ended the run free-but-warm, still "
          f"advertising their image blocks to the fabric.")

    # One tenant leaves for good: their node is reclaimed with a
    # scrub (no tenant bit survives), so it comes back stone cold.
    def scrub_one():
        while not pool.idle_ready():   # let in-flight holds finish
            yield env.timeout(30.0)
        index = pool.idle_ready()[0].index
        yield from pool.reclaim(index, preserve=False)
        return index

    scrub = env.process(scrub_one(), name="scrub")
    env.run(until=scrub)
    scrubbed = scrub.value
    print(f"node{scrubbed} reclaimed with scrub (tenant isolation): "
          f"disk wiped, back to free but cold.")

    # The payoff: demand comes back.  Deploy every free node — the
    # warm ones resume straight from their preserved disk; the
    # scrubbed one pulls the image from the warm peers, not the origin.
    cold_ttr = pool.time_to_ready[0]
    wave = [record.index for record in pool.free_nodes()]
    before = len(pool.time_to_ready)

    def next_wave():
        yield env.all_of([
            env.process(pool.deploy(index), name=f"wave-{index}")
            for index in wave])

    env.run(until=env.process(next_wave(), name="next-wave"))

    peer_ports = {pool.peer_port_of(record.index): record.index
                  for record in pool.nodes}
    rows = []
    for index, ttr in zip(wave, pool.time_to_ready[before:]):
        router = pool.nodes[index].vmm.router
        fed_by = ", ".join(
            f"node{peer_ports[target]}"
            for target, hits in sorted(
                router.peer_hits_by_target.items()) if hits)
        rows.append([f"node{index}", round(ttr, 1),
                     router.origin_fetches,
                     fed_by or "(resumed from preserved disk)"])
    print("\n" + format_table(
        ["node", "ready (s)", "origin fetches", "image came from"],
        rows,
        title=f"Next scale-up: the whole free pool at once "
        f"(first cold deploy of the run took {cold_ttr:.0f}s)"))
    print("\nReclaimed-with-preserve nodes resume without touching "
          "the origin, and feed whatever is still cold — the fleet's "
          "own history is its image cache.")


def main():
    one_node_race()
    fleet_scale_out()
    elastic_breathing()


if __name__ == "__main__":
    main()

"""Elasticity: what agility buys when demand moves.

The paper makes a single deployment fast; this bench closes the loop
the argument implies.  A flash crowd hits a small fleet run by the
elastic control plane (repro.ctl), and we score each autoscaler
policy on the two numbers an operator actually trades off:

* **SLO attainment** — fraction of requests whose arrival-to-ready
  time met the deadline (higher is better);
* **wasted node-seconds** — provisioned-but-not-serving capacity
  (lower is better; the overprovisioning bill).

The headroom policy buys its deadlines with spare metal around the
clock; the reactive policy leans on fast deploy + fast reclaim and
should land a far smaller waste bill.

Second measurement: **cache-aware placement**.  Reclaimed-with-
preserve nodes keep their pristine image blocks, so a placement
policy that lands deployments on them skips the origin fetch
entirely.  We pre-warm half the fleet via the reclaim path, then
launch a 4-node wave under each placement at *equal fleet size* and
compare p95 time-to-ready — round-robin sends the wave to cold nodes
that contend for one origin server; cache-aware sends it to the warm
ones.
"""

import os

from _common import MB, emit, once
from repro.cloud import build_testbed
from repro.ctl import (DEMANDS, PLACEMENTS, POLICIES, ElasticController,
                       NodePool, image_block_set, percentile)
from repro.guest.osimage import OsImage
from repro.obs import format_table

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

IMAGE_MB = 64 if QUICK else 256
NODES = 6 if QUICK else 8
DURATION = 1500.0 if QUICK else 2700.0
SPIKE_AT = 600.0
TICK = 15.0
SEED = 20150314
WAVE = 4

POLICY_NAMES = ("reactive", "predictive", "headroom")


def _image() -> OsImage:
    return OsImage(size_bytes=IMAGE_MB * MB, boot_read_bytes=16 * MB,
                   boot_think_seconds=3.0)


def _run_policy(policy_name: str) -> dict:
    """One flash-crowd run; returns the controller's report."""
    testbed = build_testbed(node_count=NODES, server_count=1, p2p=True,
                            image=_image())
    pool = NodePool(testbed, vmxoff_mode="resident")
    demand = DEMANDS["flash-crowd"](spike_at=SPIKE_AT, seed=SEED)
    controller = ElasticController(
        pool, demand, POLICIES[policy_name](),
        PLACEMENTS["cache-aware"](), tick=TICK)
    env = testbed.env
    env.run(until=env.process(controller.run(DURATION), name="ctl-loop"))
    return controller.report()


def _run_placement(placement_name: str) -> float:
    """p95 time-to-ready of a 4-node wave after pre-warming the fleet.

    The high-index half of the fleet is deployed, de-virtualized, and
    reclaimed with preserve — free nodes that still hold the image.
    Round-robin then sends the wave to the cold low indexes; the
    cache-aware policy finds the warm ones.  Same fleet, same image,
    same origin: the difference is pure placement.
    """
    testbed = build_testbed(node_count=NODES, server_count=1, p2p=True,
                            image=_image())
    pool = NodePool(testbed, vmxoff_mode="resident")
    env = testbed.env
    warm = range(NODES // 2, NODES)

    def prewarm():
        for index in warm:
            yield from pool.deploy(index)
        for index in warm:
            while pool.nodes[index].vmm.phase != "baremetal":
                yield env.timeout(5.0)
        for index in warm:
            yield from pool.reclaim(index, preserve=True)

    env.run(until=env.process(prewarm(), name="prewarm"))
    placement = PLACEMENTS[placement_name]()
    blocks = image_block_set(testbed)
    before = len(pool.time_to_ready)

    def wave():
        free = pool.free_nodes()
        deploys = []
        for _ in range(WAVE):
            index = placement.choose(pool, free, blocks)
            free = [record for record in free if record.index != index]
            deploys.append(env.process(pool.deploy(index),
                                       name=f"wave-{index}"))
        yield env.all_of(deploys)

    env.run(until=env.process(wave(), name="wave"))
    return percentile(pool.time_to_ready[before:], 95)


def run_figure():
    policies = {name: _run_policy(name) for name in POLICY_NAMES}
    placements = {name: _run_placement(name)
                  for name in ("round-robin", "cache-aware")}
    return {"policies": policies, "placements": placements}


def test_elasticity(benchmark):
    results = once(benchmark, run_figure)
    policies = results["policies"]
    placements = results["placements"]

    rows = [
        [name,
         report["requests"], report["served"],
         f"{report['slo_attainment']:.0%}",
         report["ttr_p95_seconds"],
         round(report["wasted_node_seconds"], 0),
         report["scale_ups"], report["scale_downs"],
         report["reclaims"]]
        for name, report in policies.items()
    ]
    placement_rows = [
        [name, round(p95, 1)] for name, p95 in placements.items()
    ]
    text = format_table(
        ["policy", "requests", "served", "SLO met", "p95 ttr (s)",
         "wasted node-s", "ups", "downs", "reclaims"],
        rows,
        title=f"Flash crowd: {NODES} nodes, {IMAGE_MB}-MB image"
        f"{', quick' if QUICK else ''}")
    text += "\n" + format_table(
        ["placement", "wave p95 ttr (s)"], placement_rows,
        title=f"Warm-pool placement: {WAVE}-node wave, "
        f"{NODES // 2} nodes pre-warmed via reclaim")
    emit("elasticity", text,
         data={
             "image_mb": IMAGE_MB, "nodes": NODES, "quick": QUICK,
             "duration": DURATION, "seed": SEED,
             "policies": policies,
             "placements": {name: round(p95, 3)
                            for name, p95 in placements.items()},
         },
         figures={
             **{f"{name}_slo_attainment": report["slo_attainment"]
                for name, report in policies.items()},
             **{f"{name}_wasted_node_seconds":
                report["wasted_node_seconds"]
                for name, report in policies.items()},
             **{f"{name}_ttr_p95_seconds": report["ttr_p95_seconds"]
                for name, report in policies.items()},
             "round_robin_wave_p95_seconds": placements["round-robin"],
             "cache_aware_wave_p95_seconds": placements["cache-aware"],
         })

    if QUICK:
        return  # tiny image: crash/JSON health only, no shape asserts
    # 1. Placement: at equal fleet size, landing the wave on warm
    #    reclaimed nodes must measurably beat round-robin's cold picks.
    assert placements["cache-aware"] < 0.9 * placements["round-robin"], \
        (f"cache-aware {placements['cache-aware']:.1f}s vs "
         f"round-robin {placements['round-robin']:.1f}s")
    # 2. Overprovisioning pays for its deadlines with idle metal: the
    #    headroom policy must waste more node-seconds than reactive.
    assert (policies["headroom"]["wasted_node_seconds"]
            > policies["reactive"]["wasted_node_seconds"]), \
        "headroom should waste more capacity than reactive"
    # 3. The loop actually breathes: every policy grew, reclaimed, and
    #    served (nearly) everything — a sub-threshold tail request may
    #    legitimately still be queued when the run ends.
    for name, report in policies.items():
        assert report["served"] >= 0.9 * report["requests"], name
        assert report["scale_ups"] >= 1, name
        assert report["reclaims"] >= 1, name

"""Scale-out distribution fabric: per-instance deployment time vs fleet size.

Section 4.2's bottleneck: every deployment streams from one AoE target,
so N concurrent deployments divide its bandwidth N ways and per-instance
deployment time grows near-linearly with N.  The distribution fabric
(origin replicas + peer chunk serving + wave scheduling) is supposed to
break that: replicas multiply source bandwidth and every partially
deployed node becomes another source, so the degradation curve flattens.

This bench measures mean per-instance *deployment* time (background copy
start to finish, moderation off) for a fleet of N:

* baseline — one origin server, all N launched simultaneously;
* fabric   — 4 origin replicas, p2p on, launched in two waves so the
  second wave can feed off the first.

Asserted shape: baseline degrades near-linearly with N while the fabric
degrades sub-linearly (well under half the baseline's slope), and the
last wave serves >30% of its fetches from peers.
"""

import os

from _common import MB, emit, once
from repro.cloud import Cluster, WaveScheduler, build_testbed
from repro.guest.osimage import OsImage
from repro.obs import format_table
from repro.vmm.moderation import FULL_SPEED

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

IMAGE_MB = 128 if QUICK else 512
NODE_COUNTS = (1, 4) if QUICK else (1, 4, 8)
SELECT_POLICY = "least-outstanding"


def _image() -> OsImage:
    return OsImage(size_bytes=IMAGE_MB * MB, boot_read_bytes=16 * MB,
                   boot_think_seconds=3.0)


def _run_fleet(node_count: int, server_count: int, p2p: bool,
               waves: bool):
    """Mean per-instance deployment seconds (+ last-wave hit ratio)."""
    testbed = build_testbed(node_count=node_count,
                            server_count=server_count, p2p=p2p,
                            select_policy=SELECT_POLICY,
                            image=_image())
    cluster = Cluster(testbed)
    scheduler = None

    def scenario():
        nonlocal scheduler
        if waves and node_count > 1:
            scheduler = WaveScheduler(cluster,
                                      wave_size=max(1, node_count // 2),
                                      seed_fill_fraction=0.25)
            yield from scheduler.run("bmcast", policy=FULL_SPEED)
        else:
            yield from cluster.deploy_all("bmcast", policy=FULL_SPEED)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    testbed.env.run(until=testbed.env.process(scenario()))
    assert cluster.verify_all_deployed()
    times = [instance.platform.copier.finished_at
             - instance.platform.copier.started_at
             for instance in cluster.instances]
    hit_ratio = scheduler.waves[-1].live_peer_hit_ratio() \
        if scheduler is not None else 0.0
    return sum(times) / len(times), hit_ratio


def run_figure():
    results = {"baseline": {}, "fabric": {}, "last_wave_hit_ratio": {}}
    for count in NODE_COUNTS:
        results["baseline"][count], _ = _run_fleet(
            count, server_count=1, p2p=False, waves=False)
        results["fabric"][count], hit = _run_fleet(
            count, server_count=4, p2p=True, waves=True)
        results["last_wave_hit_ratio"][count] = hit
    return results


def test_scaleout_fabric(benchmark):
    results = once(benchmark, run_figure)

    base1 = results["baseline"][NODE_COUNTS[0]]
    fab1 = results["fabric"][NODE_COUNTS[0]]
    rows = []
    for count in NODE_COUNTS:
        base = results["baseline"][count]
        fab = results["fabric"][count]
        rows.append([count, round(base, 1), round(base / base1, 2),
                     round(fab, 1), round(fab / fab1, 2),
                     f"{results['last_wave_hit_ratio'][count]:.0%}"])
    emit("scaleout_fabric", format_table(
        ["fleet", "1-server s", "x", "4-replica+p2p s", "x",
         "last-wave peer hits"],
        rows,
        title=f"Scale-out: mean per-instance deployment time "
        f"({IMAGE_MB}-MB image{', quick' if QUICK else ''})"),
        data={
            "image_mb": IMAGE_MB,
            "quick": QUICK,
            "select_policy": SELECT_POLICY,
            "baseline_seconds": {str(k): round(v, 3) for k, v in
                                 results["baseline"].items()},
            "fabric_seconds": {str(k): round(v, 3) for k, v in
                               results["fabric"].items()},
            "last_wave_hit_ratio": {
                str(k): round(v, 4) for k, v in
                results["last_wave_hit_ratio"].items()},
        })

    if QUICK:
        return  # tiny image: run for crash/JSON health only, no shape
    top = NODE_COUNTS[-1]
    base_factor = results["baseline"][top] / base1
    fab_factor = results["fabric"][top] / fab1
    # 1. One server saturates: per-instance time keeps growing with the
    #    fleet (doubling 4 -> 8 roughly doubles it).
    assert base_factor > 3.0, f"baseline factor {base_factor:.2f}"
    ratio_4_to_8 = results["baseline"][8] / results["baseline"][4]
    assert ratio_4_to_8 > 1.6, f"4->8 grew only {ratio_4_to_8:.2f}x"
    # 2. The fabric degrades sub-linearly — under half the baseline's
    #    growth factor, and under 65% of its absolute time at the top.
    assert fab_factor < 0.5 * base_factor, \
        f"fabric {fab_factor:.2f} vs baseline {base_factor:.2f}"
    assert results["fabric"][top] < 0.65 * results["baseline"][top]
    # 3. The last wave is peer-fed (the scheduler's whole point).
    assert results["last_wave_hit_ratio"][top] > 0.3

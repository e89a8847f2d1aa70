"""Fleet-scale deploy: fluid-flow fast path vs packet mode.

The tentpole figure for the fluid-flow transfer mode
(``repro.net.flow``): a 256-node scale-out deployment — 32 waves of 8,
16 origin replicas, staggered power-ons — run twice on the same seed,
once per-packet and once with ``fluid=True``.  Three claims are
asserted:

* **Wall-clock**: the fluid run must be at least ``SPEEDUP_FLOOR``
  times faster than the packet run (the events collapse from one per
  128 KiB chunk to one per flow arrival/departure).
* **Parity**: per-instance mean time-to-ready and time-to-deploy-
  complete must agree with packet mode within ``PARITY_TOLERANCE``
  (5%) — the fluid model is a fast path, not a different simulation.
* **Steady state**: zero retransmissions in either mode; a NAK or RTO
  would demote fluid mode and invalidate the comparison.

Scenario notes (docs/performance.md#fleet-scale-sizing has the full
derivation):

* ``server_cache_hit_ratio=1.0`` makes the origin stores stateless, so
  every wave is *identical* and the parity figures are exact,
  reproducible numbers rather than samples of a chaotic contention
  process.
* ``poll_interval=100ms`` quantizes the fetch cadence onto a 50 ms
  completion-poll grid in both modes, which absorbs the sub-50 ms
  timing differences between chunk-FIFO and max-min sharing that
  otherwise let the two modes drift into different collision
  equilibria.
* ``stagger_seconds=1.0`` (longer than one coalesced fetch) breaks the
  boot-storm lockstep where a synchronized wave walks its selector
  cursors in unison; 16 replicas for 8-node waves keep the origin
  ports below saturation so collisions stay rare in both modes.
* ``initial_rto=2.0`` is the TCP-style cold-start RTO: a 32 MiB
  coalesced fetch takes ~350 ms, so the protocol's 50 ms default would
  retransmit-storm before the estimator warms up.

Wall figures are the median of ``WALL_REPEATS`` full runs (scheduler
noise is real; the simulated figures are deterministic and identical
across repeats, so only the walls are re-measured).
"""

import os
import statistics
import time

from _common import MB, emit, once
from repro.cloud import Cluster, build_testbed
from repro.cloud.scaleout import WaveScheduler
from repro.guest.osimage import OsImage
from repro.sim import Environment
from repro.vmm.moderation import FULL_SPEED

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

NODES = 32 if QUICK else 256
REPLICAS = 16
WAVE_SIZE = 8
STAGGER_SECONDS = 1.0
COALESCE_BLOCKS = 32
POLL_INTERVAL = 100e-3
INITIAL_RTO = 2.0
IMAGE_MB = 1024
WALL_REPEATS = 3

#: Acceptance floors/tolerances (the tentpole's numbers).  Quick mode
#: keeps a looser wall floor: the fluid run is well under a second per
#: wave, so the ratio is at the mercy of interpreter warm-up.
SPEEDUP_FLOOR = 3.0 if QUICK else 5.0
PARITY_TOLERANCE = 0.05


def _deploy_fleet(fluid: bool) -> dict:
    """One full fleet deployment; returns walls, events, and figures."""
    env = Environment()
    image = OsImage(size_bytes=IMAGE_MB * MB, boot_read_bytes=128 * 1024,
                    boot_think_seconds=0.25)
    testbed = build_testbed(node_count=NODES, server_count=REPLICAS,
                            select_policy="least-outstanding",
                            server_cache_hit_ratio=1.0,
                            image=image, env=env)
    cluster = Cluster(testbed)
    scheduler = WaveScheduler(cluster, wave_size=WAVE_SIZE,
                              seed_fill_fraction=1.0,
                              stagger_seconds=STAGGER_SECONDS)

    def scenario():
        yield from scheduler.run(
            "bmcast", policy=FULL_SPEED, fluid=fluid,
            coalesce_blocks=COALESCE_BLOCKS,
            poll_interval=POLL_INTERVAL, initial_rto=INITIAL_RTO)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    started = time.perf_counter()
    env.run(until=env.process(scenario()))
    wall = time.perf_counter() - started

    instances = cluster.instances
    assert len(instances) == NODES
    ready = [instance.timeline.total for instance in instances]
    complete = [instance.platform.copier.finished_at
                - instance.platform.copier.started_at
                for instance in instances]
    retransmissions = sum(instance.platform.initiator.retransmissions
                          for instance in instances)
    return {
        "wall": wall,
        "events": env.events_processed,
        "ready_mean": sum(ready) / len(ready),
        "complete_mean": sum(complete) / len(complete),
        "retransmissions": retransmissions,
        "fluid_state": instances[0].platform.fluid.describe(),
    }


def run_figure():
    packet_runs = [_deploy_fleet(fluid=False) for _ in range(WALL_REPEATS)]
    fluid_runs = [_deploy_fleet(fluid=True) for _ in range(WALL_REPEATS)]
    # Simulated figures are deterministic — identical across repeats —
    # so any run's copy serves; only the walls need the median.
    packet, fluid = packet_runs[-1], fluid_runs[-1]
    packet_wall = statistics.median(r["wall"] for r in packet_runs)
    fluid_wall = statistics.median(r["wall"] for r in fluid_runs)
    return {
        "fleet_packet_wall_seconds": round(packet_wall, 3),
        "fleet_fluid_wall_seconds": round(fluid_wall, 3),
        "fleet_wall_speedup_ratio": round(packet_wall / fluid_wall, 3),
        "fleet_event_speedup_ratio": round(
            packet["events"] / fluid["events"], 3),
        "fleet_packet_ready_seconds": round(packet["ready_mean"], 3),
        "fleet_fluid_ready_seconds": round(fluid["ready_mean"], 3),
        "fleet_packet_complete_seconds": round(packet["complete_mean"], 3),
        "fleet_fluid_complete_seconds": round(fluid["complete_mean"], 3),
    }, packet, fluid


def test_fleet(benchmark):
    figures, packet, fluid = once(benchmark, run_figure)
    ready_diff = (figures["fleet_fluid_ready_seconds"]
                  - figures["fleet_packet_ready_seconds"]) \
        / figures["fleet_packet_ready_seconds"]
    complete_diff = (figures["fleet_fluid_complete_seconds"]
                     - figures["fleet_packet_complete_seconds"]) \
        / figures["fleet_packet_complete_seconds"]
    lines = [
        f"Fleet deploy, fluid vs packet ({NODES} nodes, "
        f"{REPLICAS} replicas, waves of {WAVE_SIZE}"
        f"{', quick' if QUICK else ''})",
        f"  packet wall      : {figures['fleet_packet_wall_seconds']:8.2f}s"
        f"  ({packet['events']:,} events)",
        f"  fluid wall       : {figures['fleet_fluid_wall_seconds']:8.2f}s"
        f"  ({fluid['events']:,} events)",
        f"  wall speedup     : "
        f"{figures['fleet_wall_speedup_ratio']:8.2f}x",
        f"  event reduction  : "
        f"{figures['fleet_event_speedup_ratio']:8.2f}x",
        f"  time-to-ready    : {figures['fleet_packet_ready_seconds']:8.2f}s"
        f" packet / {figures['fleet_fluid_ready_seconds']:.2f}s fluid"
        f" ({ready_diff:+.2%})",
        f"  time-to-complete : "
        f"{figures['fleet_packet_complete_seconds']:8.2f}s"
        f" packet / {figures['fleet_fluid_complete_seconds']:.2f}s fluid"
        f" ({complete_diff:+.2%})",
    ]
    emit("fleet", "\n".join(lines), data={"packet": packet, "fluid": fluid})

    # Steady state: a retransmission in either run means the scenario
    # is not measuring what it claims (and would demote fluid mode).
    assert packet["retransmissions"] == 0, packet
    assert fluid["retransmissions"] == 0, fluid
    assert fluid["fluid_state"] == "active", fluid
    assert packet["fluid_state"] == "off", packet

    # The tentpole's acceptance numbers.
    assert figures["fleet_wall_speedup_ratio"] >= SPEEDUP_FLOOR, \
        (f"fluid mode only {figures['fleet_wall_speedup_ratio']:.2f}x "
         f"faster than packet mode (floor {SPEEDUP_FLOOR}x)")
    assert abs(ready_diff) <= PARITY_TOLERANCE, \
        f"time-to-ready diverged {ready_diff:+.2%} (envelope 5%)"
    assert abs(complete_diff) <= PARITY_TOLERANCE, \
        f"time-to-complete diverged {complete_diff:+.2%} (envelope 5%)"

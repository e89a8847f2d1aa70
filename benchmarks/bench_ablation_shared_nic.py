"""Ablation: dedicated vs shared management NIC (paper Section 6).

The paper implements shared-NIC mediation (shadow ring buffers) but
chooses a dedicated NIC "mainly because of the performance reason":
mediation adds latency and jitter to guest networking, and deployment
traffic scrambles for bandwidth with the guest.  This bench measures all
three effects during an active full-speed background copy.

The copy rate is the simulated time each configuration takes to land
``COPY_BYTES`` after the guest NIC comes up, timed from the first
coalesced run that lands after that instant to the run that completes
the byte count.  The full-speed copier lands whole 8 MiB runs, so
counting bytes over a fixed window would move in steps of one run;
timing a fixed byte count between two landings has no such step.
The timed span (about 0.3 s) lies inside both ping loops.

The guest's frames do contend with the copy on the shared wire: each
copier fetch (timed where the fetch returns to the copier) completes
no earlier than with the dedicated NIC, and some complete later.  The
copy is bound by its disk writes, though, which absorb that delay: with
200 pings of 100 bytes both configurations land every run at the same
simulated instant, so the copy rates are equal and the bench checks
only that the shared NIC's copy is not faster.
"""

import statistics

import pytest

from _common import MB, emit, once, small_image
from repro.cloud.scenario import build_testbed
from repro.guest.driver_e1000 import E1000Driver
from repro.net.e1000 import E1000Nic
from repro.net.nic import Nic
from repro.obs import format_table
from repro.sim import Interrupt
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.mediator_nic import NicMediator, SharedNicPort
from repro.vmm.moderation import FULL_SPEED

E1000_BASE = 0xFE00_0000
PINGS = 200
#: Bytes the copy must land for its rate to be timed (two 8 MiB runs).
COPY_BYTES = 16 * MB


def run_config(shared: bool):
    testbed = build_testbed(image=small_image(2048, 8))
    env = testbed.env
    node = testbed.node
    nic = E1000Nic(env, testbed.switch, f"{node.machine.name}-e1000",
                   node.machine, mmio_base=E1000_BASE)
    peer = Nic(env, testbed.switch, "peer")

    def echo():
        try:
            while True:
                frame = yield from peer.recv()
                yield from peer.send(frame.src, frame.payload,
                                     frame.payload_bytes,
                                     protocol=frame.protocol)
        except Interrupt:
            return

    env.process(echo(), name="echo")

    extra = []
    if shared:
        mediator = NicMediator(env, node.machine, nic)
        vmm_port = SharedNicPort(mediator)
        extra = [mediator]
    else:
        vmm_port = node.vmm_nic
    vmm = BmcastVmm(env, node.machine, vmm_port, testbed.fabric,
                    image_sectors=testbed.image.total_sectors,
                    policy=FULL_SPEED, extra_mediators=extra,
                    auto_devirtualize=False)
    driver = E1000Driver(node.machine, nic)
    rtts = []
    #: (simulated time, bytes copied) at each block the copier commits.
    landings = []
    landed = env.event()
    #: First LBA -> completion instant of each copier fetch.
    fetched = {}
    fetcher = vmm.deployment.fetcher
    read_blocks = fetcher.read_blocks

    def timed_read_blocks(lba, sector_count, **options):
        runs = yield from read_blocks(lba, sector_count, **options)
        fetched[lba] = env.now
        return runs

    fetcher.read_blocks = timed_read_blocks

    def copied_bytes():
        return vmm.copier.bytes_written + vmm.copier.writeback_bytes

    def on_block_filled(block):
        landings.append((env.now, copied_bytes()))
        if not landed.triggered \
                and landings[-1][1] - landings[0][1] >= COPY_BYTES:
            landed.succeed()

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from driver.start()
        vmm.deployment.block_filled_listeners.append(on_block_filled)
        # Ping while the copier streams at full speed.
        for index in range(PINGS):
            start = env.now
            yield from driver.send("peer", index, 100)
            yield from driver.recv()
            rtts.append(env.now - start)
            yield env.timeout(2e-3)
        yield landed

    env.run(until=env.process(scenario()))
    (first_time, first_bytes), (last_time, last_bytes) = \
        landings[0], landings[-1]
    return {
        "mean_rtt": statistics.mean(rtts),
        "p95_rtt": sorted(rtts)[int(len(rtts) * 0.95)],
        "jitter": statistics.stdev(rtts),
        "copy_rate": (last_bytes - first_bytes) / (last_time - first_time),
        "fetched": fetched,
    }


def test_ablation_shared_nic(benchmark):
    results = once(benchmark, lambda: {
        "dedicated NIC (paper's choice)": run_config(shared=False),
        "shared NIC (shadow rings)": run_config(shared=True),
    })

    rows = [[label,
             round(result["mean_rtt"] * 1e6, 1),
             round(result["p95_rtt"] * 1e6, 1),
             round(result["jitter"] * 1e6, 1),
             round(result["copy_rate"] / 1e6, 1)]
            for label, result in results.items()]
    emit("ablation_shared_nic", format_table(
        ["configuration", "ping RTT us", "p95 us", "jitter us",
         "copy MB/s"], rows,
        title="Ablation: dedicated vs shared management NIC "
        "(during full-speed copy; copy MB/s times 16 MiB landing)"))

    dedicated = results["dedicated NIC (paper's choice)"]
    shared = results["shared NIC (shadow rings)"]
    # The paper's reasons to prefer a dedicated NIC, quantified:
    # 1. mediation + contention increase guest latency and jitter;
    assert shared["mean_rtt"] > dedicated["mean_rtt"]
    assert shared["jitter"] > dedicated["jitter"]
    # 2. the copy and the guest scramble for one wire, so the copy is
    #    no faster than with its own NIC (this light ping load leaves
    #    it equal; see the module docstring) ...
    assert shared["copy_rate"] < dedicated["copy_rate"] * 1.02
    #    ... while its fetches are delayed: none completes earlier than
    #    with the dedicated NIC, and some complete later.
    common = dedicated["fetched"].keys() & shared["fetched"].keys()
    assert common
    delays = [shared["fetched"][lba] - dedicated["fetched"][lba]
              for lba in common]
    assert min(delays) >= 0.0
    assert max(delays) > 0.0

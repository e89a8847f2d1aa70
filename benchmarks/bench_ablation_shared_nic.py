"""Ablation: dedicated vs shared management NIC (paper Section 6).

The paper implements shared-NIC mediation (shadow ring buffers) but
chooses a dedicated NIC "mainly because of the performance reason":
mediation adds latency and jitter to guest networking, and deployment
traffic scrambles for bandwidth with the guest.  This bench measures all
three effects during an active full-speed background copy.
"""

import statistics

import pytest

from _common import emit, once, small_image
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
    vmm = BmcastVmm(env, node.machine, vmm_port, testbed.server_port,
                    image_sectors=testbed.image.total_sectors,
                    policy=FULL_SPEED, extra_mediators=extra,
                    auto_devirtualize=False)
    driver = E1000Driver(node.machine, nic)
    rtts = []

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from driver.start()
        # Ping while the copier streams at full speed.
        for index in range(PINGS):
            start = env.now
            yield from driver.send("peer", index, 100)
            yield from driver.recv()
            rtts.append(env.now - start)
            yield env.timeout(2e-3)

    env.run(until=env.process(scenario()))
    copy_rate = vmm.copier.write_rate()
    return {
        "mean_rtt": statistics.mean(rtts),
        "p95_rtt": sorted(rtts)[int(len(rtts) * 0.95)],
        "jitter": statistics.stdev(rtts),
        "copy_rate": copy_rate,
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
        "(during full-speed copy)"))

    dedicated = results["dedicated NIC (paper's choice)"]
    shared = results["shared NIC (shadow rings)"]
    # The paper's reasons to prefer a dedicated NIC, quantified:
    # 1. mediation + contention increase guest latency and jitter;
    assert shared["mean_rtt"] > dedicated["mean_rtt"]
    assert shared["jitter"] > dedicated["jitter"]
    # 2. the copy and the guest scramble for one wire, so the copy is
    #    slower than with its own NIC.
    assert shared["copy_rate"] < dedicated["copy_rate"] * 1.02

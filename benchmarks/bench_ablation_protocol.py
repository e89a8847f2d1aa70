"""Ablations on the extended AoE protocol (paper 4.2).

* Jumbo frames (9000 MTU) vs standard Ethernet (1500): the paper's
  protocol extension; measured as background-copy retrieval rate.
* Retransmission under loss: deployment completes correctly across a
  lossy switch, at a throughput cost.
"""

import pytest

from _common import emit, once, small_image
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.obs import format_table
from repro.vmm.moderation import FULL_SPEED

IMAGE_MB = 1024


def deployment_metrics(mtu: int = 9000, loss: float = 0.0):
    testbed = build_testbed(image=small_image(IMAGE_MB, 8), mtu=mtu,
                            loss_probability=loss)
    provisioner = Provisioner(testbed)
    env = testbed.env

    def scenario():
        return (yield from provisioner.deploy(
            "bmcast", skip_firmware=True, policy=FULL_SPEED))

    instance = env.run(until=env.process(scenario()))
    vmm = instance.platform
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 5.0)
    rate = IMAGE_MB * 2**20 / vmm.copier.elapsed
    return {
        "rate": rate,
        "retransmissions": vmm.initiator.retransmissions,
        "complete": vmm.bitmap.complete,
        "verified": testbed.image.verify_deployed(
            testbed.node.disk.contents, instance.guest.written),
    }


def test_ablation_jumbo_frames(benchmark):
    results = once(benchmark, lambda: {
        "jumbo (9000)": deployment_metrics(mtu=9000),
        "standard (1500)": deployment_metrics(mtu=1500),
    })

    rows = [[label, round(result["rate"] / 1e6, 1),
             result["retransmissions"]]
            for label, result in results.items()]
    emit("ablation_jumbo", format_table(
        ["MTU", "copy rate MB/s", "retransmissions"], rows,
        title="Ablation: jumbo frames"))

    assert results["jumbo (9000)"]["rate"] \
        > results["standard (1500)"]["rate"]
    for result in results.values():
        assert result["complete"] and result["verified"]


def test_ablation_retransmission_under_loss(benchmark):
    results = once(benchmark, lambda: {
        "lossless": deployment_metrics(loss=0.0),
        "0.5% frame loss": deployment_metrics(loss=0.005),
    })

    rows = [[label, round(result["rate"] / 1e6, 1),
             result["retransmissions"], str(result["verified"])]
            for label, result in results.items()]
    emit("ablation_loss", format_table(
        ["network", "copy rate MB/s", "retransmissions", "verified"],
        rows, title="Ablation: retransmission under frame loss"))

    lossy = results["0.5% frame loss"]
    assert lossy["retransmissions"] > 0
    assert lossy["complete"] and lossy["verified"], \
        "deployment must stay correct under loss"
    assert lossy["rate"] < results["lossless"]["rate"]

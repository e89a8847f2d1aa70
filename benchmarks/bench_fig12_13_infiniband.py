"""Figures 12 & 13: raw InfiniBand RDMA throughput and latency.

Paper (ib_rdma_bw / ib_rdma_lat, 64-KB messages x1000): throughput is
identical everywhere — the HCA's command queuing hides virtualization —
but latency is taxed: KVM direct assignment +23.6% (IOMMU, cache
pollution, nested paging), BMcast <1% during deployment, zero after.
"""

import pytest

from _common import deploy_instances, deploy_to_devirt, emit, once, \
    run, small_image
from repro.apps.perftest import RdmaPerfTest
from repro.obs import format_table


def run_figure():
    bandwidth = {}
    latency = {}
    cases = (("baremetal", deploy_instances, "baremetal"),
             ("bmcast", deploy_instances, "bmcast-deploy"),
             ("bmcast", deploy_to_devirt, "bmcast-devirt"),
             ("kvm-local", deploy_instances, "kvm-direct"))
    for method, builder, label in cases:
        testbed, instances = builder(method, node_count=2,
                                     with_infiniband=True,
                                     image=small_image(512, 8))
        test = RdmaPerfTest(instances[0], instances[1])

        def scenario():
            bw = yield from test.bandwidth()
            lat = yield from test.latency(message_bytes=8)
            return bw, lat

        bandwidth[label], latency[label] = run(testbed.env, scenario())
    return bandwidth, latency


def test_fig12_13_infiniband(benchmark):
    bandwidth, latency = once(benchmark, run_figure)
    bare_bw = bandwidth["baremetal"]
    bare_lat = latency["baremetal"]

    rows = [[label,
             round(bandwidth[label] / 1e9, 3),
             round(bandwidth[label] / bare_bw, 4),
             round(latency[label] * 1e6, 3),
             round(latency[label] / bare_lat, 3)]
            for label in bandwidth]
    emit("fig12_13_infiniband", format_table(
        ["case", "bw GB/s", "bw ratio", "lat us", "lat ratio"], rows,
        title="Figures 12-13: RDMA throughput and latency"))

    # Figure 12: throughput identical across platforms.
    for label, bw in bandwidth.items():
        assert bw == pytest.approx(bare_bw, rel=0.01), label
    # Figure 13: KVM +23.6%; BMcast <1% deploy, zero after devirt.
    assert latency["kvm-direct"] / bare_lat == pytest.approx(1.236,
                                                             abs=0.03)
    assert latency["bmcast-deploy"] / bare_lat < 1.02
    assert latency["bmcast-devirt"] == pytest.approx(bare_lat, rel=0.005)

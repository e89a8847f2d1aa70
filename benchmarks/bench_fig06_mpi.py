"""Figure 6: MPI collective latency on a 10-node InfiniBand cluster.

Paper: OSU micro-benchmarks with MPICH2.  BMcast (while deploying) is
nearly identical to bare metal on most collectives; KVM pays heavily —
Allgather latency reaches 235% of bare metal, Allreduce +35%.
"""

from _common import deploy_instances, emit, once, run, small_image
from repro.apps.mpi import COLLECTIVES, MpiCluster
from repro.obs import format_table

NODES = 10
MESSAGE_BYTES = 1024

PAPER_KVM_RATIO = {
    "allgather": 2.35,
    "allreduce": 1.35,
}
PAPER_BMCAST_RATIO = {
    "allgather": 1.0,
    "allreduce": 1.22,
}


def run_figure():
    latencies = {}
    for method in ("baremetal", "bmcast", "kvm-local"):
        testbed, instances = deploy_instances(
            method, node_count=NODES, with_infiniband=True,
            image=small_image(512, 8))
        cluster = MpiCluster(instances)
        measured = {}

        def scenario():
            for collective in COLLECTIVES:
                measured[collective] = yield from cluster.measure(
                    collective, MESSAGE_BYTES, iterations=10)

        run(testbed.env, scenario())
        latencies[method] = measured
    return latencies


def test_fig06_mpi_collectives(benchmark):
    latencies = once(benchmark, run_figure)

    rows = []
    for collective in COLLECTIVES:
        bare = latencies["baremetal"][collective]
        bmcast_ratio = latencies["bmcast"][collective] / bare
        kvm_ratio = latencies["kvm-local"][collective] / bare
        rows.append([collective, bare * 1e6, round(bmcast_ratio, 3),
                     round(kvm_ratio, 3)])
    emit("fig06_mpi", format_table(
        ["collective", "baremetal us", "bmcast ratio", "kvm ratio"],
        rows, title=f"Figure 6: MPI collectives, {NODES} nodes, "
        f"{MESSAGE_BYTES}B messages"))

    for collective in COLLECTIVES:
        bare = latencies["baremetal"][collective]
        bmcast_ratio = latencies["bmcast"][collective] / bare
        kvm_ratio = latencies["kvm-local"][collective] / bare
        # BMcast is near bare metal everywhere; KVM is always worse
        # than BMcast.
        assert bmcast_ratio < 1.3, f"{collective}: bmcast {bmcast_ratio}"
        assert kvm_ratio > bmcast_ratio, f"{collective}"
    # The latency-bound collective shows KVM's big multiple.
    allgather_kvm = (latencies["kvm-local"]["allgather"]
                     / latencies["baremetal"]["allgather"])
    assert allgather_kvm > 1.5

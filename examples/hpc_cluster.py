"""Deploy an HPC cluster with BMcast and run MPI on it immediately.

The paper's Section 5.3 scenario: a 10-node InfiniBand cluster (the
machines were "originally used for HPC applications in practice") is
provisioned with BMcast, and MPI jobs start while streaming deployment
is still in progress — at near-bare-metal collective latency.  After
de-virtualization the cluster IS bare metal.

Run:  python examples/hpc_cluster.py
"""

from repro import Provisioner, build_testbed
from repro.apps.mpi import COLLECTIVES, MpiCluster
from repro.guest.osimage import OsImage
from repro.obs import format_table

NODES = 10

#: Shrunk image so the example finishes in seconds.
IMAGE = dict(size_bytes=2 * 2**30, boot_read_bytes=24 * 2**20,
             boot_think_seconds=6.0)


def measure_collectives(cluster, env):
    results = {}

    def job():
        for collective in COLLECTIVES:
            results[collective] = yield from cluster.measure(
                collective, message_bytes=1024, iterations=10)

    env.run(until=env.process(job()))
    return results


def main():
    testbed = build_testbed(node_count=NODES, with_infiniband=True,
                            image=OsImage(**IMAGE))
    provisioner = Provisioner(testbed)
    env = testbed.env

    print(f"Provisioning {NODES} bare-metal nodes with BMcast "
          f"(simultaneously)...")
    instances = []

    def deploy_one(index):
        instance = yield from provisioner.deploy(
            "bmcast", node_index=index, skip_firmware=True)
        instances.append(instance)

    processes = [env.process(deploy_one(index)) for index in range(NODES)]
    env.run(until=env.all_of(processes))
    ready_at = env.now
    print(f"All {NODES} nodes ready at t={ready_at:.1f}s — deployment "
          f"continues underneath.\n")

    cluster = MpiCluster(instances)
    during = measure_collectives(cluster, env)

    print("Waiting for every node to de-virtualize...")
    for instance in instances:
        env.run(until=instance.platform.copier.done) \
            if not instance.platform.copier.done.triggered else None
    env.run(until=env.now + 10.0)
    assert all(instance.platform.phase == "baremetal"
               for instance in instances)
    print(f"Cluster fully bare-metal at t={env.now:.1f}s.\n")

    after = measure_collectives(cluster, env)

    rows = [[collective,
             round(during[collective] * 1e6, 2),
             round(after[collective] * 1e6, 2),
             f"{during[collective] / after[collective]:.3f}x"]
            for collective in COLLECTIVES]
    print(format_table(
        ["collective", "during deploy (us)", "bare metal (us)",
         "deploy/bare"],
        rows, title=f"MPI collective latency, {NODES} nodes, "
        f"1 KB messages"))
    print("\nMPI ran at essentially bare-metal latency even while every "
          "node was still streaming its OS image (paper Figure 6).")


if __name__ == "__main__":
    main()

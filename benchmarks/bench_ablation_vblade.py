"""Ablation: single-threaded vblade vs the paper's thread-pool server.

Paper 4.2: stock vblade is single-threaded and bottlenecks when the VMM
streams read requests; the paper added a thread pool.  Measured here as
the aggregate image-copy rate of several instances deploying at once.
"""

import pytest

from _common import emit, once, small_image
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.obs import format_table
from repro.vmm.moderation import FULL_SPEED

NODES = 3


def deployment_time(workers: int) -> float:
    """Wall time from first copy start to the last node fully deployed,
    with all nodes deploying simultaneously (the scale-up burst)."""
    testbed = build_testbed(node_count=NODES, image=small_image(1024, 8),
                            server_workers=workers)
    provisioner = Provisioner(testbed)
    env = testbed.env
    instances = []

    def one(index):
        instance = yield from provisioner.deploy(
            "bmcast", node_index=index, skip_firmware=True,
            policy=FULL_SPEED)
        instances.append(instance)
        yield instance.platform.copier.done

    processes = [env.process(one(index)) for index in range(NODES)]
    env.run(until=env.all_of(processes))
    copiers = [instance.platform.copier for instance in instances]
    first_start = min(copier.started_at for copier in copiers)
    last_finish = max(copier.finished_at for copier in copiers)
    return last_finish - first_start


def test_ablation_vblade_thread_pool(benchmark):
    times = once(benchmark, lambda: {
        "single-threaded (stock vblade)": deployment_time(1),
        "thread pool (paper's version)": deployment_time(8),
    })

    rows = [[label, round(seconds, 1)] for label, seconds in times.items()]
    emit("ablation_vblade", format_table(
        ["server", f"time to deploy {NODES} nodes (s)"], rows,
        title="Ablation: AoE server threading"))

    single = times["single-threaded (stock vblade)"]
    pooled = times["thread pool (paper's version)"]
    assert pooled < single, "the pool must help under concurrent deploys"

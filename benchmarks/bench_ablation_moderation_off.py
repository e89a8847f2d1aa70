"""Ablation: moderation disabled (full-speed background copy).

The design-choice check for Section 3.3: without moderation the image
lands sooner, but the guest's storage performance collapses while the
copy runs.  With the paper's three-parameter policy the guest keeps most
of its throughput and deployment still completes in reasonable time.
"""

import pytest

from _common import deploy_instances, emit, once, small_image
from repro.apps.fio import FioBenchmark
from repro.obs import format_table
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy


def run_case(policy, label):
    testbed, [instance] = deploy_instances(
        "bmcast", image=small_image(2048, 8), policy=policy)
    env = testbed.env
    fio = FioBenchmark(instance)
    fio.TOTAL_BYTES = 128 * 2**20
    result = {}

    def scenario():
        yield from fio.layout()
        result["guest_rate"] = yield from fio.read_throughput()

    env.run(until=env.process(scenario()))
    vmm = instance.platform
    env.run(until=vmm.copier.done)
    result["deploy_seconds"] = vmm.copier.elapsed
    return result


def test_ablation_moderation(benchmark):
    results = once(benchmark, lambda: {
        "moderated (paper defaults)": run_case(ModerationPolicy(),
                                               "moderated"),
        "full speed (no moderation)": run_case(FULL_SPEED, "full"),
    })

    rows = [[label, round(result["guest_rate"] / 1e6, 1),
             round(result["deploy_seconds"], 1)]
            for label, result in results.items()]
    emit("ablation_moderation", format_table(
        ["policy", "guest read MB/s during copy", "deployment s"], rows,
        title="Ablation: moderation on/off"))

    moderated = results["moderated (paper defaults)"]
    full = results["full speed (no moderation)"]
    # Moderation trades deployment time for guest throughput.
    assert moderated["guest_rate"] > full["guest_rate"]
    assert full["deploy_seconds"] < moderated["deploy_seconds"]

"""Figure 7: kernel-compile elapsed time.

Paper: kernbench (allnoconfig, -j12) takes ~16 s on bare metal; +8% on
BMcast during deployment (storage sharing cost, bounded by moderation);
+3% on KVM (pure virtualization overhead); identical to bare metal after
de-virtualization.
"""

import pytest

from _common import deploy_instances, deploy_to_devirt, emit, once, run
from repro.apps.kernbench import KernbenchRun
from repro.obs import format_table

PAPER_RATIOS = {
    "baremetal": 1.0,
    "bmcast-deploy": 1.08,
    "bmcast-devirt": 1.0,
    "kvm": 1.03,
}


def run_figure():
    elapsed = {}

    def measure(instance):
        bench = KernbenchRun(instance)

        def scenario():
            return (yield from bench.run())

        return run(instance.env, scenario())

    testbed, [instance] = deploy_instances("baremetal")
    elapsed["baremetal"] = measure(instance)

    testbed, [instance] = deploy_instances("bmcast")
    elapsed["bmcast-deploy"] = measure(instance)

    testbed, [instance] = deploy_to_devirt()
    elapsed["bmcast-devirt"] = measure(instance)

    testbed, [instance] = deploy_instances("kvm-local")
    elapsed["kvm"] = measure(instance)
    return elapsed


def test_fig07_kernbench(benchmark):
    elapsed = once(benchmark, run_figure)
    bare = elapsed["baremetal"]

    rows = [[case, seconds, round(seconds / bare, 3),
             PAPER_RATIOS[case]]
            for case, seconds in elapsed.items()]
    emit("fig07_kernbench", format_table(
        ["case", "seconds", "ratio", "paper ratio"], rows,
        title="Figure 7: kernbench elapsed time"))

    # Shape: deploy > kvm > bare; devirt == bare; deploy cost bounded.
    assert elapsed["bmcast-deploy"] > elapsed["kvm"] > bare
    assert elapsed["bmcast-devirt"] == pytest.approx(bare, rel=0.01)
    assert elapsed["bmcast-deploy"] / bare < 1.15
    assert elapsed["kvm"] / bare == pytest.approx(1.03, abs=0.03)

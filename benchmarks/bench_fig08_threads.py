"""Figure 8: sysbench threads — lock-holder preemption.

Paper: 1,000 acquire-yield-release iterations over 8 mutexes, 1-24
threads.  KVM's overhead explodes with thread count (+68% at 24 threads,
the lock-holder preemption problem); BMcast stays within ~6% even while
deploying, because it traps almost nothing.
"""

import pytest

from _common import deploy_instances, emit, once, run
from repro.apps.sysbench import ThreadBenchmark
from repro.obs import format_table

THREAD_COUNTS = (1, 2, 4, 8, 12, 16, 20, 24)


def run_figure():
    times = {}
    for method, label in (("baremetal", "baremetal"),
                          ("bmcast", "bmcast-deploy"),
                          ("kvm-local", "kvm")):
        testbed, [instance] = deploy_instances(method)
        bench = ThreadBenchmark(instance)
        measured = {}

        def scenario():
            for threads in THREAD_COUNTS:
                measured[threads] = yield from bench.run(threads)

        run(testbed.env, scenario())
        times[label] = measured
    return times


def test_fig08_threads(benchmark):
    times = once(benchmark, run_figure)

    rows = []
    for threads in THREAD_COUNTS:
        bare = times["baremetal"][threads]
        rows.append([
            threads,
            round(bare * 1e3, 3),
            round(times["bmcast-deploy"][threads] / bare, 3),
            round(times["kvm"][threads] / bare, 3),
        ])
    emit("fig08_threads", format_table(
        ["threads", "baremetal ms", "bmcast ratio", "kvm ratio"], rows,
        title="Figure 8: sysbench threads"))

    bare24 = times["baremetal"][24]
    # KVM +68% at 24 threads (paper), growing with thread count.
    assert times["kvm"][24] / bare24 == pytest.approx(1.68, abs=0.1)
    ratios = [times["kvm"][t] / times["baremetal"][t]
              for t in THREAD_COUNTS]
    assert ratios == sorted(ratios), "KVM overhead must grow"
    # BMcast modest even at 24 threads (paper: ~6%).
    assert times["bmcast-deploy"][24] / bare24 < 1.10

"""Figure 11: storage latency (ioping small reads).

Paper: during the deploy phase guest requests that arrive while a
multiplexed VMM request is in flight get queued, adding ~4.3 ms to the
average small-read latency; after de-virtualization the latency is back
at bare metal (even marginally better in their run).
"""

import pytest

from _common import deploy_instances, deploy_to_devirt, emit, once, run
from repro.apps.fio import IopingBenchmark
from repro.obs import format_table


def run_figure():
    latencies = {}
    cases = (("baremetal", deploy_instances, "baremetal"),
             ("bmcast", deploy_instances, "bmcast-deploy"),
             ("bmcast", deploy_to_devirt, "bmcast-devirt"))
    for method, builder, label in cases:
        testbed, [instance] = builder(method)
        ioping = IopingBenchmark(instance)

        def scenario():
            yield from ioping.layout()
            return (yield from ioping.run())

        latencies[label] = run(testbed.env, scenario())
    return latencies


def test_fig11_storage_latency(benchmark):
    latencies = once(benchmark, run_figure)
    bare = latencies["baremetal"]

    rows = [
        ["baremetal", round(bare * 1e3, 2), "-"],
        ["bmcast-deploy", round(latencies["bmcast-deploy"] * 1e3, 2),
         "+4.3 ms vs baremetal"],
        ["bmcast-devirt", round(latencies["bmcast-devirt"] * 1e3, 2),
         "== baremetal"],
    ]
    emit("fig11_storage_lat", format_table(
        ["case", "mean latency ms", "paper"], rows,
        title="Figure 11: ioping small-read latency"))

    # Deploy adds milliseconds (queueing behind multiplexed VMM writes).
    extra = latencies["bmcast-deploy"] - bare
    assert 0.5e-3 < extra < 10e-3, f"deploy adds {extra * 1e3:.2f} ms"
    # Devirt: no residual latency.
    assert latencies["bmcast-devirt"] == pytest.approx(bare, rel=0.02)

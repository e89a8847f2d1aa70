"""Figure 14: moderation of background copy — the write-interval sweep.

Paper 5.6: with 1024-KB VMM blocks, sweep the VMM-write interval from
1 s down to 1 us and then full speed, measuring guest read (14a) and
guest write (14b) throughput against the VMM's own write throughput.
As the interval shrinks the VMM rate rises and the guest rate falls; the
two never sum to bare metal because the interleaved streams seek against
each other.
"""

import pytest

from _common import deploy_instances, emit, once
from repro import params
from repro.apps.fio import FioBenchmark
from repro.obs import format_table
from repro.vmm.moderation import interval_sweep_policy

INTERVALS = (1.0, 0.1, 0.01, 1e-3, 1e-6, 0.0)
MEASURE_BYTES = 256 * 2**20


def measure_point(interval: float, guest_op: str):
    """Guest and VMM throughput (bytes/s) at one write interval."""
    testbed, [instance] = deploy_instances(
        "bmcast", policy=interval_sweep_policy(interval))
    env = testbed.env
    vmm = instance.platform
    fio = FioBenchmark(instance)
    fio.TOTAL_BYTES = MEASURE_BYTES
    result = {}

    def scenario():
        yield from fio.layout()
        copier = vmm.copier
        vmm_bytes_before = copier.bytes_written + copier.writeback_bytes
        start = env.now
        if guest_op == "read":
            guest_rate = yield from fio.read_throughput()
        else:
            guest_rate = yield from fio.write_throughput()
        elapsed = env.now - start
        vmm_bytes = (copier.bytes_written + copier.writeback_bytes
                     - vmm_bytes_before)
        result["guest"] = guest_rate
        result["vmm"] = vmm_bytes / elapsed

    env.run(until=env.process(scenario()))
    return result["guest"], result["vmm"]


def run_figure(guest_op: str):
    return {interval: measure_point(interval, guest_op)
            for interval in INTERVALS}


@pytest.mark.parametrize("guest_op", ["read", "write"])
def test_fig14_moderation_sweep(benchmark, guest_op):
    points = once(benchmark, lambda: run_figure(guest_op))

    rows = []
    for interval in INTERVALS:
        guest_rate, vmm_rate = points[interval]
        label = "full-speed" if interval == 0 else f"{interval:g}s"
        rows.append([label, round(guest_rate / 1e6, 1),
                     round(vmm_rate / 1e6, 1),
                     round((guest_rate + vmm_rate) / 1e6, 1)])
    bare = params.DISK_READ_BW if guest_op == "read" \
        else params.DISK_WRITE_BW
    emit(f"fig14_moderation_{guest_op}", format_table(
        ["VMM write interval", f"guest {guest_op} MB/s", "VMM MB/s",
         "sum MB/s"], rows,
        title=f"Figure 14{'a' if guest_op == 'read' else 'b'}: "
        f"moderation sweep (bare metal {bare / 1e6:.1f} MB/s)"))

    guest_rates = [points[i][0] for i in INTERVALS]
    vmm_rates = [points[i][1] for i in INTERVALS]
    # Monotone trade-off: shrinking the interval raises VMM throughput
    # and lowers the guest's.
    assert vmm_rates[0] < vmm_rates[-1]
    assert guest_rates[0] > guest_rates[-1]
    # At a 1-s interval the guest is near bare metal.
    assert guest_rates[0] > 0.9 * bare
    # At full speed the VMM gets a large share...
    assert vmm_rates[-1] > 20e6
    # ...and the sum stays below bare metal (seek interference).
    assert guest_rates[-1] + vmm_rates[-1] < bare

"""Figure 10: storage throughput (fio, 200 MB sequential, 1-MB blocks).

Paper bare metal: 116.6 MB/s read, 111.9 MB/s write.  BMcast: -4.1%
read during deploy, -1.7% after devirt, writes unchanged.  KVM virtio:
-10.5%/-13.6% (local) and -12.3%/-15.3% (NFS).  Network boot pays the
wire for everything.
"""

import pytest

from _common import deploy_instances, deploy_to_devirt, emit, once, run
from repro.apps.fio import FioBenchmark
from repro.obs import format_table

PAPER_MB_S = {
    "baremetal": (116.6, 111.9),
    "bmcast-deploy": (111.8, 111.9),
    "bmcast-devirt": (114.6, 111.9),
    "netboot": (None, None),
    "kvm-local": (104.4, 96.7),
    "kvm-nfs": (102.3, 94.8),
}


def run_figure():
    rates = {}
    cases = (("baremetal", deploy_instances, "baremetal"),
             ("bmcast", deploy_instances, "bmcast-deploy"),
             ("bmcast", deploy_to_devirt, "bmcast-devirt"),
             ("network-boot", deploy_instances, "netboot"),
             ("kvm-local", deploy_instances, "kvm-local"),
             ("kvm-nfs", deploy_instances, "kvm-nfs"))
    for method, builder, label in cases:
        testbed, [instance] = builder(method)
        fio = FioBenchmark(instance)

        def scenario():
            yield from fio.layout()
            read_bw = yield from fio.read_throughput()
            write_bw = yield from fio.write_throughput()
            return read_bw, write_bw

        rates[label] = run(testbed.env, scenario())
    return rates


def test_fig10_storage_throughput(benchmark):
    rates = once(benchmark, run_figure)

    rows = []
    for label, (read_bw, write_bw) in rates.items():
        paper_read, paper_write = PAPER_MB_S[label]
        rows.append([label, round(read_bw / 1e6, 1),
                     paper_read if paper_read else "-",
                     round(write_bw / 1e6, 1),
                     paper_write if paper_write else "-"])
    emit("fig10_storage_tp", format_table(
        ["case", "read MB/s", "paper", "write MB/s", "paper"], rows,
        title="Figure 10: fio sequential throughput"))

    bare_read, bare_write = rates["baremetal"]
    # Bare metal matches the calibrated drive.
    assert bare_read / 1e6 == pytest.approx(116.6, rel=0.03)
    assert bare_write / 1e6 == pytest.approx(111.9, rel=0.03)
    # BMcast deploy: small read penalty; devirt within a couple %.
    deploy_read, deploy_write = rates["bmcast-deploy"]
    assert 0.90 < deploy_read / bare_read < 1.0
    devirt_read, devirt_write = rates["bmcast-devirt"]
    assert devirt_read / bare_read > 0.97
    assert devirt_write / bare_write > 0.97
    # KVM: roughly 10-15% down on both (paper's virtio penalties).
    kvm_read, kvm_write = rates["kvm-local"]
    assert kvm_read / bare_read == pytest.approx(0.895, abs=0.03)
    assert kvm_write / bare_write == pytest.approx(0.864, abs=0.03)
    nfs_read, nfs_write = rates["kvm-nfs"]
    assert nfs_read < kvm_read * 1.05

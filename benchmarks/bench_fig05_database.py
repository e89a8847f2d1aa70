"""Figure 5: database throughput/latency across the deployment phases.

Paper: YCSB against memcached (95/5 reads) and Cassandra (30/70) on a
freshly launched BMcast instance.  During the deploy phase throughput
sits at ~94.8% (memcached) / ~91.4% (Cassandra) of bare metal — on par
with KVM+ELI, which is *not* deploying anything — then steps up to the
bare-metal level at de-virtualization with no suspension.  Latency
mirrors it (+7% during deploy, bare-metal after).
"""

import pytest

from _common import deploy_instances, emit, once, run
from repro.apps.kvstore import CASSANDRA, MEMCACHED, KvStoreServer
from repro.apps.ycsb import READ_HEAVY, WRITE_HEAVY, YcsbBenchmark
from repro.guest.osimage import OsImage
from repro.obs import format_table

#: Sized so the deploy phase lasts minutes (like the paper's 16-17) but
#: the bench stays tractable: 8 GB at the same ~45 MB/s copy rate.
IMAGE = dict(size_bytes=8 * 2**30, boot_read_bytes=24 * 2**20,
             boot_think_seconds=6.0)

POST_DEVIRT_SECONDS = 120.0
WINDOW = 10.0

ENGINES = {
    "memcached": (MEMCACHED, READ_HEAVY),
    "cassandra": (CASSANDRA, WRITE_HEAVY),
}

PAPER = {
    # (deploy tp ratio, deploy latency ratio) vs bare metal
    "memcached": (0.948, 1.036),
    "cassandra": (0.914, 1.068),
}


def run_engine(engine_name):
    profile, write_fraction = ENGINES[engine_name]
    series = {}
    devirt_at = {}
    for method in ("baremetal", "kvm-local", "bmcast"):
        testbed, [instance] = deploy_instances(
            method, image=OsImage(**IMAGE))
        env = testbed.env
        store = KvStoreServer(instance, profile)
        bench = YcsbBenchmark(store, write_fraction, window=WINDOW)
        if method == "bmcast":
            vmm = instance.platform
            started = env.now

            def scenario():
                from repro.sim import Interrupt
                try:
                    yield from bench.run(3600.0)
                except Interrupt:
                    pass

            client = env.process(scenario())
            env.run(until=vmm.copier.done)
            env.run(until=env.now + POST_DEVIRT_SECONDS)
            client.interrupt("enough")
            env.run(until=env.now + WINDOW)
            devirt_stamp = next(stamp for stamp, phase in vmm.phase_log
                                if phase == "baremetal")
            devirt_at[method] = devirt_stamp - started
        else:
            def scenario():
                yield from bench.run(300.0)

            run(env, scenario())
        series[method] = bench
    return series, devirt_at


def summarize(engine_name, series, devirt_at):
    bare_tp = series["baremetal"].mean_throughput()
    bare_lat = series["baremetal"].mean_latency()
    devirt = devirt_at["bmcast"]
    bmcast = series["bmcast"]
    deploy_tp = bmcast.throughput.mean_between(WINDOW, devirt) / bare_tp
    deploy_lat = bmcast.latency.mean_between(WINDOW, devirt) / bare_lat
    after_tp = bmcast.throughput.mean_between(
        devirt + WINDOW, float("inf")) / bare_tp
    after_lat = bmcast.latency.mean_between(
        devirt + WINDOW, float("inf")) / bare_lat
    kvm_tp = series["kvm-local"].mean_throughput() / bare_tp
    kvm_lat = series["kvm-local"].mean_latency() / bare_lat
    return {
        "bare_tp": bare_tp, "bare_lat": bare_lat,
        "deploy_tp": deploy_tp, "deploy_lat": deploy_lat,
        "after_tp": after_tp, "after_lat": after_lat,
        "kvm_tp": kvm_tp, "kvm_lat": kvm_lat,
        "devirt_at": devirt,
    }


@pytest.mark.parametrize("engine_name", ["memcached", "cassandra"])
def test_fig05_database(benchmark, engine_name):
    series, devirt_at = once(
        benchmark, lambda: run_engine(engine_name))
    stats = summarize(engine_name, series, devirt_at)

    paper_tp, paper_lat = PAPER[engine_name]
    rows = [
        ["bare-metal tp (KT/s)", stats["bare_tp"] / 1e3, "", ""],
        ["deploy tp ratio", stats["deploy_tp"], paper_tp, ""],
        ["KVM tp ratio", stats["kvm_tp"], "~0.93", ""],
        ["post-devirt tp ratio", stats["after_tp"], 1.0, ""],
        ["deploy latency ratio", stats["deploy_lat"], paper_lat, ""],
        ["KVM latency ratio", stats["kvm_lat"], "1.1-1.19", ""],
        ["post-devirt latency ratio", stats["after_lat"], 1.0, ""],
        ["devirt at (s)", stats["devirt_at"], "960-1020 @32GB", ""],
    ]
    emit(f"fig05_{engine_name}", format_table(
        ["metric", "measured", "paper", ""], rows,
        title=f"Figure 5 ({engine_name}): performance across phases"))

    # Also emit the time series the figure actually plots (normalized to
    # bare metal, with the de-virtualization step visible).
    bmcast = series["bmcast"]
    bare_tp = series["baremetal"].mean_throughput()
    bare_lat = series["baremetal"].mean_latency()
    series_rows = [
        [round(time, 0), round(tp / bare_tp, 3),
         round(latency / bare_lat, 3),
         "devirt" if abs(time - stats["devirt_at"]) < WINDOW else ""]
        for (time, tp), (_, latency) in zip(
            bmcast.throughput.samples, bmcast.latency.samples)
    ]
    emit(f"fig05_{engine_name}_series", format_table(
        ["t (s)", "tp ratio", "latency ratio", ""], series_rows,
        title=f"Figure 5 ({engine_name}): BMcast series vs bare metal"))

    # Shape assertions:
    # 1. Deploy-phase throughput sits in the low-90s% of bare metal,
    #    comparable to KVM (which is not deploying anything).
    assert 0.88 < stats["deploy_tp"] < 0.98
    assert abs(stats["deploy_tp"] - stats["kvm_tp"]) < 0.06
    # 2. De-virtualization steps performance back to bare metal; KVM
    #    never does.
    assert stats["after_tp"] == pytest.approx(1.0, abs=0.03)
    assert stats["after_lat"] == pytest.approx(1.0, abs=0.03)
    assert stats["kvm_tp"] < 0.97
    # 3. Latency during deploy is a few percent worse than bare metal.
    assert 1.0 < stats["deploy_lat"] < 1.15

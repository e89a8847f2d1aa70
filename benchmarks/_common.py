"""Shared plumbing for the figure-reproduction benches.

Each bench builds the paper's testbed, deploys instances, runs the
figure's workload, prints the same rows/series the paper plots, and
asserts the *shape* (who wins, by roughly what factor).  Results are also
appended to ``benchmarks/results/`` so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
import pathlib

from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.vmm.moderation import FULL_SPEED

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Regression-tracking records live at the repo root (``BENCH_*.json``)
#: so CI can diff them across runs without digging into results/.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MB = 2**20
GB = 2**30


def small_image(size_mb: int = 2048, boot_mb: int = 24) -> OsImage:
    """A shrunken image for benches that only need steady state."""
    return OsImage(size_bytes=size_mb * MB, boot_read_bytes=boot_mb * MB,
                   boot_think_seconds=6.0)


def deploy_instances(method: str, node_count: int = 1,
                     image: OsImage | None = None,
                     skip_firmware: bool = True,
                     policy=None,
                     **testbed_kwargs):
    """Build a testbed and deploy ``node_count`` instances."""
    testbed = build_testbed(node_count=node_count, image=image,
                            **testbed_kwargs)
    provisioner = Provisioner(testbed)
    env = testbed.env
    instances = []

    def scenario():
        for index in range(node_count):
            instance = yield from provisioner.deploy(
                method, node_index=index, skip_firmware=skip_firmware,
                policy=policy)
            instances.append(instance)

    env.run(until=env.process(scenario()))
    return testbed, instances


def deploy_to_devirt(method: str = "bmcast", image: OsImage | None = None,
                     node_count: int = 1, **testbed_kwargs):
    """Deploy with BMcast at full speed and wait for de-virtualization."""
    image = image or small_image()
    testbed, instances = deploy_instances(
        method, node_count=node_count, image=image, policy=FULL_SPEED,
        **testbed_kwargs)
    env = testbed.env
    for instance in instances:
        env.run(until=instance.platform.copier.done)
    env.run(until=env.now + 10.0)
    for instance in instances:
        assert instance.platform.phase == "baremetal"
    return testbed, instances


def run(env, generator):
    return env.run(until=env.process(generator))


def emit(name: str, text: str, data=None, figures=None) -> None:
    """Print a figure's table and persist it under results/.

    ``data`` (any JSON-serializable structure — typically the rows the
    table was built from) is additionally written to ``{name}.json`` so
    downstream tooling can consume results without screen-scraping the
    text tables.

    ``figures`` is a flat ``{metric_name: number}`` dict of the bench's
    headline figures.  Most are *simulated-time* figures (ready seconds,
    hit ratios), deterministic for a given commit; the benches that
    measure the simulator itself (``bench_kernel``, ``bench_fleet``)
    also record wall-clock seconds and rates, each a median of repeated
    runs, which depend on the machine.  When given, a record is appended
    to ``BENCH_{name}.json`` at the repo root;
    ``benchmarks/check_regression.py`` compares the last two records and
    fails CI on a >10% regression (>25% for the wall-clock families).
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True, default=str)
            + "\n")
    if figures is not None:
        _append_bench_record(name, figures)


def _append_bench_record(name: str, figures: dict) -> None:
    """Append one normalized record to ``BENCH_{name}.json``.

    The file holds a JSON list of ``{"run": n, "figures": {...}}``
    records in append order.  Only deterministic simulated-time metrics
    belong here: two runs of the same code must produce byte-identical
    figures, so any drift between records is a real code change.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (ValueError, OSError):
            records = []
        if not isinstance(records, list):
            records = []
    records.append({
        "run": len(records),
        "figures": {key: round(float(value), 6)
                    for key, value in sorted(figures.items())},
    })
    path.write_text(json.dumps(records, indent=2, sort_keys=True)
                    + "\n")


def once(benchmark, function):
    """Run a whole-figure simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, rounds=1, iterations=1)

"""Shared plumbing for the figure-reproduction benches.

Each bench builds the paper's testbed, deploys instances, runs the
figure's workload, prints the same rows/series the paper plots, and
asserts the *shape* (who wins, by roughly what factor).  Results are also
written to ``benchmarks/results/`` so EXPERIMENTS.md can cite them.  The
benches reproduce figures; the simulator's own speed is measured by
perfbench (``perfbench/README.md``, bounds in ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import pathlib

from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.vmm.moderation import FULL_SPEED

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

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


def emit(name: str, text: str, data=None) -> None:
    """Print a figure's table and persist it under results/.

    The table goes to ``{name}.txt``.  ``data`` (any JSON-serializable
    structure — typically the rows the table was built from) is also
    written to ``{name}.json`` so downstream tooling can consume results
    without screen-scraping the text tables.  Nothing is written outside
    ``benchmarks/results/``.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True, default=str)
            + "\n")


def once(benchmark, function):
    """Run a whole-figure simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, rounds=1, iterations=1)

"""Scale-up concurrency (paper 5.1, in-text claim).

"BMcast transferred only 72 MB of the disk image while booting the OS
... this means that there is more room to scale-up the number of
instances booted simultaneously" — image copying saturates the storage
server, so simultaneous deployments slow each other down; BMcast's
time-to-ready barely moves because boot pulls only the working set.
"""

import pytest

from _common import emit, once
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.obs import format_table

MB = 2**20

#: 4-GB image keeps the N=8 image-copy case tractable.
IMAGE = dict(size_bytes=4 * 2**30, boot_read_bytes=72 * MB,
             boot_think_seconds=22.5)

NODE_COUNTS = (1, 2, 4, 8)


def time_to_all_ready(method: str, node_count: int) -> float:
    testbed = build_testbed(node_count=node_count,
                            image=OsImage(**IMAGE))
    provisioner = Provisioner(testbed)
    env = testbed.env
    ready_times = []

    def one(index):
        yield from provisioner.deploy(method, node_index=index,
                                      skip_firmware=True)
        ready_times.append(env.now)

    processes = [env.process(one(index)) for index in range(node_count)]
    start = env.now
    env.run(until=env.all_of(processes))
    return max(ready_times) - start


def run_figure():
    results = {}
    for method in ("bmcast", "image-copy"):
        results[method] = {count: time_to_all_ready(method, count)
                           for count in NODE_COUNTS}
    return results


def test_scaleup_concurrent_instances(benchmark):
    results = once(benchmark, run_figure)

    rows = []
    for count in NODE_COUNTS:
        bmcast = results["bmcast"][count]
        copy = results["image-copy"][count]
        rows.append([count, round(bmcast, 1), round(copy, 1),
                     round(copy / bmcast, 1)])
    emit("scaleup_concurrency", format_table(
        ["simultaneous instances", "bmcast all-ready s",
         "image-copy all-ready s", "advantage"], rows,
        title="Scale-up: time until N simultaneous instances are ready "
        "(4-GB image)"))

    # BMcast's time-to-ready degrades only mildly with N (boot pulls
    # ~72 MB per instance)...
    bmcast_degradation = results["bmcast"][8] / results["bmcast"][1]
    assert bmcast_degradation < 1.6
    # ...while image copy, which must push the whole image to every
    # node through one server, degrades much faster (bounded below 2x
    # only by its fixed installer-boot + firmware-restart time)...
    copy_degradation = results["image-copy"][8] / results["image-copy"][1]
    assert copy_degradation > 1.7
    # ...so BMcast's advantage GROWS with scale (the elasticity claim).
    advantage_1 = results["image-copy"][1] / results["bmcast"][1]
    advantage_8 = results["image-copy"][8] / results["bmcast"][8]
    assert advantage_8 > advantage_1 * 1.5

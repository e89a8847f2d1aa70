"""Ablation: prefetch-aware background copy (paper 3.3's optimization).

"We could configure the moderation function to prefetch the disk regions
required for OS startup ... which would potentially boost OS startup
time."  The provider profiles the image's boot once; the copier then
copies those blocks first, un-moderated, so most boot reads find local
data instead of redirecting to the server.
"""

import pytest

from _common import emit, once
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.obs import format_table


def boot_with(prefetch: bool):
    testbed = build_testbed()
    provisioner = Provisioner(testbed)
    env = testbed.env
    options = {}
    if prefetch:
        options["prefetch_lbas"] = testbed.image.boot_lbas()

    def scenario():
        return (yield from provisioner.deploy(
            "bmcast", skip_firmware=True, **options))

    instance = env.run(until=env.process(scenario()))
    vmm = instance.platform
    return {
        "boot_seconds": instance.guest.boot_seconds,
        "redirects": vmm.mediator.redirected_reads,
        "redirected_mb": vmm.deployment.redirected_bytes / 2**20,
    }


def test_ablation_boot_prefetch(benchmark):
    results = once(benchmark, lambda: {
        "no prefetch (paper default)": boot_with(False),
        "boot-profile prefetch": boot_with(True),
    })

    rows = [[label, round(result["boot_seconds"], 1),
             result["redirects"], round(result["redirected_mb"], 1)]
            for label, result in results.items()]
    emit("ablation_prefetch", format_table(
        ["configuration", "guest boot s", "redirects", "redirected MB"],
        rows, title="Ablation: prefetching the boot working set"))

    plain = results["no prefetch (paper default)"]
    prefetched = results["boot-profile prefetch"]
    # Prefetch converts redirects into local reads and speeds up boot.
    assert prefetched["redirects"] < plain["redirects"] * 0.7
    assert prefetched["boot_seconds"] < plain["boot_seconds"]

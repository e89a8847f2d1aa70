"""Ablation: preemption-timer polling vs the soft-timer fallback.

Paper 4.1: the VMX preemption timer gives cycle-granular VMM scheduling;
on CPUs without it, the VMM falls back to piggybacking on hardware
interrupts (soft timers), making polling coarser and jittery.  Measured
as guest OS boot time (copy-on-read latency is polling-bound) and
redirect latency.
"""

import pytest

from _common import deploy_instances, emit, once
from repro.obs import format_table


def boot_metrics(has_preemption_timer: bool):
    testbed, [instance] = deploy_instances(
        "bmcast", has_preemption_timer=has_preemption_timer)
    vmm = instance.platform
    redirects = vmm.deployment.redirects
    mean_redirect = sum(record.latency for record in redirects) \
        / len(redirects)
    return {
        "boot_seconds": instance.guest.boot_seconds,
        "mean_redirect": mean_redirect,
        "poll_interval": vmm.poll_interval,
    }


def test_ablation_soft_timer_fallback(benchmark):
    results = once(benchmark, lambda: {
        "preemption timer": boot_metrics(True),
        "soft-timer fallback": boot_metrics(False),
    })

    rows = [[label,
             f"{result['poll_interval'] * 1e6:.0f}us",
             round(result["boot_seconds"], 1),
             round(result["mean_redirect"] * 1e3, 2)]
            for label, result in results.items()]
    emit("ablation_polling", format_table(
        ["scheduling", "poll interval", "guest boot s",
         "mean redirect ms"], rows,
        title="Ablation: preemption timer vs soft timers"))

    timer = results["preemption timer"]
    soft = results["soft-timer fallback"]
    # Coarser polling -> slower redirects -> slower boot.
    assert soft["mean_redirect"] > timer["mean_redirect"]
    assert soft["boot_seconds"] > timer["boot_seconds"]
    # But the fallback still works (boot completes within ~2x).
    assert soft["boot_seconds"] < timer["boot_seconds"] * 2.0

#!/usr/bin/env python
"""Compare the last two bench records and fail on a >10% regression.

``benchmarks/_common.emit(..., figures={...})`` appends one record per
bench run to ``BENCH_<name>.json`` at the repo root.  Simulated-time
figures are deterministic: the same code produces identical figures, and
any drift between consecutive records is a real behavioral change.  The
wall-clock families (``WALL_SUFFIXES``) are medians of repeated runs and
get a wider threshold.  This checker compares the newest record
against the one before it, per shared metric, and exits non-zero when
any metric worsened by more than the threshold.

Direction: every figure family a bench emits is registered in
``DIRECTIONS`` (exact names) or ``SUFFIX_DIRECTIONS`` (parameterized
families like ``{method}_ready_seconds``).  A figure matching neither
falls back to the old substring heuristic *with a warning* — add new
families to the tables instead of relying on the fallback, which once
mis-scored ``wasted_node_seconds``-style names that merely mention a
higher-is-better token.

Usage::

    python benchmarks/check_regression.py [--threshold 0.10] [FILES...]

With no FILES, every ``BENCH_*.json`` at the repo root is checked.
Files with fewer than two records are skipped (nothing to compare).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Exact figure name -> better direction.  One entry per singleton
#: figure; parameterized families live in SUFFIX_DIRECTIONS.
DIRECTIONS = {
    # bench_scaleout.py
    "last_wave_peer_hit_ratio": "higher",
    # bench_elasticity.py (placement comparison at equal fleet size)
    "round_robin_wave_p95_seconds": "lower",
    "cache_aware_wave_p95_seconds": "lower",
    # bench_fleet.py (fluid-flow fast path vs packet mode).  Listed
    # exactly — this family mixes wall-clock figures, deterministic
    # simulated figures, and ratios, so no suffix rule or fallback
    # heuristic should ever touch it.
    "fleet_packet_wall_seconds": "lower",
    "fleet_fluid_wall_seconds": "lower",
    "fleet_wall_speedup_ratio": "higher",
    "fleet_event_speedup_ratio": "higher",
    "fleet_packet_ready_seconds": "lower",
    "fleet_fluid_ready_seconds": "lower",
    "fleet_packet_complete_seconds": "lower",
    "fleet_fluid_complete_seconds": "lower",
}

#: Figure-family suffix -> better direction, matched in order.  Covers
#: names templated over a method/policy/node-count axis:
#:   {method}_ready_seconds        bench_fig04_startup.py   lower
#:   baseline_{n}_seconds,
#:   fabric_{n}_seconds            bench_scaleout.py        lower
#:   {policy}_slo_attainment       bench_elasticity.py      higher
#:   {policy}_wasted_node_seconds  bench_elasticity.py      lower
#:   {policy}_ttr_p95_seconds      bench_elasticity.py      lower
SUFFIX_DIRECTIONS = (
    ("_slo_attainment", "higher"),
    ("_hit_ratio", "higher"),
    ("_throughput", "higher"),
    # bench_kernel.py: simulator-throughput figures.
    ("_events_per_sec", "higher"),
    ("_per_sec", "higher"),
    ("_speedup_ratio", "higher"),
    ("_wall_seconds", "lower"),
    ("_ready_seconds", "lower"),
    ("_wasted_node_seconds", "lower"),
    ("_seconds", "lower"),
)

#: Wall-clock figure families (bench_kernel.py and bench_fleet.py
#: measure the simulator itself, so their walls are wall time by
#: nature).  Consecutive records come from the same machine in the
#: same CI job, but runner noise is real — these families fail only
#: past a wider tolerance than the simulated-time default.  Every
#: emitted wall figure is a median of >=3 inner repeats (bench_kernel
#: uses median-of-5), which is what lets this sit at 25% rather than
#: the 50% the old best-of-N figures needed.
WALL_SUFFIXES = ("_wall_seconds", "_per_sec", "_speedup_ratio")
WALL_THRESHOLD = 0.25

#: Figures whose names *look* like a wall family but are fully
#: deterministic simulated quantities — keep them on the tight
#: default threshold.
DETERMINISTIC_EXCEPTIONS = frozenset({
    # Event counts, not walls: identical across repeats on one commit.
    "fleet_event_speedup_ratio",
})


def metric_threshold(name: str, base: float) -> float:
    """The failure threshold for one metric (wall families widened)."""
    if name in DETERMINISTIC_EXCEPTIONS:
        return base
    if name.endswith(WALL_SUFFIXES):
        return max(base, WALL_THRESHOLD)
    return base

#: Fallback-only heuristic, kept for figures added without a table
#: entry; hitting it prints a warning.
HIGHER_IS_BETTER = ("ratio", "throughput", "rate", "hits")


def metric_direction(name: str) -> str:
    """'higher' or 'lower' (the better direction) for a metric name."""
    direction = DIRECTIONS.get(name)
    if direction is not None:
        return direction
    for suffix, direction in SUFFIX_DIRECTIONS:
        if name.endswith(suffix):
            return direction
    lowered = name.lower()
    guessed = "higher" if any(token in lowered
                              for token in HIGHER_IS_BETTER) else "lower"
    print(f"warning: figure {name!r} has no direction entry; "
          f"guessing {guessed}-is-better — add it to DIRECTIONS or "
          f"SUFFIX_DIRECTIONS in benchmarks/check_regression.py",
          file=sys.stderr)
    return guessed


def compare_records(previous: dict, latest: dict,
                    threshold: float) -> list:
    """Regressions between two ``figures`` dicts, as report strings."""
    regressions = []
    for name in sorted(set(previous) & set(latest)):
        before = float(previous[name])
        after = float(latest[name])
        if before == after:
            continue
        direction = metric_direction(name)
        limit = metric_threshold(name, threshold)
        if before == 0.0:
            # No baseline magnitude to scale by; a metric appearing
            # from zero is growth, not regression, unless lower is
            # better and it became positive.
            if direction == "lower" and after > 0.0:
                regressions.append(
                    f"{name}: {before:g} -> {after:g} "
                    f"(was zero, now positive; lower is better)")
            continue
        change = (after - before) / abs(before)
        worsened = change > limit if direction == "lower" \
            else change < -limit
        if worsened:
            regressions.append(
                f"{name}: {before:g} -> {after:g} "
                f"({change:+.1%}; {direction} is better)")
    return regressions


def check_file(path: pathlib.Path, threshold: float) -> list:
    """Regression report lines for one BENCH_*.json file."""
    try:
        records = json.loads(path.read_text())
    except (ValueError, OSError) as error:
        return [f"{path.name}: unreadable ({error})"]
    if not isinstance(records, list) or len(records) < 2:
        print(f"{path.name}: {len(records) if isinstance(records, list) else 0} "
              f"record(s), nothing to compare")
        return []
    previous = records[-2].get("figures", {})
    latest = records[-1].get("figures", {})
    regressions = compare_records(previous, latest, threshold)
    if regressions:
        return [f"{path.name}: {line}" for line in regressions]
    shared = len(set(previous) & set(latest))
    print(f"{path.name}: {shared} metric(s) within "
          f"{threshold:.0%} of the previous record")
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >threshold bench regressions")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="BENCH_*.json files (default: repo root)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative worsening that fails (default 0.10)")
    args = parser.parse_args(argv)

    files = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json records found; nothing to check")
        return 0

    failures = []
    for path in files:
        failures.extend(check_file(path, args.threshold))
    if failures:
        print("\nREGRESSIONS DETECTED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

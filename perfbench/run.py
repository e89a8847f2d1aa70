"""The repository benchmark: ``python3 perfbench/run.py --workload <name>
[--seed N] [--seconds S] [--trace 0|1]``, run from the repository root.

Every measurement runs in a fresh interpreter (``child.py``), one at a
time, so no two compete for the host.  Host times are scaled to a
reference host speed by a probe that samples the speed during the
measurement (``child.SpeedProbe``); the interpreter lines keep the
measured times beside the factors.  With ``--trace 0`` the run
repeats the workload until the next repeat would overrun ``--seconds``
(at least once), between two batches of set-up-only interpreters that
give ``SETUP_SAMPLES`` more set-up times, and reports medians of the
end-to-end metrics.  With ``--trace 1`` it runs the workload once untraced and
once traced, and reports the per-layer metrics.

Standard output carries a manifest line and a line per interpreter;
the last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when a result was printed, whether or
not it is correct.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 20150314
#: Set-up times gathered per untraced run (its median is ``setup_s``).
SETUP_SAMPLES = 8
#: Every run ends within this many host seconds of its start.
RUN_LIMIT_S = 170.0
#: The ROADMAP's envelope for simulated figures on the default seed.
FIGURE_TOLERANCE = 1e-3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Every interpreter compiles the sources alike and writes nothing
    # into the checkout; a fixed hash seed fixes set and dict layouts.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workload, seed, mode, deadline):
    """Run one child; returns (result dict or None, error text)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, str(seed), mode],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return None, f"{mode} run exceeded the run limit"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"{mode} run exited {proc.returncode}: {tail[0]}"
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - spawned
    # Host times are reported at the reference host speed (see
    # child.SpeedProbe); the measured ones stay in the record.
    result["host_setup_s"] = result.pop("t_first_event") - spawned
    result["setup_s"] = result["host_setup_s"] * result["setup_speed"]
    if "wall_s" in result:
        result["host_wall_s"] = result["wall_s"]
        result["wall_s"] *= result["speed"]
    return result, ""


def _git_sha():
    """The checkout's commit, read from ``.git`` (``None`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _model_failures(workload, seed, model):
    """Reference ``model.*`` figures hold only on the default seed."""
    if seed != DEFAULT_SEED:
        return []
    reference = json.loads(REFERENCE.read_text())[workload]
    failures = []
    for name, expected in reference.items():
        got = model.get(name)
        if got is None or abs(got - expected) > FIGURE_TOLERANCE * abs(
                expected):
            failures.append(f"{name} = {got}, reference {expected}")
    return failures


class Tally:
    """Attempted and failed operations across a run's interpreters."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.failures += failures


def _account(tally, workload, seed, result, error):
    if result is None:
        tally.add(1, [error])
        return
    tally.add(result["attempted"],
              result["failures"] + _model_failures(workload, seed,
                                                   result["model"]))


def _setups(workload, seed, count, deadline, tally):
    """``count`` set-up times from set-up-only interpreters."""
    samples = []
    for _ in range(count):
        result, error = _spawn(workload, seed, "setup", deadline)
        if result is None:
            tally.add(1, [error])
            return None
        samples.append(result["setup_s"])
    return samples


def _untraced(workload, seed, seconds, deadline, tally):
    # Half the set-up samples come before the full runs and half after,
    # so set-up and full runs sample the same stretch of host time.
    started = time.monotonic()
    setups = _setups(workload, seed, SETUP_SAMPLES // 2, deadline, tally)
    if setups is None:
        return None
    runs = []
    while True:
        result, error = _spawn(workload, seed, "full", deadline)
        _account(tally, workload, seed, result, error)
        if result is None:
            return None
        runs.append(result)
        print(json.dumps({"interpreter": len(runs), **{
            key: result[key] for key in (
                "wall_s", "host_wall_s", "speed", "setup_s", "host_setup_s",
                "setup_speed", "peak_rss_mb")}}))
        elapsed = time.monotonic() - started
        if elapsed + result["elapsed_s"] > seconds:
            break
    after = _setups(workload, seed, SETUP_SAMPLES - SETUP_SAMPLES // 2,
                    deadline, tally)
    if after is None:
        return None
    if any(result["model"] != runs[0]["model"] for result in runs):
        tally.add(1, ["model figures differ between identical runs"])
    setups += after + [result["setup_s"] for result in runs]
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in runs),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs),
                        "unit": "MiB"},
    }


#: Units of the per-layer metrics that are not plain counts.
_UNITS = {"storage.disk_busy_sim_s": "s", "storage.disk_seek_sim_s": "s",
          "net.fluid_byte_share": "ratio", "dist.peer_hit_ratio": "ratio",
          "sim.host_us_per_event": "us", "trace.overhead_ratio": "ratio",
          "model.ready_sim_s": "s", "model.complete_sim_s": "s",
          "model.guest_read_MBps": "MiB/s", "model.guest_write_MBps": "MiB/s",
          "model.slo_attainment": "ratio", "model.ttr_p95_sim_s": "s",
          "model.wasted_node_sim_s": "s"}


def per_layer_names(workloads) -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return (list(workloads.COUNTERS)
            + [f"sim.events.{name}" for name in workloads.EVENT_COMPONENTS]
            + ["vmm.poll_timeouts", "sim.host_us_per_event"]
            + [f"{layer}.{kind}" for layer in workloads.LAYERS
               for kind in ("self_s", "calls")]
            + list(workloads.MODEL) + ["trace.overhead_ratio"])


def unit_of(name) -> str:
    if name.endswith(".self_s"):
        return "s"
    return _UNITS.get(name, "count")


def _traced(workload, seed, deadline, tally, workloads):
    plain, error = _spawn(workload, seed, "full", deadline)
    _account(tally, workload, seed, plain, error)
    if plain is None:
        return None
    traced, error = _spawn(workload, seed, "traced", deadline)
    if traced is None:
        tally.add(1, [error])
        return None
    if traced["counters"].get("sim.events") != \
            plain["counters"].get("sim.events"):
        tally.add(1, ["tracing changed sim.events"])
    if traced["model"] != plain["model"]:
        tally.add(1, ["tracing changed the model figures"])
    values = {**plain["counters"], **plain["model"],
              **traced.get("traced", {})}
    events = plain["counters"].get("sim.events")
    if events:
        values["sim.host_us_per_event"] = plain["wall_s"] / events * 1e6
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    # A metric a workload has no use for (ctl counters outside
    # elastic-ctl, guest rates outside guest-io) reads 0.
    return {name: {"value": values.get(name, 0), "unit": unit_of(name)}
            for name in per_layer_names(workloads)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Cached bytecode would make later runs' set-up cheaper than the
    # first; no interpreter of the benchmark writes any.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    print(json.dumps({"manifest": {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "params": workloads.PARAMS[args.workload],
    }}))
    tally = Tally()
    if args.trace:
        metrics = _traced(args.workload, args.seed, deadline, tally,
                          workloads)
    else:
        metrics = _untraced(args.workload, args.seed, args.seconds,
                            deadline, tally)
    if metrics is None:
        print("\n".join(tally.failures), file=sys.stderr)
        return 1
    for failure in tally.failures:
        print(json.dumps({"failure": failure}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measurement in a fresh interpreter: ``python3 perfbench/child.py
<workload> <seed> <mode>``.

Modes:

* ``setup``: import, build the testbed and construct the workload, then
  stop before the first simulated event;
* ``full``: the untraced run — host time, peak memory, the public
  counters, the ``model.*`` figures and the correctness gate;
* ``traced``: the same run under the standard-library profiler, with a
  ``schedule_hook`` counting scheduled events by component and the
  VMM's poll timeouts.

The last line of standard output is one JSON object.  ``t_first_event``
is ``time.monotonic()`` just before the first simulated event, so the
parent, which noted the same clock at spawn time, gets the set-up time.
``setup_speed`` and ``speed`` are :class:`SpeedProbe` factors for the
set-up and for the run.
"""

import json
import os
import signal
import statistics
import sys
import time
import traceback

#: Host seconds between two speed probes, and the probe's loop length.
PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 20_000
#: The probe's duration on the reference host: a factor of 1 means the
#: host ran at that speed.
REFERENCE_PROBE_S = 1.2e-3


class SpeedProbe:
    """Samples the host's speed while this interpreter works.

    A shared virtual machine speeds up and slows down by 15% or more
    within seconds, and by as much over minutes, for every process
    alike.  Every ``PROBE_INTERVAL_S`` a ``SIGALRM`` handler times a
    fixed integer loop that touches no simulator state, so the samples
    follow the speed the workload saw during the very same seconds.
    :meth:`factor` is the mean of ``REFERENCE_PROBE_S / sample``: a host
    time multiplied by it is the time at the reference speed.  The
    probes cost about 1% of the run, inside the timed region.
    """

    def __init__(self):
        self.samples = []

    def _probe(self, *_):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value * value % 7
        self.samples.append(time.perf_counter() - started)

    def start(self) -> "SpeedProbe":
        self.samples = []
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def factor(self) -> float:
        """The speed factor over the samples since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return statistics.fmean(REFERENCE_PROBE_S / sample
                                for sample in self.samples)


def _peak_rss_mib() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _package_of(filename: str, root: str) -> str | None:
    """The ``repro`` package defining ``filename`` (``None`` outside)."""
    if not filename.startswith(root):
        return None
    head = filename[len(root):].split("/", 1)
    return head[0] if len(head) == 2 else "repro"


def _layer_profile(profiler, root, layers) -> dict:
    """Self seconds and calls per ``repro`` package.  A builtin or
    standard-library function is charged to the package of its
    immediate caller; the benchmark's own hook and probe to none."""
    profiler.create_stats()
    self_s = dict.fromkeys(layers, 0.0)
    calls = dict.fromkeys(layers, 0)
    bench = os.path.dirname(os.path.abspath(__file__)) + os.sep
    for (filename, _, _), (_, ncalls, tottime, _, callers) in \
            profiler.stats.items():
        package = _package_of(filename, root)
        if package is not None:
            if package in self_s:
                self_s[package] += tottime
                calls[package] += ncalls
            continue
        if filename.startswith(bench):
            continue
        for (caller_file, _, _), edge in callers.items():
            caller = _package_of(caller_file, root)
            if caller in self_s:
                self_s[caller] += edge[2]
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    return metrics


def _traced_drive(run, components, window_sim_s):
    """Drive ``run`` with the schedule hook and the profiler attached.

    The profiler stops at simulated time ``window_sim_s`` (``None``:
    never).  The hook only reads: it schedules nothing, so the event
    stream is the untraced run's.
    """
    import cProfile
    import math

    from repro.obs.causal import classify_actor
    from repro.sim import Timeout

    env = run.env
    counts = dict.fromkeys(components, 0)
    by_name = {}
    poll = run.poll_interval
    poll_timeouts = 0
    profiler = cProfile.Profile()
    profiling = True

    def hook(event, cause, fire_at):
        nonlocal poll_timeouts, profiling
        now = env.now
        process = env.active_process
        name = process.name if process is not None else "kernel"
        component = by_name.get(name)
        if component is None:
            component = by_name[name] = classify_actor(name)
        counts[component] += 1
        if type(event) is Timeout and \
                math.isclose(fire_at - now, poll, rel_tol=1e-6):
            poll_timeouts += 1
        if profiling and window_sim_s is not None and now >= window_sim_s:
            profiler.disable()
            profiling = False

    env.schedule_hook = hook
    started = time.perf_counter()
    profiler.enable()
    try:
        run.drive()
    finally:
        profiler.disable()
        wall = time.perf_counter() - started
        env.schedule_hook = None
    events = {f"sim.events.{name}": count for name, count in counts.items()}
    return wall, events, poll_timeouts, profiler


def main(argv) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    probe = SpeedProbe().start()
    import repro
    import workloads

    run = workloads.build(name, seed)
    t_first_event = time.monotonic()
    result = {"t_first_event": t_first_event, "setup_speed": probe.factor()}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    try:
        probe.start()
        if mode == "full":
            started = time.perf_counter()
            run.drive()
            result["wall_s"] = time.perf_counter() - started
            result["speed"] = probe.factor()
            result["peak_rss_mb"] = _peak_rss_mib()
        elif mode == "traced":
            wall, events, poll_timeouts, profiler = _traced_drive(
                run, workloads.EVENT_COMPONENTS,
                workloads.PROFILE_WINDOW_SIM_S.get(name))
            result["wall_s"] = wall
            result["speed"] = probe.factor()
            result["traced"] = {**events, "vmm.poll_timeouts": poll_timeouts}
            root = os.path.dirname(repro.__file__) + os.sep
            result["traced"].update(_layer_profile(profiler, root,
                                                   workloads.LAYERS))
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        result.update(run.collect())
    except Exception as error:  # a failed operation, reported not raised
        traceback.print_exc()
        result.setdefault("wall_s", time.monotonic() - t_first_event)
        result.setdefault("speed", probe.factor())
        result.setdefault("peak_rss_mb", _peak_rss_mib())
        result.update(attempted=run.planned_ops, model={}, counters={},
                      failures=[f"{type(error).__name__}: {error}"]
                      * run.planned_ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

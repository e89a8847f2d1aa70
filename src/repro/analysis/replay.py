"""Replay-divergence checker.

A correct simulation is a pure function of its inputs: running the
same scenario twice must produce the *identical* event stream.  The
checker attaches a :class:`ReplayRecorder` to each run's environment
(via ``Environment.trace_hook``), folds every popped event into a
rolling BLAKE2 hash of ``(time, event type, process name)``, and
compares digests across runs.  Any wall-clock read, unseeded RNG
draw, or iteration over an unordered container with nondeterministic
order shows up as a digest mismatch — with the event count narrowing
down where the streams parted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class ReplayRecorder:
    """Rolling hash over one environment's popped-event stream."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0

    def attach(self, env) -> "ReplayRecorder":
        if env.trace_hook is not None:
            raise RuntimeError("environment already has a trace hook")
        env.trace_hook = self._on_event
        return self

    def _on_event(self, now: float, event) -> None:
        self.events += 1
        name = getattr(event, "name", None) or ""
        record = f"{now!r}|{type(event).__name__}|{name}\n"
        self._hash.update(record.encode("utf-8"))

    def digest(self) -> str:
        return self._hash.hexdigest()


@dataclass(frozen=True)
class ReplayReport:
    """Digests and event counts from ``runs`` executions."""

    digests: tuple
    event_counts: tuple

    @property
    def divergent(self) -> bool:
        return len(set(self.digests)) > 1

    def describe(self) -> str:
        if not self.divergent:
            return (f"replay: {len(self.digests)} runs identical "
                    f"({self.event_counts[0]} events, "
                    f"digest {self.digests[0][:16]})")
        lines = ["replay: DIVERGENT runs"]
        lines.extend(
            f"  run {index}: {count} events, digest {digest[:16]}"
            for index, (digest, count)
            in enumerate(zip(self.digests, self.event_counts)))
        return "\n".join(lines)


def check_replay(scenario, runs: int = 2,
                 recorded: tuple = ()) -> ReplayReport:
    """Run ``scenario(recorder)`` until ``runs`` streams are recorded
    and compare them.

    ``scenario`` must build a **fresh** environment each call, attach
    the recorder to it (``recorder.attach(env)``) before running, and
    share no mutable state across calls — shared state is exactly the
    bug class this checker exists to expose.  ``recorded`` holds the
    recorders of runs the caller already made with the same callable;
    they count toward ``runs``, so a caller that recorded its own run
    checks that very run against fresh ones.
    """
    if runs < 2:
        raise ValueError("a replay check needs at least 2 runs")
    recorders = list(recorded)
    while len(recorders) < runs:
        recorder = ReplayRecorder()
        scenario(recorder)
        recorders.append(recorder)
    return ReplayReport(tuple(r.digest() for r in recorders),
                        tuple(r.events for r in recorders))


@dataclass(frozen=True)
class DeploymentRun:
    """What one run of a :func:`deployment_scenario` built."""

    testbed: object
    cluster: object
    telemetry: object
    #: The run's :class:`~repro.analysis.SanitizerSuite` (``sanitize=``).
    sanitizers: object = None
    #: The :class:`~repro.cloud.WaveScheduler` (``wave_size=``).
    scheduler: object = None


def deployment_scenario(image_factory, node_count: int = 1,
                        server_count: int = 1, p2p: bool = False,
                        select_policy: str = "round-robin",
                        loss_probability: float = 0.0,
                        wave_size: int | None = None,
                        seed_fill: float = 0.0,
                        policy=None, wait: bool = True,
                        telemetry_factory=None,
                        deploy_options: dict | None = None,
                        disk_controller: str = "ahci",
                        method: str = "bmcast",
                        sanitize: bool = False,
                        settle_seconds: float = 1.0):
    """A deployment run as a scenario callable for :func:`check_replay`.

    ``image_factory`` is a zero-argument callable returning a fresh
    :class:`~repro.guest.osimage.OsImage` — each run needs its own
    (images carry mutable content maps).  ``wave_size`` switches from
    a flat ``deploy_all`` to the wave scheduler.  ``telemetry_factory``
    (a callable ``env -> telemetry``) arms telemetry for each run —
    comparing digests of a plain scenario against one with forensics
    enabled is how the observability layer proves it does not perturb
    the timeline.  ``deploy_options`` are forwarded to every
    deployment — e.g. ``{"fluid": True}``; the fluid-off-is-byte-identical
    tests compare a ``fluid=False`` run against one with no option at
    all.  ``sanitize`` attaches a fresh
    :class:`~repro.analysis.SanitizerSuite` to each run.  With ``wait``
    the run continues to every copy's completion plus
    ``settle_seconds``.  ``seed_fill`` holds each wave until the
    previous one's mean bitmap fill reaches it.

    The callable takes an optional :class:`ReplayRecorder` and returns
    the :class:`DeploymentRun`, so a caller can run the scenario once
    for its own use and hand the same callable to :func:`check_replay`
    — the replay then checks the very run it was given.
    """
    from repro.analysis.sanitizers import SanitizerSuite
    from repro.cloud import Cluster, WaveScheduler, build_testbed
    from repro.obs.telemetry import NULL_TELEMETRY
    from repro.sim import Environment

    def scenario(recorder: ReplayRecorder | None = None) -> DeploymentRun:
        env = Environment()
        telemetry = NULL_TELEMETRY if telemetry_factory is None \
            else telemetry_factory(env)
        testbed = build_testbed(node_count=node_count,
                                disk_controller=disk_controller,
                                server_count=server_count, p2p=p2p,
                                select_policy=select_policy,
                                loss_probability=loss_probability,
                                image=image_factory(),
                                env=env, telemetry=telemetry)
        if recorder is not None:
            recorder.attach(testbed.env)
        cluster = Cluster(testbed)
        options = dict(deploy_options or {})
        suite = None
        if sanitize:
            suite = options["sanitizers"] = SanitizerSuite(env)
        scheduler = None if wave_size is None else WaveScheduler(
            cluster, wave_size=wave_size, seed_fill_fraction=seed_fill)

        def run():
            if scheduler is not None:
                yield from scheduler.run(method, policy=policy, **options)
            else:
                yield from cluster.deploy_all(method, policy=policy,
                                              **options)
            if wait:
                yield from cluster.wait_deployment_complete(
                    settle_seconds=settle_seconds)

        testbed.env.run(until=testbed.env.process(run()))
        return DeploymentRun(testbed, cluster, telemetry, suite, scheduler)

    return scenario

"""The elastic controller: demand in, scale decisions out.

Closes the loop the paper's agility argument implies but never runs:
if deployment is fast *and* reclamation is cheap, a control loop can
track demand with a small fleet instead of overprovisioning.  The
:class:`ElasticController` runs inside the simulation as one process:

every ``tick`` seconds it

1. admits new requests from the demand model into the queue,
2. assigns queued requests to idle-ready nodes (FIFO),
3. builds an :class:`~repro.ctl.policy.Observation` and asks the
   policy for a target,
4. grows by deploying onto free nodes — chosen by the placement
   policy, so warm reclaimed nodes are preferred — or shrinks by
   draining the longest-idle ready nodes through the reclaim path.

Deployments and reclamations run as their own simulation processes,
so a tick never blocks on a slow node; capacity in flight is visible
to the policy through the observation's ``deploying``/``reclaiming``
counts.  Every decision, admission, and completion is appended to
in-order logs, and the whole run is deterministic — the CLI's
``--replay-check`` runs :func:`elasticity_scenario` a second time and
compares event digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.ctl.lifecycle import NodePool
from repro.ctl.placement import image_block_set
from repro.obs.telemetry import NULL_TELEMETRY


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sequence (0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(q / 100.0 * len(ordered) + 0.5) - 1))
    return ordered[rank]


class ElasticController:
    """One autoscaling run over a node pool."""

    def __init__(self, pool: NodePool, demand, policy, placement,
                 tick: float = 15.0, give_up_after: float | None = None,
                 preserve_on_reclaim: bool = True, telemetry=None):
        self.pool = pool
        self.env = pool.env
        self.demand = demand
        self.policy = policy
        self.placement = placement
        self.tick = tick
        self.give_up_after = give_up_after
        self.preserve_on_reclaim = preserve_on_reclaim
        self.telemetry = telemetry if telemetry is not None \
            else pool.telemetry
        self.image_blocks = image_block_set(pool.testbed)
        #: Every admitted request, in arrival order.
        self.requests: list = []
        #: Admitted, waiting for a ready node (FIFO).
        self.queue: list = []
        #: (time, target, provisioned, reason) per non-hold decision.
        self.decisions: list = []
        self.scale_ups = 0
        self.scale_downs = 0
        self._completed_since_tick = 0
        registry = self.telemetry.registry
        self._s_queue = registry.series(
            "ctl_queue_depth", help="admission queue depth per tick")
        self._s_fleet = registry.series(
            "ctl_fleet_provisioned",
            help="provisioned (busy+idle+deploying) nodes per tick")
        self._m_admitted = registry.counter(
            "ctl_requests_admitted_total", help="requests admitted")
        self._m_served = registry.counter(
            "ctl_requests_served_total",
            help="requests that reached a ready node")
        self._m_abandoned = registry.counter(
            "ctl_requests_abandoned_total",
            help="requests dropped after give_up_after seconds queued")
        self._m_scale_ups = registry.counter(
            "ctl_scale_up_total", help="grow decisions acted on")
        self._m_scale_downs = registry.counter(
            "ctl_scale_down_total", help="shrink decisions acted on")

    # -- the control loop ---------------------------------------------------

    def run(self, duration: float):
        """Generator: drive the loop for ``duration`` seconds."""
        started = self.env.now
        last = started
        while self.env.now - started < duration:
            yield self.env.timeout(self.tick)
            now = self.env.now
            arrived = self._admit(last, now)
            last = now
            self._expire_queued()
            self._assign_ready()
            observation = self._observe(arrived)
            decision = self.policy.decide(observation)
            delta = decision.target - observation.provisioned
            if delta != 0:
                self.decisions.append((now, decision.target,
                                       observation.provisioned,
                                       decision.reason))
            if delta > 0:
                self._scale_up(delta)
            elif delta < 0:
                self._scale_down(-delta)
            self._s_queue.record(now, len(self.queue))
            self._s_fleet.record(now, observation.provisioned)

    def _admit(self, since: float, now: float) -> int:
        arrivals = self.demand.arrivals(since, now)
        for request in arrivals:
            self.requests.append(request)
            self.queue.append(request)
            self._m_admitted.inc()
            note_hold = getattr(self.policy, "note_hold", None)
            if note_hold is not None:
                note_hold(request.hold)
        return len(arrivals)

    def _expire_queued(self) -> None:
        if self.give_up_after is None:
            return
        still = []
        for request in self.queue:
            if self.env.now - request.arrived > self.give_up_after:
                request.abandoned = self.env.now
                self._m_abandoned.inc()
            else:
                still.append(request)
        self.queue = still

    def _assign_ready(self) -> None:
        """FIFO-match queued requests to idle-ready nodes."""
        while self.queue:
            idle = sorted(self.pool.idle_ready(),
                          key=lambda record: record.index)
            if not idle:
                return
            request = self.queue.pop(0)
            record = idle[0]
            request.assigned = self.env.now
            request.node = record.index
            request.ready = self.env.now
            self.pool.assign(record.index, request)
            self._m_served.inc()
            self.env.timeout(request.hold).callbacks.append(
                partial(self._served, request))

    def _served(self, request, _timer) -> None:
        self.pool.release(request.node)
        request.completed = self.env.now
        self._completed_since_tick += 1
        self._assign_ready()

    def _observe(self, arrived: int):
        from repro.ctl.policy import Observation
        from repro.ctl import lifecycle
        counts = self.pool.counts()
        completed = self._completed_since_tick
        self._completed_since_tick = 0
        return Observation(
            now=self.env.now,
            queue_depth=len(self.queue),
            busy=self.pool.busy(),
            idle=counts[lifecycle.READY] - self.pool.busy(),
            free=counts[lifecycle.FREE],
            deploying=counts[lifecycle.NETBOOTING]
            + counts[lifecycle.DEPLOYING],
            reclaiming=counts[lifecycle.DRAINING]
            + counts[lifecycle.SCRUBBING],
            arrived=arrived,
            completed=completed,
        )

    # -- actuation ----------------------------------------------------------

    def _scale_up(self, count: int) -> None:
        free = self.pool.free_nodes()
        started = 0
        for _ in range(min(count, len(free))):
            index = self.placement.choose(self.pool, free,
                                          self.image_blocks)
            free = [record for record in free if record.index != index]
            self.env.process(self._deploy(index),
                             name=f"ctl-deploy-{index}")
            started += 1
        if started:
            self.scale_ups += 1
            self._m_scale_ups.inc()
            self.telemetry.causal.mark("scale-up")

    def _deploy(self, index: int):
        yield from self.pool.deploy(index)
        # New capacity: serve the queue without waiting for the tick.
        self._assign_ready()

    def _scale_down(self, count: int) -> None:
        # Longest-idle first: they are the least likely to be missed,
        # and their peer summaries have had the longest time to matter.
        idle = sorted(self.pool.idle_ready(),
                      key=lambda record: (record.since, record.index))
        victims = idle[:count]
        if not victims:
            return
        for record in victims:
            self.env.process(
                self._reclaim(record.index),
                name=f"ctl-reclaim-{record.index}")
        self.scale_downs += 1
        self._m_scale_downs.inc()

    def _reclaim(self, index: int):
        record = self.pool.nodes[index]
        if not record.idle:
            return  # a request landed between decision and actuation
        yield from self.pool.reclaim(index,
                                     preserve=self.preserve_on_reclaim)

    # -- reporting ----------------------------------------------------------

    def report(self) -> dict:
        served = [request for request in self.requests
                  if request.ready is not None]
        ttrs = [request.time_to_ready for request in served]
        met = sum(1 for request in served if request.met_deadline)
        abandoned = sum(1 for request in self.requests
                        if request.abandoned is not None)
        scored = len(self.requests)
        return {
            "requests": scored,
            "served": len(served),
            "abandoned": abandoned,
            "queued_at_end": len(self.queue),
            # Deadline misses and never-served requests both count
            # against attainment — dropping a request is not a way to
            # improve the SLO number.
            "slo_attainment": round(met / scored, 4) if scored else 1.0,
            "ttr_p50_seconds": round(percentile(ttrs, 50), 3),
            "ttr_p95_seconds": round(percentile(ttrs, 95), 3),
            "wasted_node_seconds": round(
                self.pool.wasted_node_seconds(), 1),
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "decisions": len(self.decisions),
            "reclaims": sum(record.reclaims
                            for record in self.pool.nodes),
            "reclaim_p95_seconds": round(
                percentile(self.pool.reclaim_latencies, 95), 3),
            "fluid_deploys": self.pool.fluid_deploys,
            "fluid_demotions": dict(
                sorted(self.pool.fluid_demotions.items())),
            "fleet": self.pool.describe(),
        }


# -- the elastic run as a replayable scenario ---------------------------------

@dataclass(frozen=True)
class ElasticRun:
    """What one run of an :func:`elasticity_scenario` built."""

    controller: ElasticController
    telemetry: object
    #: The run's sanitizer suite (``sanitizer_factory=``).
    sanitizers: object = None


def elasticity_scenario(image_factory, node_count: int = 6,
                        server_count: int = 1, p2p: bool = True,
                        policy_name: str = "reactive",
                        placement_name: str = "cache-aware",
                        demand_name: str = "flash-crowd",
                        demand_trace: str | None = None,
                        demand_seed: int = 20150314,
                        duration: float = 1800.0, tick: float = 15.0,
                        vmxoff_mode: str = "resident",
                        preserve_on_reclaim: bool = True,
                        fluid: bool = False,
                        telemetry_factory=None,
                        sanitizer_factory=None):
    """One autoscaling run as a scenario callable — fresh environment
    and testbed per call, per :func:`~repro.analysis.replay.
    check_replay`'s contract.  Exercises grow -> shrink -> grow so the
    reclaim path's determinism is part of the digest.

    ``demand_trace`` names a recorded request-trace file that replaces
    the ``demand_name`` model.  ``fluid`` opts every deployment into
    the fluid-flow fast path.  ``telemetry_factory`` and
    ``sanitizer_factory`` (each ``env -> object``) arm telemetry and a
    sanitizer suite for each run.

    The callable takes an optional recorder and returns the
    :class:`ElasticRun`, so a caller can run the scenario once for its
    own use and hand the same callable to ``check_replay`` — the
    replay then checks the very run it was given.
    """
    from repro.cloud import build_testbed
    from repro.ctl.demand import DEMANDS, TraceDemand, load_trace
    from repro.ctl.placement import PLACEMENTS
    from repro.ctl.policy import POLICIES
    from repro.sim import Environment

    def scenario(recorder=None) -> ElasticRun:
        env = Environment()
        telemetry = NULL_TELEMETRY if telemetry_factory is None \
            else telemetry_factory(env)
        testbed = build_testbed(node_count=node_count,
                                server_count=server_count, p2p=p2p,
                                image=image_factory(), env=env,
                                telemetry=telemetry)
        if recorder is not None:
            recorder.attach(env)
        options = {"fluid": True} if fluid else {}
        suite = None
        if sanitizer_factory is not None:
            suite = options["sanitizers"] = sanitizer_factory(env)
        pool = NodePool(testbed, vmxoff_mode=vmxoff_mode,
                        deploy_options=options, telemetry=telemetry)
        if demand_trace is not None:
            demand = TraceDemand(load_trace(demand_trace),
                                 seed=demand_seed)
        else:
            demand = DEMANDS[demand_name](seed=demand_seed)
        controller = ElasticController(
            pool, demand, POLICIES[policy_name](),
            PLACEMENTS[placement_name](), tick=tick,
            preserve_on_reclaim=preserve_on_reclaim, telemetry=telemetry)
        env.run(until=env.process(controller.run(duration),
                                  name="ctl-loop"))
        return ElasticRun(controller, telemetry, suite)

    return scenario

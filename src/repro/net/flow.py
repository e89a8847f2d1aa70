"""Fluid-flow transfers: analytic bulk streams over the switch fabric.

Packet mode simulates every chunk of a bulk stream as discrete events;
at fleet scale the event *count* dominates wall-clock time, however
cheap each event is.  When a stream is in steady state on an
uncontended-or-stably-shared path, its trajectory is fully
determined by the bandwidth shares of the links it crosses — so this
module collapses the whole stream into one :class:`Flow` whose finish
time is computed analytically from a **max-min fair** bandwidth-sharing
model and *re-priced* only when the flow set changes (arrival or
departure), the fluid-network equivalent of a SimPy interrupt.

The model: every switch port is two directed links (tx and rx) of the
switch's line rate; each flow crosses its source port's tx link and its
destination port's rx link.  Rates are solved by water-filling — find
the most-contended link, give its flows their equal share, subtract,
repeat — which reproduces exactly the throughput the packet-mode chunk
interleaving converges to (N streams through one port each progress at
1/N line rate), without the per-chunk events.

Re-pricing leans on the engine's lazy ``Environment.cancel``: each flow
holds one completion :class:`~repro.sim.events.Timeout`; a solve
cancels the stale timer in O(1) and schedules a fresh one at the new
finish time.

**Accuracy envelope** (see docs/performance.md): fluid flows do not
hold port tx/rx locks, so concurrent *packet* traffic (redirected guest
reads, command frames) neither queues behind a fluid stream nor slows
one down.  Fidelity-bearing dynamics — moderation pacing, loss,
NAK/retransmission, peer bitmap gossip, sanitizers — demote the
deployment back to packet mode entirely (see :class:`FluidState`), so
the envelope only ever covers steady-state bulk streaming.
"""

from __future__ import annotations

from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment, Event


class Flow:
    """One analytic transfer: remaining bytes draining at a solved rate."""

    __slots__ = ("src", "dst", "remaining_bytes", "rate_bps", "done",
                 "timer")

    def __init__(self, env: Environment, src: str, dst: str,
                 wire_bytes: float):
        self.src = src
        self.dst = dst
        self.remaining_bytes = float(wire_bytes)
        self.rate_bps = 0.0
        #: Fires when the last byte lands.
        self.done = Event(env)
        #: The currently scheduled completion Timeout (re-priced on
        #: every solve), or None between solves.
        self.timer = None


class FlowNetwork:
    """Max-min fair fluid model over one switch's ports.

    Attached lazily to an :class:`~repro.net.link.EthernetSwitch` on
    the first :meth:`transfer`; a packet-only simulation never
    constructs one, so packet mode stays byte-identical.
    """

    def __init__(self, env: Environment, rate_bps: float,
                 telemetry=NULL_TELEMETRY, on_change=None):
        self.env = env
        self.rate_bps = float(rate_bps)
        #: Optional ``on_change(src, dst)``, called whenever a flow
        #: starts or ends — the switch re-prices packet-mode bulk chunks
        #: on those links (their interleave penalty counts fluid flows).
        self._on_change = on_change
        #: Active flows in arrival order.  Order matters: the solver
        #: iterates this list, so determinism (and therefore replay
        #: stability) follows from arrival order alone.
        self._flows: list[Flow] = []
        #: Directed-link occupancy (port -> active flow count), kept
        #: incrementally so the packet path can ask "how many fluid
        #: flows share this link?" in O(1) per frame.
        self._tx_count: dict[str, int] = {}
        self._rx_count: dict[str, int] = {}
        self._last_settle = env.now
        self._on_complete = self._complete  # bound once
        # Metrics.
        self.flows_started = 0
        self.flows_completed = 0
        self.bytes_transferred = 0
        self.resolves = 0
        registry = telemetry.registry
        self._m_flows = registry.counter(
            "fluid_flows_total",
            help="bulk transfers carried as analytic fluid flows")
        self._m_bytes = registry.counter(
            "fluid_bytes_total",
            help="wire bytes moved by fluid flows")
        self._m_resolves = registry.counter(
            "fluid_resolves_total",
            help="max-min rate solves (flow arrivals + departures)")
        self._m_active = registry.gauge(
            "fluid_flows_active",
            help="fluid flows currently in flight")

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def tx_flows(self, port: str) -> int:
        """Active fluid flows sourced at ``port`` (its tx link)."""
        return self._tx_count.get(port, 0)

    def rx_flows(self, port: str) -> int:
        """Active fluid flows sinking at ``port`` (its rx link)."""
        return self._rx_count.get(port, 0)

    def note_packet_bytes(self, port: str, tx: bool,
                          wire_bytes: int) -> None:
        """Bill one packet frame's wire occupancy to the link's flows.

        While the frame held the directed link, each fluid flow made no
        progress it is analytically credited with — so it regains
        ``wire_bytes * rate/link_rate`` of remaining bytes (exactly the
        progress a packet-mode stream would have lost to the frame).
        The charge is lazy: completion timers are NOT re-priced here
        (that would be O(flows) per frame); instead the completion
        callback re-schedules itself when it fires with debt left.
        """
        count = (self._tx_count if tx else self._rx_count).get(port, 0)
        if not count:
            return
        scale = wire_bytes / self.rate_bps
        for flow in self._flows:
            if (flow.src if tx else flow.dst) == port:
                flow.remaining_bytes += flow.rate_bps * scale

    def start(self, src: str, dst: str, wire_bytes: int) -> Event:
        """Admit a flow; returns the event fired when it completes.

        The caller (``EthernetSwitch.start_fluid_transfer``) owns frame
        delivery and byte accounting.
        """
        flow = Flow(self.env, src, dst, wire_bytes)
        self.flows_started += 1
        self.bytes_transferred += wire_bytes
        self._m_flows.inc()
        self._m_bytes.inc(wire_bytes)
        self._settle()
        self._flows.append(flow)
        self._tx_count[src] = self._tx_count.get(src, 0) + 1
        self._rx_count[dst] = self._rx_count.get(dst, 0) + 1
        self._m_active.set(len(self._flows))
        if self._on_change is not None:
            self._on_change(src, dst)
        self._resolve()
        return flow.done

    # -- the solver --------------------------------------------------------

    def _settle(self) -> None:
        """Credit every active flow with progress since the last solve."""
        now = self.env.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0.0:
            return
        for flow in self._flows:
            flow.remaining_bytes -= flow.rate_bps * elapsed / 8.0
            if flow.remaining_bytes < 0.0:
                flow.remaining_bytes = 0.0

    def _resolve(self) -> None:
        """Re-price every active flow and reschedule completion timers."""
        self.resolves += 1
        self._m_resolves.inc()
        env = self.env
        for flow in self._flows:
            if flow.timer is not None:
                env.cancel(flow.timer)
                flow.timer = None
        if not self._flows:
            return
        self._solve_rates()
        for flow in self._flows:
            delay = 0.0
            if flow.remaining_bytes > 0.0:
                delay = flow.remaining_bytes * 8.0 / flow.rate_bps
            self._arm(flow, delay)

    def _solve_rates(self) -> None:
        """Water-filling: assign each flow its max-min fair rate.

        Links are built in flow-arrival order each solve, so the
        iteration (and any float-tie resolution) is deterministic.
        """
        links: dict = {}
        for flow in self._flows:
            flow.rate_bps = 0.0
            links.setdefault((flow.src, 0), []).append(flow)
            links.setdefault((flow.dst, 1), []).append(flow)
        residual = dict.fromkeys(links, self.rate_bps)
        unfixed = {id(flow) for flow in self._flows}
        while unfixed:
            # The bottleneck: the link granting its unfixed flows the
            # smallest equal share of its residual capacity.
            share = None
            for key, members in links.items():
                count = sum(1 for flow in members if id(flow) in unfixed)
                if count == 0:
                    continue
                candidate = residual[key] / count
                if share is None or candidate < share:
                    share = candidate
            # Fix every unfixed flow crossing a bottleneck link at the
            # bottleneck share; repeat with the capacity that remains.
            # The argmin link always matches its own share exactly, so
            # each pass fixes at least one flow and the loop terminates
            # within len(links) passes even under float-noise ties.
            for key, members in links.items():
                count = sum(1 for flow in members if id(flow) in unfixed)
                if count == 0 or residual[key] / count > share:
                    continue
                for flow in members:
                    if id(flow) not in unfixed:
                        continue
                    unfixed.discard(id(flow))
                    flow.rate_bps = share
                    residual[(flow.src, 0)] -= share
                    residual[(flow.dst, 1)] -= share

    def _complete(self, timer) -> None:
        """A flow's completion timer fired (the timer's value is the
        flow): finish it, or push it out by the debt packet frames
        charged meanwhile."""
        flow = timer._value
        if flow.timer is not timer:
            return  # stale timer that escaped cancellation
        flow.timer = None
        self._settle()
        if flow.remaining_bytes > 0.5:
            # Packet cross-traffic charged debt since this timer
            # was priced (note_packet_bytes) — push completion out
            # by the debt instead of finishing early.
            self._arm(flow, flow.remaining_bytes * 8.0 / flow.rate_bps)
            return
        flow.remaining_bytes = 0.0
        self._flows.remove(flow)
        self._tx_count[flow.src] -= 1
        self._rx_count[flow.dst] -= 1
        self.flows_completed += 1
        self._m_active.set(len(self._flows))
        if self._on_change is not None:
            self._on_change(flow.src, flow.dst)
        flow.done.succeed()
        self._resolve()

    def _arm(self, flow: Flow, delay: float) -> None:
        """Schedule ``flow``'s completion ``delay`` from now."""
        timer = flow.timer = self.env.timeout(delay, flow)
        timer.callbacks.append(self._on_complete)


class FluidState:
    """Sticky per-deployment fluid-mode switch.

    ``requested`` records the operator's opt-in; :meth:`engage` arms
    fluid transfers only if nothing has demoted the deployment first;
    :meth:`demote` (at arm time for static conditions — moderation
    pacing, loss injection, peer gossip, sanitizers — or at runtime
    when a NAK/timeout/retransmission shows the path is not in steady
    state) switches back to packet mode *permanently* for this
    deployment, so fidelity-bearing dynamics always run on the exact
    per-packet path.
    """

    def __init__(self, requested: bool = False, telemetry=NULL_TELEMETRY):
        self.requested = bool(requested)
        self.active = False
        self.demotion_reason: str | None = None
        self.telemetry = telemetry

    def engage(self) -> bool:
        """Arm fluid mode; returns whether it is now active."""
        if not self.requested or self.demotion_reason is not None:
            return False
        if not self.active:
            self.active = True
            self.telemetry.registry.counter(
                "fluid_engagements_total",
                help="deployments that armed fluid transfers").inc()
            self.telemetry.causal.mark("fluid-engage")
        return True

    def demote(self, reason: str) -> None:
        """Fall back to packet mode for the rest of the deployment."""
        if self.demotion_reason is None:
            self.demotion_reason = reason
            if self.requested:
                self.telemetry.registry.counter(
                    "fluid_demotions_total", reason=reason,
                    help="fluid deployments demoted to packet mode").inc()
                self.telemetry.causal.mark("fluid-demote")
        self.active = False

    def describe(self) -> str:
        if self.active:
            return "active"
        if self.requested:
            return f"demoted({self.demotion_reason})"
        return "off"

"""Causal event tracing and critical-path extraction.

Every event the engine schedules is recorded together with the event
during whose callbacks it was scheduled — its *cause*.  The resulting
causal DAG answers the question the span tree cannot: not "how long did
deploy/fill take" but *which chain of waits* made it that long.

The tracer hangs off :attr:`Environment.schedule_hook` (a second hook,
so it composes with the replay-divergence checker on ``trace_hook``)
and is strictly observational: it reads the clock and the queue
metadata, never schedules or mutates, so the simulated timeline is
identical with tracing on or off.

Nodes are stored in parallel lists (one append per scheduled event on
the hot path) rather than per-node objects.
"""

from __future__ import annotations


#: ``(prefix, component)`` classification for process names.  Ordered;
#: first match wins.  Mirrors the process names used across the tree —
#: unknown actors fall through to ``"other"``.
ACTOR_COMPONENTS = (
    ("copier-", "copier"),
    ("imagecopy-", "copier"),
    ("os-streaming-copier", "copier"),
    ("nic-mediator-poll", "mediator"),
    ("cpu", "cpu"),
    ("mpi-", "app"),
    ("bmcast-devirt-watcher", "vmm"),
    ("deploy-", "provisioner"),
)


def classify_actor(name: str) -> str:
    """Map a process name to a coarse component label."""
    for prefix, component in ACTOR_COMPONENTS:
        if name.startswith(prefix):
            return component
    if name.endswith("-tx"):
        return "nic"
    return "other"


class CausalTracer:
    """Records the causal DAG of scheduled events for one environment.

    One node per :meth:`Environment.schedule` call, appended at schedule
    time.  ``cause[i]`` is the node index of the event whose callbacks
    scheduled node ``i`` (``-1`` at the top level).  ``fire_at[i]`` is
    the time the node was scheduled *for*; since the queue pops in
    ``(time, priority, insertion order)`` order, sorting nodes by
    ``(fire_at, index)`` reproduces the pop order up to priority ties at
    identical timestamps — which contribute zero-width intervals and so
    never perturb time attribution.
    """

    enabled = True

    def __init__(self, env, tracer=None, capacity: int = 2_000_000):
        self.env = env
        #: Span tracer whose innermost component span on the active
        #: process names the component of an event scheduled there.
        self.tracer = tracer
        self.capacity = capacity
        self.dropped = 0
        # Parallel node arrays.
        self.kinds: list[str] = []        # event class name
        self.actors: list[str] = []       # scheduling process name
        self.components: list[str] = []   # coarse component attribution
        self.fire_at: list[float] = []    # time the event fires
        self.cause: list[int] = []        # node index of the cause, or -1
        #: Named anchors: ``name -> (node index, time)`` recorded by
        #: :meth:`mark` (e.g. ``"devirtualize"``, ``"deploy-complete"``).
        self.marks: dict[str, tuple[int, float]] = {}
        # Live event -> node index.  Entries are only consulted while
        # the event object is alive (its id is the key), and the newest
        # schedule wins, so id reuse after GC cannot corrupt a lookup.
        self._ids: dict[int, int] = {}

    def attach(self) -> "CausalTracer":
        if self.env.schedule_hook is not None:
            raise RuntimeError(
                "environment already has a schedule_hook; only one "
                "causal tracer may attach per environment")
        self.env.schedule_hook = self._on_schedule
        return self

    # -- hot path ---------------------------------------------------------

    def _on_schedule(self, event, cause_event, fire_at: float) -> None:
        if len(self.kinds) >= self.capacity:
            self.dropped += 1
            return
        process = self.env.active_process
        actor = process.name if process is not None else "kernel"
        component = None
        if self.tracer is not None:
            component = self.tracer.current_component()
        if component is None:
            component = classify_actor(actor)
        cause = -1
        if cause_event is not None:
            cause = self._ids.get(id(cause_event), -1)
        index = len(self.kinds)
        self.kinds.append(type(event).__name__)
        self.actors.append(actor)
        self.components.append(component)
        self.fire_at.append(fire_at)
        self.cause.append(cause)
        self._ids[id(event)] = index

    # -- anchors ----------------------------------------------------------

    def mark(self, name: str) -> None:
        """Anchor ``name`` at the event currently being processed.

        Called from component code at milestones (devirtualization,
        copier completion); the critical path is later walked backwards
        from the anchor's node.
        """
        current = getattr(self.env, "current_event", None)
        index = -1
        if current is not None:
            index = self._ids.get(id(current), -1)
        self.marks[name] = (index, self.env.now)

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    def chain_from(self, index: int) -> list[int]:
        """Node indices from the root cause down to ``index`` (inclusive)."""
        chain: list[int] = []
        cursor = index
        seen = 0
        while cursor >= 0 and seen <= len(self.kinds):
            chain.append(cursor)
            cursor = self.cause[cursor]
            seen += 1
        chain.reverse()
        return chain

    def critical_path(self, anchor: str | None = None) -> list[dict]:
        """The causal chain ending at ``anchor`` as step dicts.

        Each step carries the wait it contributed: the gap between its
        cause firing (when it *could* have been scheduled) and the step
        itself firing.  The waits partition the interval from the root
        event to the anchor, so they sum to the anchor time exactly.
        """
        index, at = self._resolve_anchor(anchor)
        if index < 0:
            return []
        steps = []
        for node in self.chain_from(index):
            cause = self.cause[node]
            since = self.fire_at[cause] if cause >= 0 else 0.0
            steps.append({
                "node": node,
                "kind": self.kinds[node],
                "actor": self.actors[node],
                "component": self.components[node],
                "fired_at": self.fire_at[node],
                "wait": max(0.0, self.fire_at[node] - since),
            })
        return steps

    def latency_budget(self, anchor: str | None = None) -> dict:
        """Ranked per-component share of the anchor's critical path."""
        steps = self.critical_path(anchor)
        _, at = self._resolve_anchor(anchor)
        shares: dict[str, float] = {}
        for step in steps:
            shares[step["component"]] = \
                shares.get(step["component"], 0.0) + step["wait"]
        ranked = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "anchor": anchor or self._default_anchor(),
            "anchor_seconds": at,
            "steps": len(steps),
            "budget": [
                {"component": component, "seconds": seconds,
                 "share": (seconds / at) if at > 0 else 0.0}
                for component, seconds in ranked
            ],
        }

    def component_times(self, until: float | None = None) -> dict:
        """Partition of simulated time by component.

        The gap before each popped event is attributed to the component
        that scheduled it (that gap is time spent waiting for it); the
        tail after the last event is ``idle``.  The values sum to
        ``until`` (default: the current clock) by construction.
        """
        end = self.env.now if until is None else until
        order = sorted(range(len(self.kinds)),
                       key=lambda i: (self.fire_at[i], i))
        shares: dict[str, float] = {}
        prev = 0.0
        for node in order:
            at = self.fire_at[node]
            if at > end:
                break
            if at > prev:
                shares[self.components[node]] = \
                    shares.get(self.components[node], 0.0) + (at - prev)
                prev = at
        if end > prev:
            shares["idle"] = shares.get("idle", 0.0) + (end - prev)
        return shares

    def to_dict(self) -> dict:
        return {
            "nodes": len(self.kinds),
            "dropped": self.dropped,
            "marks": {name: {"node": node, "seconds": at}
                      for name, (node, at) in self.marks.items()},
        }

    # -- helpers ----------------------------------------------------------

    def _default_anchor(self) -> str | None:
        for name in ("devirtualize", "deploy-complete"):
            if name in self.marks:
                return name
        if self.marks:
            return sorted(self.marks)[0]
        return None

    def _resolve_anchor(self, anchor: str | None) -> tuple[int, float]:
        name = anchor or self._default_anchor()
        if name is None or name not in self.marks:
            return -1, 0.0
        return self.marks[name]


class NullCausalTracer:
    """Disabled causal tracer; shared and stateless."""

    enabled = False
    env = None
    dropped = 0
    marks: dict = {}

    def attach(self):
        return self

    def mark(self, name: str) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def chain_from(self, index: int) -> list:
        return []

    def critical_path(self, anchor=None) -> list:
        return []

    def latency_budget(self, anchor=None) -> dict:
        return {"anchor": None, "anchor_seconds": 0.0, "steps": 0,
                "budget": []}

    def component_times(self, until=None) -> dict:
        return {}

    def to_dict(self) -> dict:
        return {"nodes": 0, "dropped": 0, "marks": {}}


#: Shared disabled instance.
NULL_CAUSAL = NullCausalTracer()

"""Hierarchical span tracing keyed on simulated time.

A :class:`Span` is one timed operation — a deployment phase, an AoE
round-trip, a mediated command, a disk command.  Spans form a tree: the
provisioner opens a ``deploy:<method>`` root, the VMM's phase machine
keeps one phase span open at a time, and the work a deployment does
nests below.

Parenting follows the simulation's processes, not a call stack (the
engine interleaves many generators).  :meth:`SpanTracer.span` and
:meth:`SpanTracer.track` push their span on the stack of the process
that opens them, and a span opened with the default parent nests under
the innermost span open on its own process's stack.  A component that
works outside any such span names its parent itself: a VMM's mediator,
copier and AoE exchanges fall back on that VMM's phase span
(``tracer.current(fallback)``), so concurrent deployments never share
a parent.

A span with a ``component`` also attributes simulated time: when it
closes, the tracer adds its self time (its duration minus its component
children's) to ``component_self`` and to its folded stack in
``folded``, the input of flamegraphs.  Component spans are recorded only
while the tracer ``profiling`` (``Telemetry(forensics=True)``):
otherwise ``track`` records nothing and ``component=`` is ignored, so
plain telemetry keeps exactly its span tree.  Callback machines (disk
commands, AoE serves, NIC transmits) run with no active process; they
open their span with :meth:`SpanTracer.start` under the parent their
caller hands them, on that parent's trace lane.

Like every part of the telemetry subsystem, tracing is purely
observational (it reads ``env.now`` and the active process, never
schedules), so spans cannot perturb the simulated timeline.
"""

from __future__ import annotations

from contextlib import contextmanager


class Span:
    """One timed node in the trace tree."""

    __slots__ = ("name", "start", "end", "parent", "children", "attrs",
                 "component", "lane", "child_time")

    def __init__(self, name: str, start: float, parent=None,
                 attrs: dict | None = None, component: str | None = None,
                 lane: str | None = None):
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.children: list = []
        self.attrs = attrs or {}
        #: Component the span's self time is attributed to (profiling
        #: only), and the trace lane its slice is drawn on.
        self.component = component
        self.lane = lane
        #: Summed durations of closed component descendants, nearest
        #: first (the self-time bookkeeping).
        self.child_time = 0.0

    def to_dict(self, now: float | None = None) -> dict:
        node = {"name": self.name, "start": self.start, "end": self.end}
        if self.end is None and now is not None:
            node["end"] = now
            node["open"] = True
        if node["end"] is not None:
            node["duration"] = node["end"] - self.start
        if self.component is not None:
            node["component"] = self.component
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [child.to_dict(now)
                                for child in self.children]
        return node

    def __repr__(self):
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return f"<Span {self.name} [{self.start:.6f}, {end}]>"


#: Sentinel: "nest under the innermost span open on this process".
AMBIENT = object()


class _NullScope:
    """Shared no-op context manager yielding the null span.

    ``track`` sits on the NIC and serve hot paths; a ``@contextmanager``
    generator there would be one allocation per call, so a tracer that
    records nothing returns this singleton instead.
    """

    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, exc_type, exc_value, traceback):
        return False


_NULL_SPAN = Span("null", 0.0)
_NULL_SCOPE = _NullScope()


class SpanTracer:
    """Records the span tree against the simulation clock.

    ``capacity`` bounds the total recorded span count (a multi-gigabyte
    background copy makes hundreds of thousands of AoE round-trips and
    disk commands); once full, new spans become invisible placeholders
    and ``dropped_spans`` counts them — totals live in the metrics
    registry, which never drops, and a placeholder component span still
    adds its self time.  Structural spans — roots and their direct
    children, i.e. the deployment phases — are exempt, so a late phase
    transition (de-virtualization) is never evicted by a flood of
    earlier leaf spans.  A component span is never structural.
    """

    enabled = True

    def __init__(self, env, capacity: int = 200_000,
                 profiling: bool = False):
        self.env = env
        self.capacity = capacity
        #: Record component spans (``track``, ``component=``).
        self.profiling = profiling
        self.roots: list[Span] = []
        #: Every recorded span, in start order.
        self.spans: list[Span] = []
        self.dropped_spans = 0
        #: ``component -> total self seconds`` over closed component
        #: spans.
        self.component_self: dict[str, float] = {}
        #: ``"comp:name;comp:name" -> self seconds`` folded stacks over
        #: the component spans' ancestry.
        self.folded: dict[str, float] = {}
        # Open spans pushed by ``span``/``track``, keyed on the owning
        # process (top-level code and callbacks use the None key).
        # Enter and exit both run while that process is active, so
        # stacks never interleave across processes.
        self._stacks: dict[object, list[Span]] = {}

    # -- recording ---------------------------------------------------------------

    def start(self, name: str, parent=AMBIENT, component: str | None = None,
              lane: str | None = None, at: float | None = None,
              **attrs) -> Span:
        """Open a span now (or at the past instant ``at``) under
        ``parent`` (default: the innermost span open on the active
        process's stack).

        With ``component`` (while profiling) the span attributes self
        time; its trace lane is ``lane``, else its parent's, else the
        active process's name.
        """
        if parent is AMBIENT:
            parent = self.current()
        if component is not None and not self.profiling:
            component = None
        if component is not None and lane is None:
            lane = parent.lane if parent is not None else None
            if lane is None:
                lane = self._process_label()
        span = Span(name, self.env.now if at is None else at, parent, attrs,
                    component, lane)
        structural = component is None and (
            parent is None
            or (parent.parent is None and parent.component is None))
        if len(self.spans) >= self.capacity and not structural:
            self.dropped_spans += 1
            return span
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        elif component is None:
            self.roots.append(span)
        return span

    def end(self, span: Span, at: float | None = None, **attrs) -> Span:
        """Close a span now, or at the past instant ``at`` (idempotent;
        late attrs are merged in)."""
        if span.end is None:
            end = span.end = self.env.now if at is None else at
            if span.component is not None:
                self._attribute(span, end - span.start)
        if attrs:
            span.attrs.update(attrs)
        return span

    def _attribute(self, span: Span, duration: float) -> None:
        """Add a closed component span's self time and folded stack."""
        self_time = max(0.0, duration - span.child_time)
        component = span.component
        self.component_self[component] = \
            self.component_self.get(component, 0.0) + self_time
        parent = self._component_parent(span)
        if parent is not None:
            parent.child_time += duration
        if self_time > 0.0:
            key = component + ":" + span.name
            while parent is not None:
                key = parent.component + ":" + parent.name + ";" + key
                parent = self._component_parent(parent)
            self.folded[key] = self.folded.get(key, 0.0) + self_time

    @staticmethod
    def _component_parent(span: Span):
        parent = span.parent
        while parent is not None and parent.component is None:
            parent = parent.parent
        return parent

    def open(self, name: str, parent=AMBIENT, component: str | None = None,
             **attrs) -> Span:
        """Start a span and push it on the active process's stack, as
        entering :meth:`span` does; :meth:`close` it on every way out.
        Hot generators call it only while the span would be recorded."""
        span = self.start(name, parent=parent, component=component,
                          **attrs)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        """Pop ``span`` off its process's stack and end it."""
        process = self.env.active_process
        stack = self._stacks.get(None if process is None else id(process))
        if stack and stack[-1] is span:
            stack.pop()
        else:
            # A generator torn down out of band (GeneratorExit) may
            # close spans out of order, or while another process runs.
            for stack in self._stacks.values():
                if span in stack:
                    stack.remove(span)
                    break
        self.end(span)

    @contextmanager
    def span(self, name: str, parent=AMBIENT, component: str | None = None,
             **attrs):
        """``with tracer.span("os-boot"):`` — open a span, push it on the
        active process's stack for the block, close it after."""
        span = self.open(name, parent=parent, component=component, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def track(self, component: str, name: str):
        """Attribute the simulated time spent inside to ``component``: a
        component span on the active process's stack (profiling only)."""
        if not self.profiling:
            return _NULL_SCOPE
        return self.span(name, component=component)

    # -- process stacks ----------------------------------------------------------

    def _stack(self) -> list:
        process = self.env.active_process
        key = None if process is None else id(process)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def _process_label(self) -> str:
        process = self.env.active_process
        return process.name if process is not None else "kernel"

    def current(self, default=None):
        """The innermost span open on the active process's stack, else
        ``default``."""
        process = self.env.active_process
        stack = self._stacks.get(None if process is None else id(process))
        return stack[-1] if stack else default

    def current_component(self) -> str | None:
        """Component of the innermost component span open on the active
        process's stack, if any (the causal tracer's attribution)."""
        process = self.env.active_process
        stack = self._stacks.get(None if process is None else id(process))
        if stack:
            for span in reversed(stack):
                if span.component is not None:
                    return span.component
        return None

    # -- reading -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def walk(self):
        """Depth-first iteration over the recorded span tree."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def to_dict(self) -> dict:
        return {
            "spans": [root.to_dict(self.env.now) for root in self.roots],
            "recorded": len(self.spans),
            "dropped": self.dropped_spans,
        }


class NullSpanTracer:
    """Disabled tracer: shared, stateless, and allocation-free."""

    enabled = False
    profiling = False
    capacity = 0
    roots: tuple = ()
    spans: tuple = ()
    dropped_spans = 0
    component_self: dict = {}
    folded: dict = {}

    def start(self, name: str, parent=AMBIENT, component=None, lane=None,
              at=None, **attrs) -> Span:
        return _NULL_SPAN

    def end(self, span: Span, at=None, **attrs) -> Span:
        return span

    def span(self, name: str, parent=AMBIENT, component=None, **attrs):
        return _NULL_SCOPE

    def track(self, component: str, name: str):
        return _NULL_SCOPE

    def current(self, default=None):
        return default

    def current_component(self):
        return None

    def __len__(self) -> int:
        return 0

    def walk(self):
        return iter(())

    def to_dict(self) -> dict:
        return {"spans": [], "recorded": 0, "dropped": 0}


#: Shared disabled tracer.
NULL_TRACER = NullSpanTracer()

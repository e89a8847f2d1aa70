"""Sim-time profiler: attribute simulated time to components.

Components bracket their interesting work with::

    with telemetry.profiler.track("disk", "execute"):
        ...  # yield-free bookkeeping, or code that spawns processes

``track`` is an enter/exit hook pair on the *simulated* clock: the
frame's span is however much simulated time elapsed between enter and
exit.  Frames nest per simulation process (each generator gets its own
stack, keyed on the active process), producing flamegraph-style stacks:
self-time is the frame's span minus its children's spans.

Callback machines (the switch's receive leg, disk commands, AoE
serving) run with no active process, so they cannot use ``track``.
They open a frame with :meth:`SimProfiler.begin` and close it with
:meth:`SimProfiler.end`, naming the lane it belongs to; a frame opened
with a ``parent`` nests under it as ``track`` frames nest on a stack.

Everything is observational — the profiler reads ``env.now`` and the
active process, never schedules — so timelines are unchanged when
profiling is on.  Exporters (folded stacks, Chrome trace) live in
:mod:`repro.obs.trace_export`.
"""

from __future__ import annotations

from contextlib import contextmanager


class _Frame:
    """One live interval: a ``track`` on some process's stack, or a
    callback machine's ``begin``."""

    __slots__ = ("component", "name", "start", "child_time", "depth",
                 "parent")

    def __init__(self, component, name, start, parent):
        self.component = component
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1


class SimProfiler:
    """Per-component simulated-time attribution for one environment."""

    enabled = True

    def __init__(self, env, capacity: int = 200_000):
        self.env = env
        self.capacity = capacity
        self.dropped = 0
        #: Completed frames as ``(lane, component, name, start, end,
        #: depth, self_time)`` — the raw material for the exporters.  A
        #: ``track`` frame's lane is its process's name.
        self.frames: list[tuple] = []
        #: ``component -> total self seconds`` across all frames.
        self.component_self: dict[str, float] = {}
        #: ``"comp:name;comp:name" -> self seconds`` folded stacks.
        self.folded: dict[str, float] = {}
        # Live stacks keyed on the owning process (top-level code uses
        # the None key).  Enter and exit both run while that process is
        # active, so stacks never interleave across processes.
        self._stacks: dict[object, list[_Frame]] = {}

    # -- hot path ---------------------------------------------------------

    def _stack(self) -> list:
        process = self.env.active_process
        key = None if process is None else id(process)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    @contextmanager
    def track(self, component: str, name: str | None = None):
        """Attribute the simulated time spent inside to ``component``."""
        stack = self._stack()
        frame = _Frame(component, name or component, self.env.now,
                       stack[-1] if stack else None)
        stack.append(frame)
        try:
            yield frame
        finally:
            # Normally ``frame`` is on top; a generator torn down out of
            # band (GeneratorExit) may close frames out of order.
            if stack and stack[-1] is frame:
                stack.pop()
            elif frame in stack:
                stack.remove(frame)
            self._finish(frame, self._process_label())

    def begin(self, component: str, name: str | None = None,
              parent: _Frame | None = None) -> _Frame:
        """Open a frame owned by no process, nested under ``parent``."""
        return _Frame(component, name or component, self.env.now, parent)

    def end(self, frame: _Frame, lane: str) -> None:
        """Close a :meth:`begin` frame now, on the trace lane ``lane``."""
        self._finish(frame, lane)

    def here(self) -> tuple:
        """``(parent, lane)`` placing a :meth:`begin` frame where a
        ``track`` in the active process would go: under its innermost
        frame, on its lane."""
        stack = self._stack()
        return (stack[-1] if stack else None), self._process_label()

    def _finish(self, frame: _Frame, lane: str) -> None:
        end = self.env.now
        span = end - frame.start
        self_time = max(0.0, span - frame.child_time)
        parent = frame.parent
        if parent is not None:
            parent.child_time += span
        self.component_self[frame.component] = \
            self.component_self.get(frame.component, 0.0) + self_time
        if self_time > 0.0:
            key = frame.component + ":" + frame.name
            while parent is not None:
                key = parent.component + ":" + parent.name + ";" + key
                parent = parent.parent
            self.folded[key] = self.folded.get(key, 0.0) + self_time
        if len(self.frames) >= self.capacity:
            self.dropped += 1
            return
        self.frames.append((lane, frame.component, frame.name, frame.start,
                            end, frame.depth, self_time))

    def _process_label(self) -> str:
        process = self.env.active_process
        return process.name if process is not None else "kernel"

    def current_component(self) -> str | None:
        """Component of the innermost live frame, if any (consumed by
        the causal tracer to attribute scheduled events)."""
        stack = self._stacks.get(
            None if self.env.active_process is None
            else id(self.env.active_process))
        if stack:
            return stack[-1].component
        return None

    # -- reporting --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "frames": len(self.frames),
            "dropped": self.dropped,
            "components": {component: seconds for component, seconds
                           in sorted(self.component_self.items())},
        }


class _NullSpan:
    """Shared no-op context manager.

    ``NullSimProfiler.track`` sits on the NIC/serve hot paths; a
    ``@contextmanager`` generator there would be one allocation per
    tracked call, so the disabled path returns this singleton instead.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc_value, traceback):
        return False


_NULL_SPAN = _NullSpan()


class NullSimProfiler:
    """Disabled profiler; shared, stateless, and allocation-free."""

    enabled = False
    env = None
    dropped = 0
    frames: list = []
    component_self: dict = {}
    folded: dict = {}

    def track(self, component: str, name: str | None = None):
        return _NULL_SPAN

    def begin(self, component: str, name: str | None = None, parent=None):
        return None

    def end(self, frame, lane: str) -> None:
        pass

    def here(self) -> tuple:
        return None, "kernel"

    def current_component(self):
        return None

    def to_dict(self) -> dict:
        return {"frames": 0, "dropped": 0, "components": {}}


#: Shared disabled instance.
NULL_PROFILER = NullSimProfiler()

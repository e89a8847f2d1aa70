"""The simulation environment: clock, event queue, and run loop.

Scheduling is split between two structures (the "fast path"):

* a binary heap for events scheduled with a non-zero delay, and
* two FIFO *fast lanes* (one per priority) for zero-delay events — the
  dominant case in callback chains (``succeed``/``fail``, process
  kick-starts, store hand-offs, interrupts).

Zero-delay entries are appended with a monotonically increasing
``(time, priority, eid)`` key, so each lane is sorted by construction
and ``step`` only has to compare the three heads.  The observable event
order — and therefore the replay digest folded over ``trace_hook`` — is
identical to a single global heap, because every entry carries the same
total-order key either way.  ``Environment(fast_lane=False)`` forces the
pure-heap reference scheduler; the replay-equality tests compare the two
digests byte for byte.

Cancellation is lazy: ``cancel(event)`` marks the event and the run loop
discards it when it surfaces, so cancelling costs O(1) instead of a heap
re-build.  ``peek`` prunes cancelled heads so ``run(until=time)`` never
overshoots on a dead head.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from collections import deque

from repro.sim.events import (
    _PENDING,
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process

#: Sources for queue entries, used by the head-selection helpers.
_SRC_HEAP = 0
_SRC_URGENT = 1
_SRC_NORMAL = 2

#: Upper bound on recycled Timeout objects retained per environment.
_TIMEOUT_POOL_LIMIT = 256


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to abort :meth:`Environment.run` from within the simulation."""


class Environment:
    """Discrete-event simulation environment.

    Time is a float in **seconds**.  Events are processed in (time,
    priority, insertion-order) order, so simultaneous events retain FIFO
    semantics unless explicitly prioritized.

    ``fast_lane=False`` selects the pure-heap reference scheduler (and
    disables :meth:`pooled_timeout` recycling); it exists so the replay
    checker can prove the optimized scheduler pops the exact same event
    stream.
    """

    #: Priority for urgent events (interrupts) processed before normal ones.
    PRIORITY_URGENT = 0
    #: Default priority.
    PRIORITY_NORMAL = 1

    def __init__(self, initial_time: float = 0.0, fast_lane: bool = True):
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = count()
        self.fast_lane = bool(fast_lane)
        #: Zero-delay FIFO lanes; each holds (time, priority, eid, event)
        #: entries that are sorted by construction (time and eid are both
        #: monotone within a run).
        self._lane_urgent: deque = deque()
        self._lane_normal: deque = deque()
        #: Events lazily cancelled via :meth:`cancel`; discarded (no
        #: trace, no callbacks) when they surface.
        self._cancelled: set = set()
        self._timeout_pool: list = []
        self._active_process: Process | None = None
        # Engine throughput counters (always on: two integer increments
        # per event are cheaper than routing telemetry through here, and
        # they let any report answer "how much work did this sim do").
        self.events_processed = 0
        self.processes_spawned = 0
        #: Optional callable ``(now, event)`` invoked for every event the
        #: run loop pops, *before* its callbacks run.  The replay-divergence
        #: checker (repro.analysis.replay) folds this stream into a rolling
        #: hash; the hook must never mutate simulation state.
        self.trace_hook = None
        #: Optional callable ``(event, cause, fire_at)`` invoked whenever
        #: an event is scheduled.  ``cause`` is the event whose callbacks
        #: are currently running (None at the top level), which is exactly
        #: the causal edge the forensics layer (repro.obs.causal) records.
        #: Kept separate from ``trace_hook`` so causal tracing composes
        #: with the replay checker; the hook must never mutate state.
        self.schedule_hook = None
        self._current_event: Event | None = None

    # -- clock and introspection ------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def current_event(self) -> Event | None:
        """The event whose callbacks are currently running, if any."""
        return self._current_event

    @property
    def queued(self) -> int:
        """Number of scheduled entries (heap plus both fast lanes)."""
        return (len(self._queue) + len(self._lane_urgent)
                + len(self._lane_normal))

    @property
    def settled(self) -> bool:
        """True when no other entry is queued for the current instant.

        A zero-delay hop scheduled now would then be the next event
        after the current event's remaining callbacks.  A caller that
        runs as the last (usually the only) callback of its event may
        therefore do in place what that hop would have done without
        moving anything else in the order.  Cancelled entries count as
        queued (the answer errs towards the hop).
        """
        now = self._now
        queue = self._queue
        return (not self._lane_normal and not self._lane_urgent
                and not (queue and queue[0][0] == now))

    def __repr__(self):
        return f"<Environment t={self._now:.6f} queued={self.queued}>"

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, at: float, value=None) -> Timeout:
        """Create an event firing at the absolute instant ``at``.

        Unlike ``timeout(at - now)`` the event lands on ``at`` bit for
        bit: ``now + (at - now)`` is sure to round back to ``at`` only
        when the two are within a factor of two of each other
        (Sterbenz's lemma), which fails near t = 0.  Planned instants
        (chunk ends computed by repeated addition) therefore stay
        exactly the ones a step-by-step loop would have reached.
        """
        now = self._now
        if at < now:
            raise ValueError(f"instant {at} is in the past (now {now})")
        return Timeout(self, at - now, value, at=at)

    def pooled_timeout(self, delay: float, value=None) -> Timeout:
        """A :class:`Timeout` recycled through a per-environment pool.

        Hot paths (NIC serialization, switch forwarding, server think time)
        allocate millions of short-lived timeouts; pooling removes the
        allocation without changing the popped-event stream, because the
        recycled object is a real ``Timeout`` instance.

        **Contract**: the caller must only ``yield`` the returned event
        or append a callback to it, and must not retain a reference
        past that — the object is reset and reissued after its
        callbacks run (a callback may read ``value`` while it runs).
        Events held in conditions (``any_of``/``all_of``), cancelled or
        stored for later inspection must use :meth:`timeout` instead.
        """
        if not self.fast_lane:
            return Timeout(self, delay, value)
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout = pool.pop()
            timeout._delay = delay
            timeout._ok = True
            timeout._value = value
            if delay == 0.0:
                # Inlined zero-delay schedule (the overwhelmingly common
                # case for pooled timeouts): one lane append instead of a
                # schedule() call.
                self._lane_normal.append(
                    (self._now, 1, next(self._eid), timeout))
                if self.schedule_hook is not None:
                    self.schedule_hook(timeout, self._current_event,
                                       self._now)
            else:
                self.schedule(timeout, delay=delay)
            return timeout
        timeout = Timeout(self, delay, value)
        timeout._pooled = True
        return timeout

    def process(self, generator, name: str | None = None) -> Process:
        """Start ``generator`` as a new simulation process."""
        self.processes_spawned += 1
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling and the run loop ----------------------------------------

    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                 delay: float = 0.0, at: float | None = None) -> None:
        """Put a triggered event onto the queue ``delay`` seconds from
        now, or at the absolute instant ``at`` when given."""
        if at is None:
            at = self._now + delay
        entry = (at, priority, next(self._eid), event)
        if at == self._now and self.fast_lane:
            if priority == 1:
                self._lane_normal.append(entry)
            elif priority == 0:
                self._lane_urgent.append(entry)
            else:
                heappush(self._queue, entry)
        else:
            heappush(self._queue, entry)
        if self.schedule_hook is not None:
            self.schedule_hook(event, self._current_event, at)

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled occurrence of ``event``.

        The entry stays queued but is discarded — no trace, no callbacks,
        no ``events_processed`` tick — when the run loop reaches it.
        Cancelling an event that is not scheduled marks its *next*
        scheduled occurrence; callers own that bookkeeping.
        """
        self._cancelled.add(event)

    def revive(self, event: Event) -> bool:
        """Withdraw :meth:`cancel` from ``event``'s queued occurrence.

        True when that occurrence has not surfaced yet: it is processed
        in its original place in the order after all.  False once the
        run loop has discarded it.  A cancelled entry costs a queue slot
        but no event, so a timer that is needed only in some futures
        can hold its place cancelled and be revived in those.
        """
        try:
            self._cancelled.remove(event)
        except KeyError:
            return False
        return True

    def _next_entry(self):
        """(source, entry) of the globally next live queue entry.

        Prunes lazily-cancelled heads on the way; returns ``(None, None)``
        when the schedule is empty.
        """
        queue = self._queue
        urgent = self._lane_urgent
        normal = self._lane_normal
        cancelled = self._cancelled
        while True:
            entry = queue[0] if queue else None
            source = _SRC_HEAP
            if urgent:
                head = urgent[0]
                if entry is None or head < entry:
                    entry = head
                    source = _SRC_URGENT
            if normal:
                head = normal[0]
                if entry is None or head < entry:
                    entry = head
                    source = _SRC_NORMAL
            if entry is None:
                return None, None
            if cancelled and entry[3] in cancelled:
                cancelled.discard(entry[3])
                if source == _SRC_HEAP:
                    heappop(queue)
                elif source == _SRC_URGENT:
                    urgent.popleft()
                else:
                    normal.popleft()
                continue
            return source, entry

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        _, entry = self._next_entry()
        return entry[0] if entry is not None else float("inf")

    def step(self, _Timeout=Timeout) -> None:
        """Process the single next event."""
        # Head selection is inlined (rather than calling _next_entry)
        # because this is the single hottest loop in the simulator: the
        # function call plus the peek-then-pop double indexing cost more
        # than the selection itself.
        queue = self._queue
        urgent = self._lane_urgent
        normal = self._lane_normal
        cancelled = self._cancelled
        while True:
            entry = queue[0] if queue else None
            source = _SRC_HEAP
            if urgent:
                head = urgent[0]
                if entry is None or head < entry:
                    entry = head
                    source = _SRC_URGENT
            if normal:
                head = normal[0]
                if entry is None or head < entry:
                    entry = head
                    source = _SRC_NORMAL
            if entry is None:
                raise EmptySchedule()
            if source == _SRC_HEAP:
                heappop(queue)
            elif source == _SRC_URGENT:
                urgent.popleft()
            else:
                normal.popleft()
            if cancelled and entry[3] in cancelled:
                cancelled.discard(entry[3])
                continue
            break
        event = entry[3]

        callbacks = event.callbacks
        if callbacks is None:
            raise SimulationError(
                f"{event!r} surfaced with no callbacks: it was scheduled "
                f"twice or already processed (cancel duplicate schedules "
                f"with Environment.cancel)"
            )
        self._now = entry[0]
        self.events_processed += 1
        if self.trace_hook is not None:
            self.trace_hook(self._now, event)

        event.callbacks = None
        self._current_event = event
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._current_event = None

        if not event._ok and not event.defused:
            # An unhandled failure: surface it rather than losing it.
            raise event._value
        if type(event) is _Timeout and event._pooled:
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_LIMIT:
                event.callbacks = []
                event._value = _PENDING
                event._ok = None
                event.defused = False
                pool.append(event)

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value).
        """
        stop_at = None
        stop_event = None

        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: nothing to run.
                    return stop_event.value if stop_event.ok else None
                stop_event.callbacks.append(_stop_callback)
            else:
                stop_at = float(until)
                if stop_at <= self._now:
                    raise ValueError(
                        f"until ({stop_at}) must be greater than "
                        f"current time ({self._now})"
                    )

        try:
            # Bound-method hoist: the loop body is one call per event, so
            # the attribute lookup is a measurable fraction of it.
            step = self.step
            if stop_at is None:
                while True:
                    step()
            peek = self.peek
            while True:
                if peek() > stop_at:
                    self._now = stop_at
                    return None
                step()
        except EmptySchedule:
            if stop_event is not None and not stop_event.triggered:
                raise SimulationError(
                    "simulation ended before the awaited event fired"
                ) from None
            if stop_at is not None:
                self._now = stop_at
            return None
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None


def _stop_callback(event: Event) -> None:
    if event.ok:
        raise StopSimulation(event.value)
    raise event.value

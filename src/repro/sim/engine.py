"""The simulation environment: clock, event queue, and run loop.

Every scheduled event is one ``(time, priority, eid, event)`` entry on
one binary heap.  ``eid`` is a global insertion counter, so entries at
the same instant and priority pop in the order they were scheduled,
and the popped order -- and therefore the replay digest folded over
``trace_hook`` -- is a pure function of the scheduling calls.

Cancellation is lazy: ``cancel(event)`` marks the event and the run loop
discards it when it surfaces, so cancelling costs O(1) instead of a heap
re-build.  ``peek`` prunes cancelled heads so ``run(until=time)`` never
overshoots on a dead head.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to abort :meth:`Environment.run` from within the simulation."""


class Environment:
    """Discrete-event simulation environment.

    Time is a float in **seconds**.  Events are processed in (time,
    priority, insertion-order) order, so simultaneous events retain FIFO
    semantics unless explicitly prioritized.
    """

    #: Priority for urgent events (interrupts) processed before normal ones.
    PRIORITY_URGENT = 0
    #: Default priority.
    PRIORITY_NORMAL = 1

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: The event heap of (time, priority, eid, event) entries.
        self._queue: list = []
        self._eid = count()
        #: Events lazily cancelled via :meth:`cancel`; discarded (no
        #: trace, no callbacks) when they surface.
        self._cancelled: set = set()
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
        #: The callback list ``step`` is running (see :meth:`elapse`).
        self._callbacks: list | None = None
        #: The running ``run()``'s stop instant: ``inf`` without one,
        #: ``-inf`` outside ``run()``.
        self._until = float("-inf")

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
        """Number of scheduled entries, cancelled ones included."""
        return len(self._queue)

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
        queue = self._queue
        return not (queue and queue[0][0] == self._now)

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

    def elapse(self, delay: float) -> Timeout | None:
        """Let the active process's own ``delay`` pass: advance the clock
        in place and return None, or return the :class:`Timeout` for the
        caller to yield.

        The clock advances in place only where the timer would have
        been the very next event and nothing could tell the two apart:
        the caller is the active process running as the last callback
        of the current event, every queued entry (cancelled ones
        included) is due strictly after ``now + delay`` -- the timer
        would take the newest eid, so an entry at that very instant
        pops first -- and ``now + delay`` is within the running
        ``run()``'s ``until``.  An elided delay is not an event: no
        ``trace_hook`` call, no ``events_processed`` tick, and what the
        process schedules next names the current event as its cause.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        at = self._now + delay
        process = self._active_process
        callbacks = self._callbacks
        queue = self._queue
        if (process is not None and callbacks is not None
                and at <= self._until
                and (not queue or queue[0][0] > at)
                and callbacks[-1] == process._resume):
            self._now = at
            return None
        return Timeout(self, delay)

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
        heappush(self._queue, (at, priority, next(self._eid), event))
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

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            event = queue[0][3]
            if event not in cancelled:
                return queue[0][0]
            cancelled.discard(event)
            heappop(queue)
        return float("inf")

    def step(self) -> None:
        """Process the single next event."""
        queue = self._queue
        cancelled = self._cancelled
        while True:
            if not queue:
                raise EmptySchedule()
            now, _, _, event = heappop(queue)
            if not cancelled or event not in cancelled:
                break
            cancelled.discard(event)

        callbacks = event.callbacks
        if callbacks is None:
            raise SimulationError(
                f"{event!r} surfaced with no callbacks: it was scheduled "
                f"twice or already processed (cancel duplicate schedules "
                f"with Environment.cancel)"
            )
        self._now = now
        self.events_processed += 1
        if self.trace_hook is not None:
            self.trace_hook(now, event)

        event.callbacks = None
        self._current_event = event
        self._callbacks = callbacks
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._current_event = None
            self._callbacks = None

        if not event._ok and not event.defused:
            # An unhandled failure: surface it rather than losing it.
            raise event._value

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

        self._until = float("inf") if stop_at is None else stop_at
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
        finally:
            self._until = float("-inf")


def _stop_callback(event: Event) -> None:
    if event.ok:
        raise StopSimulation(event.value)
    raise event.value

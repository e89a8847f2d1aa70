"""Core event primitives for the discrete-event simulation engine.

The engine is generator-based in the style of SimPy: simulation *processes*
are Python generators that ``yield`` events; the environment resumes a
process when the event it is waiting on fires.  Events carry a value (made
available as the result of the ``yield``) or a failure (raised inside the
waiting process).
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from repro.sim.engine import Environment

# Sentinel distinguishing "no value set yet" from "value is None".
_PENDING = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine itself."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies a ``cause`` object, available via
    :attr:`cause`, that tells the interrupted process why it was woken.
    """

    @property
    def cause(self):
        return self.args[0] if self.args else None


class Event:
    """A happening inside the simulation that processes can wait on.

    An event goes through three states: *pending* (created, not scheduled),
    *triggered* (scheduled onto the event queue with a value), and
    *processed* (its callbacks have run).  Processes wait on an event by
    yielding it; when it is processed, each waiting process resumes with
    the event's value (or the failure is raised inside it).

    Events are slotted: they are the highest-volume allocation in the
    simulator, and ``__slots__`` removes the per-instance ``__dict__``.
    Subclasses must declare their own ``__slots__`` (possibly empty).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list | None = []
        self._value = _PENDING
        self._ok: bool | None = None
        #: Whether a failure has been handled (yielded on or defused).
        self.defused = False

    def __repr__(self):
        status = "pending"
        if self.triggered:
            status = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {status} at {hex(id(self))}>"

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self):
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value=None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``, to be
        processed ``delay`` seconds from now."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (triggered) event onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- combinators ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_done, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_done, [self, other])


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time."""

    __slots__ = ("_delay", "_pooled")

    def __init__(self, env: "Environment", delay: float, value=None,
                 at: float | None = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        #: True for instances recycled by ``Environment.pooled_timeout``.
        self._pooled = False
        self._ok = True
        self._value = value
        # ``at`` (see Environment.timeout_at) pins the instant exactly
        # where ``now + delay`` might round away from it.
        env.schedule(self, delay=delay, at=at)

    def __repr__(self):
        return f"<Timeout delay={self._delay} at {hex(id(self))}>"


class Notifier:
    """An on-demand, re-arming notification.

    :meth:`wait` returns an event that fires at the next :meth:`notify`.
    The event is created only when somebody waits, so notifying with no
    waiter schedules nothing; every waiter between two notifications
    shares one event.  :meth:`poll` waits the way a poll loop would,
    planning one event on its tick instead.
    """

    __slots__ = ("env", "_event", "_polls")

    def __init__(self, env: "Environment"):
        self.env = env
        self._event: Event | None = None
        #: :meth:`poll` waits to tell, in the notifying step.
        self._polls: list = []

    def wait(self) -> Event:
        event = self._event
        if event is None:
            event = self._event = Event(self.env)
        return event

    def notify(self) -> None:
        event = self._event
        if event is not None:
            self._event = None
            event.succeed()
        polls = self._polls
        if polls:
            self._polls = []
            for poll in polls:
                poll.notified()

    def poll(self, predicate, step: float):
        """Generator: return where a loop checking ``predicate()`` now
        and then every ``step`` seconds would first find it true.

        The loop's ticks are the call instant plus ``step``, built by
        repeated addition as a loop of ``step`` timeouts reaches them.
        ``predicate`` may only turn true when this notifier is
        notified: each notification re-checks it in the notifying step,
        and once it holds one event is planned on the first tick at or
        after that instant, where it is checked again (it may have
        turned false meanwhile; the wait then goes on).  A tick on the
        notifying instant itself is a zero-delay event, processed where
        a :meth:`wait` waiter's wake-up would be.  Interrupted or
        closed, the wait withdraws its subscription and its planned
        event.
        """
        if predicate():
            return
        poll = _Poll(self, predicate, step)
        try:
            while True:
                yield poll.arm()
                if predicate():
                    return
        finally:
            poll.cancel()

    def subscribe(self, callback) -> Event:
        """Run ``callback(event)`` at the next :meth:`notify`.

        Returns the shared event, which :meth:`unsubscribe` needs.
        """
        event = self.wait()
        event.callbacks.append(callback)
        return event

    def unsubscribe(self, event: Event, callback) -> None:
        """Withdraw a :meth:`subscribe` that is no longer wanted.

        A wait that ends some other way must detach, or callbacks pile
        up on a notifier nobody notifies.  Once no callback is left the
        pending event is dropped, so an idle notifier again schedules
        nothing when notified.
        """
        callbacks = event.callbacks
        if callbacks is None:
            return  # already notified and processed
        callbacks.remove(callback)
        if not callbacks and event is self._event:
            self._event = None


class _Poll:
    """One :meth:`Notifier.poll` wait: its tick and its wake-up."""

    __slots__ = ("notifier", "predicate", "step", "tick", "wake")

    def __init__(self, notifier: Notifier, predicate, step: float):
        self.notifier = notifier
        self.predicate = predicate
        self.step = step
        #: The last tick checked.
        self.tick = notifier.env.now
        self.wake: Event | None = None

    def arm(self) -> Event:
        """Wait from the tick after the last one checked."""
        self.tick += self.step
        wake = self.wake = Event(self.notifier.env)
        self.notifier._polls.append(self)
        return wake

    def notified(self) -> None:
        notifier = self.notifier
        if not self.predicate():
            notifier._polls.append(self)
            return
        env = notifier.env
        now = env.now
        tick = self.tick
        step = self.step
        while tick < now:
            tick += step
        self.tick = tick
        wake = self.wake
        wake._ok = True
        wake._value = None
        env.schedule(wake, at=tick)

    def cancel(self) -> None:
        """Withdraw whatever is still pending of this wait."""
        polls = self.notifier._polls
        if self in polls:
            polls.remove(self)
        wake = self.wake
        if wake is not None and wake.triggered \
                and wake.callbacks is not None:
            self.notifier.env.cancel(wake)


class ConditionValue:
    """Ordered mapping of the events a condition completed with."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[Event] = []

    def __getitem__(self, key: Event):
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        return self.todict() == other

    def __repr__(self):
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (event._value for event in self.events)

    def items(self):
        return ((event, event._value) for event in self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}


class Condition(Event):
    """Waits for a combination of events (``AllOf``/``AnyOf``)."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env, evaluate, events):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        if not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self.triggered:
            self.callbacks.append(self._collect_values)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _collect_values(self, _event: Event) -> None:
        if self._ok:
            value = ConditionValue()
            self._populate_value(value)
            self._value = value

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            # Populate with what has completed so far; if the condition
            # fires through the normal callback path, the registered
            # _collect_values callback refreshes this at processing time
            # (this immediate population covers members that were already
            # processed when the condition was constructed).
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    @staticmethod
    def all_done(events: list, count: int) -> bool:
        return count == len(events)

    @staticmethod
    def any_done(events: list, count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires when every given event has fired."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.all_done, events)


class AnyOf(Condition):
    """Condition that fires as soon as any given event fires."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.any_done, events)

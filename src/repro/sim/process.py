"""Simulation processes: generators driven by the event loop."""

from __future__ import annotations

from repro.sim.events import Event, Interrupt, SimulationError


class Process(Event):
    """A running simulation process.

    Wraps a generator.  Each value the generator yields must be an
    :class:`~repro.sim.events.Event`; the process sleeps until that event
    fires and then resumes with the event's value.  The :class:`Process`
    itself is an event that fires when the generator finishes, carrying the
    generator's return value — so processes can wait on each other simply
    by yielding them.
    """

    __slots__ = ("_generator", "name", "target", "_kick")

    def __init__(self, env, generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick-start: resume the generator at time `now`.
        kick = self._kick = Event(env)
        kick._ok = True
        kick._value = None
        kick.callbacks.append(self._resume)
        env.schedule(kick)
        #: The event this process is currently waiting on: its
        #: kick-start until the body first runs, None once finished.
        self.target: Event | None = kick

    def __repr__(self):
        return f"<Process {self.name} at {hex(id(self))}>"

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a process that has already terminated, or a process
        interrupting itself, is an error.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        unstarted = self.target is self._kick
        self._detach()
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(
            self._start_then_resume if unstarted else self._resume)
        self.env.schedule(interrupt_event, priority=self.env.PRIORITY_URGENT)

    def _detach(self) -> None:
        """Stop waiting on the target, so the stale event cannot resume
        the process a second time when it eventually fires."""
        target = self.target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self.target = None

    def _start_then_resume(self, interrupt_event: Event) -> None:
        """Deliver an interrupt that overtook the kick-start: run the
        body to its first yield, as the kick-start would have, and
        throw the interrupt in there.  A body that finishes before its
        first yield never sees the interrupt."""
        self._resume(self._kick)
        if not self.triggered:
            self._detach()
            self._resume(interrupt_event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self

        while True:
            if event._ok:
                advance = self._generator.send
                payload = event._value
            else:
                event.defused = True
                advance = self._generator.throw
                payload = event._value

            try:
                target = advance(payload)
            except StopIteration as stop:
                self.target = None
                env._active_process = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as error:
                self.target = None
                env._active_process = None
                self._ok = False
                self._value = error
                env.schedule(self)
                return

            try:
                callbacks = target.callbacks
            except AttributeError:
                env._active_process = None
                raise SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                ) from None

            if callbacks is not None:
                # Target not yet processed: register and go to sleep.
                callbacks.append(self._resume)
                self.target = target
                env._active_process = None
                return

            # Target already processed: loop and resume immediately with it.
            event = target

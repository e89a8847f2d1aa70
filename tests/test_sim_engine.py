"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_timeout_at_lands_on_the_instant_bit_for_bit():
    env = Environment()
    at = 3.3000000000000003
    # A relative delay cannot reach every absolute instant.
    assert 0.7 + (at - 0.7) != at
    fired = []

    def proc():
        yield env.timeout(0.7)
        yield env.timeout_at(at)
        fired.append(env.now)

    env.run(until=env.process(proc()))
    assert fired == [at]


def test_timeout_at_rejects_the_past():
    env = Environment(initial_time=1.0)
    with pytest.raises(ValueError):
        env.timeout_at(0.5)


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 42

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == 42


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc(env, "b", 2))
    env.process(proc(env, "a", 1))
    env.process(proc(env, "c", 3))
    env.run()
    assert log == [(1, "a"), (2, "b"), (3, "c")]


def test_simultaneous_events_fifo():
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(1)
        log.append(name)

    for name in ("first", "second", "third"):
        env.process(proc(env, name))
    env.run()
    assert log == ["first", "second", "third"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1)

    env.process(proc(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=4.0)


def test_wait_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(2)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    assert env.run(until=p) == "child-result"


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def opener(env):
        yield env.timeout(4)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert log == [(4, "open")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except RuntimeError as error:
            return str(error)

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    p = env.process(waiter(env))
    env.process(failer(env))
    assert env.run(until=p) == "boom"


def test_event_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="wake-up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3, "wake-up")]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        return env.now

    def interrupter(env, victim):
        yield env.timeout(10)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    assert env.run(until=victim) == 15


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    assert env.run(until=p) == (5, ["a", "b"])


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, "fast" in list(result.values()))

    p = env.process(proc(env))
    assert env.run(until=p) == (1, True)


def test_condition_operators():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        yield t1 | t2
        first = env.now
        t3 = env.timeout(1)
        t4 = env.timeout(2)
        yield t3 & t4
        return (first, env.now)

    p = env.process(proc(env))
    assert env.run(until=p) == (1, 3)


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    assert env.run(until=p) == 0


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(2)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "x"

    p = env.process(proc(env))
    env.run()
    # Running again until the same (already processed) event returns its value.
    assert env.run(until=p) == "x"


# -- one heap: same-instant order and ``settled`` ----------------------------

def settled_inside(arrange):
    """``env.settled`` seen from a callback at t = 1, after
    ``arrange(env)`` ran in that callback."""
    env = Environment()
    seen = []

    def probe(_event):
        arrange(env)
        seen.append(env.settled)

    env.timeout(1.0).callbacks.append(probe)
    env.run()
    return seen[0]


def test_settled_is_false_with_a_zero_delay_event_queued():
    assert not settled_inside(lambda env: env.timeout(0))
    assert not settled_inside(lambda env: env.event().succeed())


def test_settled_is_false_with_a_timer_landing_now():
    assert not settled_inside(lambda env: env.timeout_at(env.now))


def test_settled_is_false_with_a_cancelled_same_instant_entry():
    # A cancelled entry still holds its slot: the answer errs towards
    # the zero-delay hop.
    assert not settled_inside(lambda env: env.cancel(env.timeout(0)))


def test_settled_is_true_with_only_later_entries_queued():
    assert settled_inside(lambda env: env.timeout(0.5))
    assert settled_inside(lambda env: None)
    assert Environment().settled


def test_same_instant_interrupt_beats_normal_events_which_stay_fifo():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(5)
        except Interrupt:
            log.append("interrupted")

    def note(tag):
        return lambda _event: log.append(tag)

    victim = env.process(sleeper())

    def interrupter():
        yield env.timeout(1)
        for tag in ("n1", "n2", "n3"):
            env.timeout(0).callbacks.append(note(tag))
        victim.interrupt()
        env.event().succeed().callbacks.append(note("n4"))

    def timer():
        # Lands at the same instant, scheduled before n1..n4.
        yield env.timeout(1)
        log.append("timer")

    env.process(interrupter())
    env.process(timer())
    env.run()
    assert log == ["interrupted", "timer", "n1", "n2", "n3", "n4"]


# -- ``elapse``: a process's private delay in place ---------------------------

def elapse_inside(arrange=lambda env: None, delay=0.5, until=None,
                  after=None):
    """What ``env.elapse(delay)`` gives a process woken at t = 1 by a
    timer, after ``arrange(env)`` ran there: (the returned timer, now
    after the call, events processed by the end of the run).
    ``after(timer)`` may add callbacks behind the process's wake-up."""
    env = Environment()
    seen = []

    def proc():
        yield wake
        arrange(env)
        timer = env.elapse(delay)
        seen.append((timer, env.now))
        if timer is not None:
            yield timer

    wake = env.timeout(1.0)
    env.process(proc())
    if after is not None:
        env.run(until=0.5)  # the process now waits on ``wake``
        after(wake)
    env.run(until=until)
    timer, now = seen[0]
    return timer, now, env.events_processed


def test_elapse_advances_in_place_when_alone():
    timer, now, events = elapse_inside()
    assert timer is None
    assert now == 1.0 + 0.5
    # The wake-up, the kick-start and the process's end: no timer.
    assert events == 3


def test_elapse_yields_a_timer_on_a_tie():
    # The timer would take the newest eid: the entry already due at
    # that very instant pops first.
    timer, now, events = elapse_inside(lambda env: env.timeout(0.5))
    assert isinstance(timer, Timeout)
    assert now == 1.0
    assert events == 5


def test_elapse_yields_a_timer_with_an_earlier_entry():
    timer, _, _ = elapse_inside(lambda env: env.timeout(0.2))
    assert isinstance(timer, Timeout)


def test_elapse_yields_a_timer_with_a_cancelled_head():
    timer, _, _ = elapse_inside(lambda env: env.cancel(env.timeout(0.2)))
    assert isinstance(timer, Timeout)


def test_elapse_advances_in_place_with_only_later_entries():
    timer, _, _ = elapse_inside(lambda env: env.timeout(0.75))
    assert timer is None


def test_elapse_yields_a_timer_when_a_callback_follows_the_process():
    timer, _, _ = elapse_inside(
        after=lambda wake: wake.callbacks.append(lambda _event: None))
    assert isinstance(timer, Timeout)


def test_elapse_advances_in_place_after_an_earlier_callback():
    # Only callbacks *after* the process could tell the two apart.
    timer, _, _ = elapse_inside(
        after=lambda wake: wake.callbacks.insert(0, lambda _event: None))
    assert timer is None


def test_elapse_yields_a_timer_past_run_until():
    timer, now, _ = elapse_inside(until=1.25)
    assert isinstance(timer, Timeout)
    assert now == 1.0
    # ``run(until=t)`` processes an event due exactly at t.
    timer, _, _ = elapse_inside(until=1.5)
    assert timer is None


def test_elapse_yields_a_timer_outside_a_process_and_outside_run():
    env = Environment()
    assert isinstance(env.elapse(1.0), Timeout)
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(env.elapse(0.5))

    env.process(proc())
    while not seen:
        env.step()
    assert isinstance(seen[0], Timeout)


def test_elapse_yields_a_timer_from_an_interrupt_that_overtook_the_start():
    env = Environment()
    seen = []

    def proc():
        try:
            yield env.timeout(5.0)
        except Interrupt:
            seen.append(env.elapse(0.5))

    def body():
        seen.append("started")
        yield from proc()

    victim = env.process(body())
    victim.interrupt()
    env.run()
    assert seen[0] == "started"
    assert isinstance(seen[1], Timeout)


def test_elapse_rejects_a_negative_delay():
    with pytest.raises(ValueError):
        elapse_inside(delay=-1.0)


def test_elided_delay_is_no_event_and_names_the_event_before_it():
    env = Environment()
    popped = []
    causes = []
    env.trace_hook = lambda now, event: popped.append(event)
    env.schedule_hook = lambda event, cause, at: causes.append(
        (event, cause))

    def proc():
        yield wake
        assert env.elapse(0.5) is None
        done = env.timeout(0.25)
        yield done
        return done

    wake = env.timeout(1.0)
    process = env.process(proc())
    done = env.run(until=process)
    assert env.now == 1.75
    assert popped == [process._kick, wake, done, process]
    assert (done, wake) in causes

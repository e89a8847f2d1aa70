"""Additional edge-case coverage for the simulation engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_all_of_fails_fast_on_member_failure():
    env = Environment()
    gate = env.event()

    def proc(env):
        t = env.timeout(100)
        try:
            yield env.all_of([gate, t])
        except RuntimeError as error:
            return (env.now, str(error))

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("member failed"))

    p = env.process(proc(env))
    env.process(failer(env))
    assert env.run(until=p) == (1, "member failed")


def test_any_of_failure_propagates():
    env = Environment()
    gate = env.event()

    def proc(env):
        try:
            yield env.any_of([gate, env.timeout(100)])
        except ValueError:
            return "caught"

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    p = env.process(proc(env))
    env.process(failer(env))
    assert env.run(until=p) == "caught"


def test_condition_value_mapping_semantics():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = yield env.all_of([t1, t2])
        assert t1 in result
        assert result[t1] == "a"
        assert dict(result.items()) == {t1: "a", t2: "b"}
        assert list(result.keys()) == [t1, t2]
        with pytest.raises(KeyError):
            _ = result[env.event()]
        return True

    assert env.run(until=env.process(proc(env)))


def test_nested_conditions_flatten_values():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(2, value="y")
        t3 = env.timeout(3, value="z")
        result = yield (t1 & t2) & t3
        return list(result.values())

    assert env.run(until=env.process(proc(env))) == ["x", "y", "z"]


def test_condition_mixed_environments_rejected():
    env_a = Environment()
    env_b = Environment()
    t_a = env_a.timeout(1)
    t_b = env_b.timeout(1)
    with pytest.raises(ValueError):
        AllOf(env_a, [t_a, t_b])


def test_event_trigger_mirrors_outcome():
    env = Environment()
    source = env.event()
    mirror = env.event()
    source.succeed("payload")
    mirror.trigger(source)
    assert mirror.triggered and mirror.ok
    assert mirror.value == "payload"

    failed_source = env.event()
    failed_mirror = env.event()
    error = RuntimeError("no")
    failed_source.fail(error)
    failed_mirror.trigger(failed_source)
    failed_source.defused = True
    failed_mirror.defused = True
    assert not failed_mirror.ok
    assert failed_mirror.value is error
    env.run()


def test_fail_with_non_exception_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_interrupt_detaches_from_stale_target():
    """After an interrupt, the old timeout firing must not resume the
    process a second time."""
    env = Environment()
    wakeups = []

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt:
            wakeups.append(("interrupt", env.now))
        yield env.timeout(100)
        wakeups.append(("done", env.now))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert wakeups == [("interrupt", 2), ("done", 102)]


def test_interrupt_before_first_step_reaches_first_yield():
    """An interrupt made before a new process has run lands at its first
    yield, as if the kick-start had run first."""
    env = Environment()
    log = []

    def body(env):
        log.append(("started", env.now))
        try:
            yield env.timeout(10)
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, env.now))
        yield env.timeout(1)
        return "done"

    def parent(env):
        yield env.timeout(2)
        child = env.process(body(env))
        child.interrupt("stop")
        return (yield child)

    assert env.run(until=env.process(parent(env))) == "done"
    assert log == [("started", 2), ("interrupted", "stop", 2)]
    assert env.now == 3


def test_interrupt_before_first_step_of_body_that_ends_early():
    """A body that returns before its first yield never sees the
    interrupt."""
    env = Environment()

    def body(env):
        return "early"
        yield  # pragma: no cover - makes this a generator

    def parent(env):
        child = env.process(body(env))
        child.interrupt()
        return (yield child)

    assert env.run(until=env.process(parent(env))) == "early"


def test_process_failure_value_available_after_catch():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("broken")

    def parent(env):
        child = env.process(bad(env))
        try:
            yield child
        except KeyError:
            return child

    child = env.run(until=env.process(parent(env)))
    assert child.triggered
    assert not child.ok
    assert isinstance(child.value, KeyError)


def test_any_of_with_already_processed_event():
    env = Environment()

    def proc(env):
        early = env.timeout(1, value="early")
        yield env.timeout(5)  # `early` is processed by now
        result = yield env.any_of([early, env.timeout(50)])
        return "early" in list(result.values())

    assert env.run(until=env.process(proc(env))) is True


def test_peek_and_step_bookkeeping():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    assert env.peek() == 3.0
    env.step()
    assert env.now == 3.0


def test_repr_smoke():
    env = Environment()
    event = env.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "ok" in repr(event)
    assert "Environment" in repr(env)

    def noop(env):
        yield env.timeout(1)

    process = env.process(noop(env), name="my-proc")
    assert "my-proc" in repr(process)
    env.run()


def test_run_until_event_never_fires_raises():
    env = Environment()
    orphan = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=orphan)

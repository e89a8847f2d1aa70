"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Environment, Notifier, Resource, Store


# -- Resource ---------------------------------------------------------------

def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def user(env, name, hold):
        with resource.request() as req:
            yield req
            log.append(("acquire", name, env.now))
            yield env.timeout(hold)
        log.append(("release", name, env.now))

    env.process(user(env, "a", 5))
    env.process(user(env, "b", 5))
    env.process(user(env, "c", 5))
    env.run()
    acquires = [(name, t) for kind, name, t in log if kind == "acquire"]
    assert acquires == [("a", 0), ("b", 0), ("c", 5)]


def test_resource_count_tracks_users():
    env = Environment()
    resource = Resource(env, capacity=1)

    def user(env):
        with resource.request() as req:
            yield req
            assert resource.count == 1
            yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert resource.count == 0


def test_resource_fifo_queueing():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(env, name):
        with resource.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in "abcd":
        env.process(user(env, name))
    env.run()
    assert order == list("abcd")


def test_notifier_unsubscribe_leaves_nothing_to_schedule():
    env = Environment()
    notifier = Notifier(env)

    def callback(event):
        raise AssertionError("unsubscribed callback ran")

    event = notifier.subscribe(callback)
    notifier.unsubscribe(event, callback)
    notifier.notify()
    env.run()
    assert env.events_processed == 0


def test_resource_release_unqueued_request_noop():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env):
        req = resource.request()
        yield req
        resource.release(req)
        resource.release(req)  # second release is a no-op

    env.process(holder(env))
    env.run()
    assert resource.count == 0


# -- Store ------------------------------------------------------------------

def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put("item")

    def consumer(env):
        item = yield store.get()
        return item

    env.process(producer(env))
    p = env.process(consumer(env))
    assert env.run(until=p) == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    log = []

    def consumer(env):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env):
        yield env.timeout(7)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [(7, "late")]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in (1, 2, 3):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == [1, 2, 3]


def test_store_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        log.append((f"got-{item}", env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0) in log
    assert ("put-b", 5) in log


def test_store_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None

    def producer(env):
        yield store.put("x")

    env.process(producer(env))
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_peek_does_not_remove():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put("x")

    env.process(producer(env))
    env.run()
    assert store.peek() == "x"
    assert len(store) == 1


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    results = []

    def consumer(env, name):
        item = yield store.get()
        results.append((name, item))

    def producer(env):
        yield env.timeout(1)
        yield store.put("first")
        yield store.put("second")

    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))
    env.process(producer(env))
    env.run()
    assert results == [("c1", "first"), ("c2", "second")]

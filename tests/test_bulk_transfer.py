"""Packet-mode bulk streams (``EthernetSwitch.start_bulk_transfer``).

A bulk AoE reply is priced on a grid of 128 KiB chunks: the sender's
port is held chunk after chunk, each chunk then crosses the receiver's
port, and anybody else using either port gets in at the next chunk
boundary.  Each side holds its port across a run of chunks with one
timer and splits the run only where somebody else would get in.

The instants pinned in ``SCENARIOS`` are the ones the chunk-by-chunk
loop (one lock grant, timeout and hand-off per chunk and side)
produced; every scenario must reproduce them bit for bit with no more
events than that loop processed.  ``TIE_ORDER_DEVIATIONS`` pins, at
today's instants, cases where exactly coinciding chunk boundaries are
resolved in another order than the loop's (see ``_BulkStream``).

An AoE bulk reply (``Nic.start_train`` with ``per_frame_payload``) is
planned in one event while its ports are free and hands over to a
bulk stream when anybody asks for one; it must be the stepped reply (a
gap timer, then the stream) at every instant.  A command frame sent
by ``Nic.start_command`` must be the stepped frame at every instant as
well.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.net.link import EthernetSwitch, _BulkStream
from repro.net.nic import Nic
from repro.sim import Environment

MB = 2**20
#: Payload bytes per frame of a bulk AoE read reply at 9000 MTU
#: (17 sectors plus the AoE header).
PER_FRAME = 8740
FRAME_BYTES = 9000


def bulk_transfer(switch, src, dst, payload, payload_bytes,
                  per_frame_payload, fluid=False):
    """Generator: one bulk stream (or fluid flow); returns one zero-delay
    hop after the receiver holds the payload."""
    done = switch.env.event()
    start = switch.start_fluid_transfer if fluid \
        else switch.start_bulk_transfer
    start(src, dst, payload, payload_bytes, per_frame_payload, "aoe",
          done.succeed)
    yield done


def run(bulks=(), frames=(), fluids=()):
    """Run 1 MiB bulk transfers, single frames and fluid flows on a
    bare switch with ports a, b and c.

    Each operation is ``(label, src, dst, start)`` (fluid flows add a
    size).  Returns the instant each operation's sender returned, the
    instant each payload reached its receiver, and the event count.
    """
    env = Environment()
    switch = EthernetSwitch(env)
    arrived = {}

    class RecordingNic(Nic):
        def deliver(self, frame):
            arrived[frame.payload] = env.now
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name) for name in "abc"}
    finished = {}

    def bulk(label, src, dst, start):
        if start:
            yield env.timeout(start)
        yield from bulk_transfer(switch, src, dst, label, MB, PER_FRAME)
        finished[label] = env.now

    def frame(label, src, dst, start):
        yield env.timeout(start)
        yield from nics[src].send(dst, label, FRAME_BYTES)
        finished[label] = env.now

    def fluid(label, src, dst, start, size):
        if start:
            yield env.timeout(start)
        yield from bulk_transfer(switch, src, dst, label, size, PER_FRAME,
                                 fluid=True)
        finished[label] = env.now

    for op in bulks:
        env.process(bulk(*op))
    for op in frames:
        env.process(frame(*op))
    for op in fluids:
        env.process(fluid(*op))
    env.run()
    return finished, arrived, env.events_processed


#: name -> (operations, sender-return instants, arrival instants, events
#: the chunk loop processed).
SCENARIOS = {
    "solo": (
        dict(bulks=[("x", "a", "b", 0.0)]),
        {"x": 0.009478223999999999},
        {"x": 0.009478223999999999},
        55),
    "streams-share-tx-port": (
        dict(bulks=[("x", "a", "b", 0.0), ("y", "a", "c", 0.4e-3)]),
        {"x": 0.016850175999999998, "y": 0.017903311999999998},
        {"x": 0.016850175999999998, "y": 0.017903311999999998},
        111),
    "streams-share-rx-port": (
        dict(bulks=[("x", "a", "c", 0.0), ("y", "b", "c", 0.4e-3)]),
        {"x": 0.016850175999999998, "y": 0.017903311999999998},
        {"x": 0.016850175999999998, "y": 0.017903311999999998},
        111),
    "frame-crosses-tx-port": (
        dict(bulks=[("x", "a", "b", 0.0)], frames=[("f", "a", "c", 2.5e-3)]),
        {"f": 0.0032317120000000003, "x": 0.009550527999999999},
        {"f": 0.0033240160000000004, "x": 0.009550527999999999},
        66),
    "frame-crosses-rx-port": (
        dict(bulks=[("x", "a", "b", 0.0)], frames=[("f", "c", "b", 2.5e-3)]),
        {"f": 0.002572304, "x": 0.009550527999999999},
        {"f": 0.0032317120000000003, "x": 0.009550527999999999},
        66),
    # Requested at one instant: y queues on a's tx lock before x's grant
    # is processed, so it never fires the contention notification and x
    # has to see it waiting.
    "three-at-one-instant": (
        dict(bulks=[("x", "a", "b", 0.0), ("y", "a", "c", 0.0),
                    ("z", "c", "b", 0.0)]),
        {"x": 0.016850175999999998, "y": 0.017903311999999998,
         "z": 0.017903311999999998},
        {"x": 0.016850175999999998, "y": 0.017903311999999998,
         "z": 0.017903311999999998},
        165),
    # u shares the tx port until it ends mid-stream; v lands on the rx
    # port mid-stream: both re-price the chunks still to come.
    "fluid-flows-on-both-ports": (
        dict(bulks=[("x", "a", "b", 0.2e-3)],
             fluids=[("u", "a", "c", 0.0, MB // 2),
                     ("v", "c", "b", 3e-3, MB)]),
        {"u": 0.004232544, "v": 0.011445087999999999,
         "x": 0.015969680000000003},
        {"u": 0.004232544, "v": 0.011445087999999999,
         "x": 0.015969680000000003},
        69),
    # x shares a's tx port with y, so its chunks leave one at a time;
    # frames and v hold b's rx port back, so x's receiver lags and takes
    # a one-chunk hold that v's departure does not reach.  The chunks
    # it later follows on with must be priced without v.
    "fluid-flow-ends-before-rx-hold-extends": (
        dict(bulks=[("x", "a", "b", 4.9e-3), ("y", "a", "c", 2.1e-3)],
             frames=[(f"f{i}", "c", "b", 4.3e-3) for i in range(4)],
             fluids=[("v", "c", "b", 4.5e-3, 273240)]),
        {"f0": 0.004372304, "f1": 0.004444607999999999,
         "f2": 0.004516911999999999, "f3": 0.005637791999999999,
         "v": 0.007077168, "x": 0.020003311999999995,
         "y": 0.016843903999999996},
        {"f0": 0.004464607999999999, "f1": 0.004536911999999999,
         "f2": 0.005657791999999999, "f3": 0.0067786719999999995,
         "v": 0.007077168, "x": 0.020003311999999995,
         "y": 0.016843903999999996},
        165),
}


#: name -> (operations, sender-return instants, arrival instants, the
#: instants the chunk loop produced where they differ).  The figures are
#: today's, pinned so the deviation cannot widen unnoticed.
TIE_ORDER_DEVIATIONS = {
    # x0 and x1 share c's rx port, x1 and x2 b's tx port; every start
    # lies on the chunk grid, so boundaries of all three coincide.  The
    # loop gave c's port back to x0 one chunk earlier.
    "three-streams-on-one-chunk-grid": (
        dict(bulks=[("x0", "a", "c", 0.0), ("x1", "b", "c", 0.001053136),
                    ("x2", "b", "c", 0.009478223999999999)]),
        {"x0": 0.020009583999999997, "x1": 0.021062719999999997,
         "x2": 0.026328399999999995},
        {"x0": 0.020009583999999997, "x1": 0.021062719999999997,
         "x2": 0.026328399999999995},
        {"x0": 0.018956447999999997}),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_chunk_loop_instants_reproduced(name):
    operations, finished, arrived, _ = SCENARIOS[name]
    got_finished, got_arrived, _ = run(**operations)
    assert got_finished == finished
    assert got_arrived == arrived


@pytest.mark.parametrize("name", SCENARIOS)
def test_no_more_events_than_chunk_loop(name):
    operations, _, _, loop_events = SCENARIOS[name]
    _, _, events = run(**operations)
    assert events <= loop_events


@pytest.mark.parametrize("name", TIE_ORDER_DEVIATIONS)
def test_tie_order_deviation_pinned(name):
    operations, finished, arrived, loop = TIE_ORDER_DEVIATIONS[name]
    got_finished, got_arrived, _ = run(**operations)
    assert got_finished == finished
    assert got_arrived == arrived
    # A shift of exactly one chunk time, no more.
    frames = -(-MB // PER_FRAME)
    wire_bytes = MB + frames * params.ETH_FRAME_OVERHEAD
    per_chunk = wire_bytes * 8.0 / params.GBE_BITS_PER_SECOND / 8
    for label, instant in loop.items():
        assert got_arrived[label] - instant == pytest.approx(per_chunk)


def test_solo_transfer_is_a_handful_of_events():
    # Eight chunks per side; the loop took 55 events.  The stream takes
    # four (the sender's hold, the receiver's wake-up for the first
    # chunk, its hop to ask for the port and its hold); the rest are the
    # harness's: the process's start and exit, the receive ring's put
    # and the done event.
    _, _, events = run(**SCENARIOS["solo"][0])
    assert events == 8


def test_port_lock_tells_its_holder_when_a_request_queues():
    env = Environment()
    switch = EthernetSwitch(env)
    for name in "abc":
        Nic(env, switch, name)
    switch.start_bulk_transfer("a", "b", None, MB, PER_FRAME, "aoe",
                               lambda: None)
    lock = switch._tx_locks["a"]
    told = []

    def trace(now, event):
        told.extend(now for callback in event.callbacks
                    if getattr(callback, "__func__", None)
                    is _BulkStream._contended)

    env.trace_hook = trace

    def ask():
        yield env.timeout(2.5e-3)
        assert lock.holder is not None
        lock.request()

    env.process(ask())
    env.run()
    assert told == [2.5e-3]


def test_sequential_transfers_leave_no_subscriptions():
    env = Environment()
    switch = EthernetSwitch(env)
    for name in "ab":
        Nic(env, switch, name)

    def transfers():
        for _ in range(1000):
            yield from bulk_transfer(switch, "a", "b", None, MB, PER_FRAME)

    env.run(until=env.process(transfers()))
    locks = [switch._tx_locks[name] for name in "ab"] \
        + [switch._rx_locks[name] for name in "ab"]
    for lock in locks:
        assert lock.holder is None
        assert not lock.users and not lock.queue
        assert lock.rejoining == 0
    # No split or re-pricing event is left pending either.
    assert env.peek() == float("inf")


class ArrivalTimerStream(_BulkStream):
    """A bulk stream that plans the last chunk's arrival timer even
    where the delivery is sure to come later."""

    def _sent(self):
        self.env.timeout(self.switch.forward_latency).callbacks.append(
            self._landed)


class ArrivalTimerSwitch(EthernetSwitch):
    def start_bulk_transfer(self, src, dst, *transfer):
        self._check_ports(src, dst)
        ArrivalTimerStream(self, src, dst, *transfer)


def arrival_run(switch_class, sectors, rate_bps, latency, frame):
    """Two bulk streams into b's port, the second starting mid-way
    through the first, and optionally a frame crossing a's sending or
    b's receiving port.  Returns every ``done`` and delivery in order,
    with its instant."""
    env = Environment()
    switch = switch_class(env, rate_bps=rate_bps, forward_latency=latency)
    seen = []

    class RecordingNic(Nic):
        def deliver(self, frame):
            seen.append(("arrived:" + frame.payload, env.now))
            super().deliver(frame)

    for name in "abc":
        RecordingNic(env, switch, name, rx_ring_size=64)
    size = sectors * params.SECTOR_BYTES
    wire_s = size * 8.0 / rate_bps

    def bulk(label, src, start):
        def go(_timer):
            switch.start_bulk_transfer(
                src, "b", label, size, PER_FRAME, "aoe",
                lambda: seen.append(("done:" + label, env.now)))
        env.timeout(start).callbacks.append(go)

    bulk("x", "a", 0.0)
    bulk("y", "c", wire_s / 3)
    if frame is not None:
        src, dst, fraction = frame

        def send():
            yield env.timeout(wire_s * fraction)
            yield from switch._ports[src].send(dst, "f", FRAME_BYTES)
            seen.append(("sent:f", env.now))

        env.process(send())
    env.run()
    return seen


@settings(max_examples=150, deadline=None)
@given(sectors=st.integers(1, 8192),
       rate_bps=st.sampled_from([params.GBE_BITS_PER_SECOND,
                                 10 * params.GBE_BITS_PER_SECOND]),
       latency=st.one_of(st.just(0.0), st.just(params.SWITCH_LATENCY_SECONDS),
                         st.floats(0.0, 5e-3)),
       frame=st.one_of(st.none(),
                       st.tuples(st.sampled_from(["ac", "cb"]),
                                 st.floats(0.0, 1.5))
                       .map(lambda pick: (*pick[0], pick[1]))))
def test_done_waits_on_the_later_of_arrival_and_delivery(sectors, rate_bps,
                                                          latency, frame):
    got = arrival_run(EthernetSwitch, sectors, rate_bps, latency, frame)
    reference = arrival_run(ArrivalTimerSwitch, sectors, rate_bps, latency,
                            frame)
    assert got == reference


# -- bulk replies -------------------------------------------------------------


def reply_run(stepped, sectors, rate_bps, latency, contender):
    """A bulk reply from a to b sent by ``Nic.start_train`` (planned when
    it can be), or ``stepped`` as it used to be sent (a gap timer, then
    a bulk stream), and a frame or a second bulk stream asking for a's
    sending or b's receiving port part-way through.  Returns every
    delivery, ``sent`` and ``done`` in order, with its instant."""
    env = Environment()
    switch = EthernetSwitch(env, rate_bps=rate_bps, forward_latency=latency)
    seen = []

    class RecordingNic(Nic):
        def deliver(self, frame):
            seen.append(("arrived:" + frame.payload, env.now))
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name, rx_ring_size=64)
            for name in "abcd"}
    size = sectors * params.SECTOR_BYTES
    gap = 3e-6

    def sent(count):
        seen.append(("sent:x", count, env.now))

    def done():
        seen.append(("done:x", env.now))

    if stepped:
        frames = -(-size // PER_FRAME)

        def streamed():
            sent(1)
            done()

        env.timeout(frames * gap).callbacks.append(
            lambda _timer: switch.start_bulk_transfer(
                "a", "b", "x", size, PER_FRAME, "aoe", streamed))
    else:
        nics["a"].start_train("b", ["x"], [size], "aoe", gap, sent, done,
                              per_frame_payload=PER_FRAME)
    if contender is not None:
        kind, port, at = contender
        src, dst = ("a", "c") if port == "tx" else ("d", "b")

        def go(_timer):
            if kind == "frame":
                nics[src].start_send(
                    dst, "f", FRAME_BYTES, "aoe",
                    lambda _delivered: seen.append(("sent:f", env.now)))
            else:
                switch.start_bulk_transfer(
                    src, dst, "y", MB // 4, PER_FRAME, "aoe",
                    lambda: seen.append(("done:y", env.now)))
        env.timeout(at).callbacks.append(go)
    env.run()
    return seen


@settings(max_examples=150, deadline=None)
@given(sectors=st.integers(1, 4096),
       rate_bps=st.sampled_from([params.GBE_BITS_PER_SECOND,
                                 10 * params.GBE_BITS_PER_SECOND]),
       latency=st.one_of(st.just(params.SWITCH_LATENCY_SECONDS),
                         st.floats(0.0, 2e-3)),
       contender=st.one_of(st.none(),
                           st.tuples(st.sampled_from(["frame", "bulk"]),
                                     st.sampled_from(["tx", "rx"]),
                                     st.floats(0.0, 6e-3))))
def test_bulk_reply_is_the_stepped_stream(sectors, rate_bps, latency,
                                          contender):
    assert reply_run(False, sectors, rate_bps, latency, contender) \
        == reply_run(True, sectors, rate_bps, latency, contender)


def command_run(late, latency, size, contender):
    """A command frame from a to b sent by ``Nic.start_command`` if
    ``late``, else by ``Nic.start_send``, and a frame or a bulk stream asking for a's sending or b's
    receiving port at a random instant.  Returns every delivery and
    sender's return with its instant, sorted (a late frame's sender
    returns later: its instant is its send end, read from its train)."""
    env = Environment()
    switch = EthernetSwitch(env, forward_latency=latency)
    seen = []

    class RecordingNic(Nic):
        def deliver(self, frame):
            seen.append(("arrived:" + frame.payload, env.now))
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name, rx_ring_size=64)
            for name in "abcd"}
    train = []

    def sent(_delivered=None):
        seen.append(("sent:q", env.now if train[0] is None
                     else train[0].ends[0]))

    send = nics["a"].start_command if late else nics["a"].start_send
    env.timeout(1e-4).callbacks.append(
        lambda _timer: train.append(send("b", "q", size, "aoe", sent)))
    if contender is not None:
        kind, port, at = contender
        src, dst = ("a", "c") if port == "tx" else ("d", "b")

        def go(_timer):
            if kind == "frame":
                nics[src].start_send(
                    dst, "f", FRAME_BYTES, "aoe",
                    lambda _delivered: seen.append(("sent:f", env.now)))
            else:
                switch.start_bulk_transfer(
                    src, dst, "y", MB // 4, PER_FRAME, "aoe",
                    lambda: seen.append(("done:y", env.now)))
        env.timeout(at).callbacks.append(go)
    env.run()
    return sorted(seen)


@settings(max_examples=150, deadline=None)
@given(latency=st.one_of(st.just(params.SWITCH_LATENCY_SECONDS),
                         st.floats(0.0, 1e-4)),
       size=st.sampled_from([24, 64, 1500, FRAME_BYTES]),
       contender=st.one_of(st.none(),
                           st.tuples(st.sampled_from(["frame", "bulk"]),
                                     st.sampled_from(["tx", "rx"]),
                                     st.floats(0.0, 3e-4))))
def test_late_command_is_the_stepped_frame(latency, size, contender):
    assert command_run(True, latency, size, contender) \
        == command_run(False, latency, size, contender)

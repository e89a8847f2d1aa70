"""Tests for the extended AoE protocol: fragmentation, client, server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.aoe.client import AoeInitiator, AoeTimeoutError
from repro.aoe.protocol import (
    AoeCommand,
    AoeDataFragment,
    ReassemblyBuffer,
    fragment_count,
    sectors_per_frame,
    split_read_reply,
    split_write_payload,
)
from repro.aoe.rtt import RttEstimator
from repro.aoe.server import AoeServer, ImageStore
from repro.net import EthernetSwitch, LossModel, Nic
from repro.sim import Environment
from repro.storage.blockdev import clip_runs
from repro.util.intervalmap import IntervalMap


# -- protocol fragmentation -------------------------------------------------------

def test_sectors_per_frame_jumbo_vs_standard():
    jumbo = sectors_per_frame(params.GBE_MTU)
    standard = sectors_per_frame(params.ETH_MTU_STANDARD)
    assert jumbo == 17
    assert standard == 2


def test_sectors_per_frame_too_small_mtu():
    with pytest.raises(ValueError):
        sectors_per_frame(256)


def test_fragment_count():
    assert fragment_count(1, params.GBE_MTU) == 1
    assert fragment_count(17, params.GBE_MTU) == 1
    assert fragment_count(18, params.GBE_MTU) == 2
    assert fragment_count(2048, params.GBE_MTU) == 121


def test_split_and_reassemble_roundtrip():
    runs = [(0, 10, "a"), (10, 40, "b"), (40, 64, None)]
    fragments = split_read_reply(tag=7, lba=0, runs=runs, mtu=params.GBE_MTU)
    buffer = ReassemblyBuffer(7)
    for fragment in reversed(fragments):  # out-of-order arrival
        buffer.add(fragment)
    assert buffer.complete
    assembled = buffer.assemble()
    # Reassembly must cover the same sectors with the same tokens.
    flat = {}
    for start, end, token in assembled:
        for key in range(start, end):
            flat[key] = token
    for key in range(64):
        expected = "a" if key < 10 else ("b" if key < 40 else None)
        assert flat[key] == expected


def test_reassembly_duplicate_fragments_idempotent():
    runs = [(0, 34, "x")]
    fragments = split_read_reply(tag=1, lba=0, runs=runs, mtu=params.GBE_MTU)
    buffer = ReassemblyBuffer(1)
    buffer.add(fragments[0])
    buffer.add(fragments[0])
    assert not buffer.complete
    buffer.add(fragments[1])
    assert buffer.complete


def test_reassembly_wrong_tag_rejected():
    runs = [(0, 2, "x")]
    [fragment] = split_read_reply(tag=1, lba=0, runs=runs, mtu=9000)
    buffer = ReassemblyBuffer(2)
    with pytest.raises(ValueError):
        buffer.add(fragment)


def test_incomplete_assemble_rejected():
    buffer = ReassemblyBuffer(1)
    with pytest.raises(ValueError):
        buffer.assemble()


def clipping_split(tag, lba, runs, mtu):
    """The split as it was: every run clipped against every window."""
    from repro.aoe.protocol import AoeDataFragment
    total = sum(end - start for start, end, _ in runs)
    per_frame = sectors_per_frame(mtu)
    count = fragment_count(total, mtu)
    fragments = []
    for index in range(count):
        window_start = lba + index * per_frame
        window_end = min(lba + total, window_start + per_frame)
        clipped = tuple(
            (max(start, window_start), min(end, window_end), token)
            for start, end, token in runs
            if start < window_end and end > window_start)
        fragments.append(AoeDataFragment(
            tag=tag, fragment_index=index, fragment_total=count,
            lba=window_start, sector_count=window_end - window_start,
            runs=clipped))
    return fragments


def tiling(lba, lengths, tokens):
    """Runs of ``lengths`` laid end to end from ``lba``."""
    runs = []
    for length, token in zip(lengths, tokens):
        runs.append((lba, lba + length, token))
        lba += length
    return runs


run_lengths = st.lists(st.integers(1, 60), min_size=1, max_size=40)
run_tokens = st.lists(st.sampled_from(["a", "b", None]), min_size=40,
                      max_size=40)
mtus = st.sampled_from([1024, 1500, 4000, 9000])


@settings(max_examples=200, deadline=None)
@given(lba=st.integers(0, 5000), lengths=run_lengths, tokens=run_tokens,
       mtu=mtus)
def test_split_walk_matches_clipping_every_run(lba, lengths, tokens, mtu):
    runs = tiling(lba, lengths, tokens)
    assert split_read_reply(3, lba, runs, mtu) \
        == clipping_split(3, lba, runs, mtu)


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 5000), lengths=run_lengths, tokens=run_tokens,
       mtu=mtus, offset=st.integers(0, 100), count=st.integers(1, 800))
def test_split_write_payload_matches_clipping_every_run(start, lengths,
                                                         tokens, mtu, offset,
                                                         count):
    runs = tiling(start, lengths, tokens)
    total = sum(lengths)
    lba = start + offset % total
    count = min(count, start + total - lba)
    assert split_write_payload(5, lba, count, runs, mtu) \
        == clipping_split(5, lba, clip_runs(runs, lba, count), mtu)


def test_split_keeps_the_runs_own_bounds():
    # Reassembled runs outlive the reply: where a window ends on a run's
    # bound, the fragment holds the run's own int, not an equal copy.
    lba = 13_444_510
    runs = [(lba, lba + 16, "t")]
    [fragment] = split_read_reply(1, lba, runs, params.GBE_MTU)
    start, end, _ = fragment.runs[0]
    assert start is runs[0][0] and end is runs[0][1]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(0, 1000),
       st.sampled_from([1500, 4000, 9000]))
def test_fragments_tile_exactly(sector_count, lba, mtu):
    """Fragments must cover [lba, lba+n) exactly once, in order."""
    runs = [(lba, lba + sector_count, "t")]
    fragments = split_read_reply(tag=0, lba=lba, runs=runs, mtu=mtu)
    assert len(fragments) == fragment_count(sector_count, mtu)
    cursor = lba
    for fragment in fragments:
        assert fragment.lba == cursor
        assert fragment.sector_count >= 1
        assert fragment.payload_bytes <= mtu
        cursor += fragment.sector_count
    assert cursor == lba + sector_count


# -- messages ---------------------------------------------------------------------------

MESSAGES = [
    (AoeCommand, (7, "read", 1024, 2048), {"bulk": True},
     ("tag", "op", "lba", "sector_count", "payload_runs", "bulk", "fluid")),
    (AoeDataFragment, (7, 0, 1, 1024, 17), {"runs": ((1024, 1041, "a"),)},
     ("tag", "fragment_index", "fragment_total", "lba", "sector_count",
      "runs")),
]


@pytest.mark.parametrize("message, args, kwargs, fields", MESSAGES)
def test_message_fields_are_read_by_name(message, args, kwargs, fields):
    built = message(*args, **kwargs)
    assert message._fields == fields
    values = dict(zip(fields, args)) | kwargs
    assert all(getattr(built, name) == value
               for name, value in values.items())
    assert built == message(**values)


@pytest.mark.parametrize("message, args, kwargs, fields", MESSAGES)
def test_messages_are_immutable(message, args, kwargs, fields):
    built = message(*args, **kwargs)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 0)
    with pytest.raises(AttributeError):
        built.extra = 0


@pytest.mark.parametrize("message, args, kwargs, fields", MESSAGES)
def test_messages_equal_only_their_own_kind(message, args, kwargs, fields):
    built = message(*args, **kwargs)
    assert built == message(*args, **kwargs)
    assert hash(built) == hash(message(*args, **kwargs))
    assert built != message(args[0] + 1, *args[1:], **kwargs)
    # Not equal to the bare tuple of its fields, either way round.
    assert built != tuple(built) and tuple(built) != built
    assert not built == tuple(built)


def test_command_frame_is_its_header():
    for op in ("read", "write"):
        command = AoeCommand(1, op, 0, 8)
        assert command.frame_bytes() == command.header_bytes \
            == params.AOE_HEADER_BYTES


# -- client/server end-to-end ----------------------------------------------------------

def make_aoe(loss=0.0, workers=8, mtu=None, poll_interval=0.0, seed=7):
    env = Environment()
    kwargs = {}
    if mtu is not None:
        kwargs["mtu"] = mtu
    switch = EthernetSwitch(env, loss=LossModel(loss, seed=seed), **kwargs)
    client_nic = Nic(env, switch, "vmm0")
    server_nic = Nic(env, switch, "server", rx_ring_size=4096)
    image = IntervalMap()
    image.set_range(0, 1 << 20, ("img", 0))
    store = ImageStore(env, image, image_sectors=1 << 20)
    server = AoeServer(env, server_nic, store, workers=workers)
    server.start()
    client = AoeInitiator(env, client_nic, "server",
                          poll_interval=poll_interval)
    client.start()
    return env, client, server, store


def run(env, generator):
    return env.run(until=env.process(generator))


def test_read_returns_image_runs():
    env, client, server, store = make_aoe()

    def proc():
        runs = yield from client.read_blocks(100, 64)
        return runs

    runs = run(env, proc())
    assert runs == [(100, 164, ("img", 0))]
    assert client.reads_completed == 1
    assert server.commands_served == 1


def test_completed_read_cancels_its_rto_timer():
    # Left pending, the spent retransmit timer would fire later as a
    # dead event.
    env, client, server, store = make_aoe()

    def proc():
        return (yield from client.read_blocks(100, 64))

    run(env, proc())
    events = env.events_processed
    assert env.peek() == float("inf")
    env.run()
    assert env.events_processed == events


def test_large_read_fragments_on_wire():
    env, client, server, store = make_aoe()
    sectors = 2048  # 1 MB

    def proc():
        runs = yield from client.read_blocks(0, sectors)
        return runs

    runs = run(env, proc())
    assert runs[0][2] == ("img", 0)
    assert server.fragments_sent == fragment_count(sectors, params.GBE_MTU)


def test_read_throughput_near_line_rate():
    """Bulk reads with jumbo frames should achieve most of gigabit."""
    env, client, server, store = make_aoe()
    total_mb = 64

    def proc():
        for block in range(total_mb):
            yield from client.read_blocks(block * 2048, 2048)

    run(env, proc())
    throughput = total_mb * 2**20 / env.now
    assert throughput > 80e6  # > 80 MB/s over GbE


def test_standard_mtu_slower_than_jumbo():
    def elapsed_for(mtu):
        env, client, server, store = make_aoe(mtu=mtu)

        def proc():
            for block in range(8):
                yield from client.read_blocks(block * 2048, 2048)

        run(env, proc())
        return env.now

    assert elapsed_for(1500) > elapsed_for(9000)


def test_retransmission_recovers_from_loss():
    env, client, server, store = make_aoe(loss=0.05, seed=3)

    def proc():
        for block in range(20):
            runs = yield from client.read_blocks(block * 1024, 1024)
            assert runs[0][2] == ("img", 0)

    run(env, proc())
    assert client.retransmissions > 0
    assert client.reads_completed == 20


def test_heavy_loss_eventually_gives_up():
    env, client, server, store = make_aoe(loss=0.95, seed=11)

    def proc():
        yield from client.read_blocks(0, 2048)

    with pytest.raises(AoeTimeoutError):
        run(env, proc())


def test_write_blocks_stores_on_server():
    env, client, server, store = make_aoe()

    def proc():
        yield from client.write_blocks(50, 10, [(50, 60, "written")])

    run(env, proc())
    assert store.contents.get(55) == "written"
    assert client.writes_completed == 1


def test_rtt_estimator_converges():
    env, client, server, store = make_aoe()

    def proc():
        for _ in range(30):
            yield from client.read_blocks(0, 17)

    run(env, proc())
    # One-fragment read over an idle switch: sub-millisecond RTT.
    assert 0 < client.srtt < 2e-3
    assert client.rto >= client.min_rto


def test_poll_interval_adds_latency():
    def mean_latency(poll_interval):
        env, client, server, store = make_aoe(poll_interval=poll_interval)
        samples = []

        def proc():
            for _ in range(10):
                start = env.now
                yield from client.read_blocks(0, 17)
                samples.append(env.now - start)

        run(env, proc())
        return sum(samples) / len(samples)

    fast = mean_latency(0.0)
    slow = mean_latency(1e-3)
    assert slow > fast
    assert slow - fast == pytest.approx(0.5e-3, rel=0.3)


def test_single_threaded_vblade_bottlenecks():
    """Stock vblade (1 worker) serves concurrent reads slower than the
    thread-pool version (paper 4.2)."""
    def elapsed_for(workers):
        env, client, server, store = make_aoe(workers=workers)
        procs = []

        def reader(base):
            for block in range(4):
                yield from client.read_blocks(base + block * 2048, 2048)

        for stream in range(6):
            procs.append(env.process(reader(stream * 100000)))
        env.run()
        return env.now

    single = elapsed_for(1)
    pooled = elapsed_for(8)
    assert single > pooled * 1.1


def test_server_stop_terminates_cleanly():
    env, client, server, store = make_aoe()

    def proc():
        yield from client.read_blocks(0, 17)

    run(env, proc())
    server.stop()
    client.stop()
    env.run()


# -- planned exchanges ---------------------------------------------------------------
#
# A command frame is a late one-frame train (see repro.net.train).  The
# reference is the stepped exchange: the command sent as a frame, its
# ``_sent`` at its send end.


class SteppedNic(Nic):
    """Sends every command as a frame, without a plan."""

    def start_command(self, *frame):
        self.start_send(*frame)


def exchange_run(nic_class, reads, loss=0.0, hit_ratio=0.5,
                 initial_rto=50e-3):
    """Reads ``(label, start, lba, sectors, bulk)`` from one initiator.
    Returns each read's runs and completion instant, the RTO deadlines
    armed (tag, deadline), the retransmissions and the final smoothed
    RTT, and whether each train started planned was a command."""
    from repro.aoe.client import _Transaction
    from repro.net.train import _FrameTrain
    env = Environment()
    switch = EthernetSwitch(env, loss=LossModel(loss, seed=3))
    image = IntervalMap()
    image.set_range(0, 1 << 16, "img")
    store = ImageStore(env, image, 1 << 16, cache_hit_ratio=hit_ratio)
    server = AoeServer(env, nic_class(env, switch, "server"), store,
                       workers=1)
    server.start()
    client = AoeInitiator(env, nic_class(env, switch, "vmm0"), "server",
                          initial_rto=initial_rto)
    seen = {"deadlines": [], "planned": []}
    arm = _Transaction._arm

    def recording_arm(transaction, start):
        arm(transaction, start)
        seen["deadlines"].append((transaction.command.tag,
                                  start + transaction.rtt.rto))

    start_train = _FrameTrain.__init__

    def counting_init(train, *args, **kwargs):
        start_train(train, *args, **kwargs)
        seen["planned"] += [train.late] if train.planned else []

    def read(label, start, lba, sectors, bulk):
        yield env.timeout(start)
        runs = yield from client.read_blocks(lba, sectors, bulk=bulk)
        seen[label] = (runs, env.now)

    for spec in reads:
        env.process(read(*spec))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Transaction, "_arm", recording_arm)
        patch.setattr(_FrameTrain, "__init__", counting_init)
        env.run()
    seen["retransmissions"] = client.retransmissions
    seen["srtt"] = client.rtt.srtt
    return seen


def exchanges_match(reads, **kwargs):
    """The planned run and the stepped one, checked equal but for the
    trains started planned (the stepped run plans no command)."""
    got = exchange_run(Nic, reads, **kwargs)
    reference = exchange_run(SteppedNic, reads, **kwargs)
    planned = got.pop("planned")
    assert not any(reference.pop("planned"))
    assert got == reference
    return got, planned


def test_rto_is_armed_with_the_estimate_at_the_send_end():
    # Read b's command leaves the sender half a forwarding latency
    # before read a's reply completes, and is delivered after it: a's
    # RTT sample must not reach b's RTO, which the stepped exchange
    # armed at b's send end.  b's read is a cache miss that outlasts
    # the RTO, so the command goes again at that deadline.
    ser = (params.AOE_HEADER_BYTES + params.ETH_FRAME_OVERHEAD) * 8.0 \
        / params.GBE_BITS_PER_SECOND
    probe = exchange_run(SteppedNic, [("a", 0.0, 0, 64, False)])
    replied = probe["a"][1]
    start = replied - ser - params.SWITCH_LATENCY_SECONDS / 2
    reads = [("a", 0.0, 0, 64, False), ("b", start, 4096, 256, False)]
    got, planned = exchanges_match(reads, initial_rto=2e-3)
    assert got["retransmissions"] == 1
    assert True in planned and False in planned
    # b's first RTO deadline: its send end plus the estimate before a's
    # sample.
    deadlines = [deadline for tag, deadline in got["deadlines"] if tag == 1]
    assert deadlines[0] == start + ser + RttEstimator(2e-3).rto


def test_reply_to_a_command_on_the_wire_finishes_at_its_send_end():
    # The RTO expires half a frame time before the reply completes, so
    # the reply comes while the retransmitted command is on the sending
    # port: the exchange finishes once that command has left, at its
    # send end, as it does stepped.
    ser = (params.AOE_HEADER_BYTES + params.ETH_FRAME_OVERHEAD) * 8.0 \
        / params.GBE_BITS_PER_SECOND
    reads = [("a", 0.0, 0, 2048, True)]
    replied = exchange_run(SteppedNic, reads)["a"][1]
    initial_rto = (replied - ser / 2 - ser) / 1.5
    got, planned = exchanges_match(reads, initial_rto=initial_rto)
    assert got["retransmissions"] == 1
    assert planned.count(True) == 2
    assert got["a"][1] == got["deadlines"][0][1] + ser


def test_lossy_run_retransmits_at_the_stepped_instants():
    # Nothing is planned on a lossy switch: the exchange is the stepped
    # one, retransmissions included.
    reads = [(f"r{k}", k * 2e-3, 512 * k, 64, k % 2 == 1)
             for k in range(6)]
    got, planned = exchanges_match(reads, loss=0.2)
    assert got["retransmissions"] > 0
    assert planned == []


@pytest.mark.parametrize("case", ["lossy", "fluid"])
def test_exchanges_that_never_plan(monkeypatch, case):
    # A lossy switch plans nothing; with a fluid flow network nothing
    # is planned either.
    from repro.net.train import _FrameTrain
    planned = []
    start_train = _FrameTrain.__init__

    def counting_init(train, *args, **kwargs):
        start_train(train, *args, **kwargs)
        planned.append(train.planned)

    monkeypatch.setattr(_FrameTrain, "__init__", counting_init)
    env = Environment()
    switch = EthernetSwitch(env, loss=LossModel(
        0.05 if case == "lossy" else 0.0, seed=5))
    if case == "fluid":
        assert switch.flow_network is not None
    client = AoeInitiator(env, Nic(env, switch, "vmm0"), "server")
    image = IntervalMap()
    image.set_range(0, 1 << 16, "img")
    server = AoeServer(env, Nic(env, switch, "server"),
                       ImageStore(env, image, 1 << 16))
    server.start()

    def reads():
        for k in range(4):
            runs = yield from client.read_blocks(64 * k, 64, bulk=k % 2)
            assert runs == [(64 * k, 64 * k + 64, "img")]

    env.run(until=env.process(reads()))
    assert server.commands_served == 4
    # Replies still go through trains; none plans, and no command
    # builds one.
    assert planned and not any(planned)

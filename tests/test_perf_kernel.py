"""The simulation kernel: same-instant order, lazy cancellation,
double-schedule diagnostics, and fetch coalescing.

Every event is one ``(time, priority, eid)`` entry on one heap: events
at one instant pop urgent first, then in the order they were
scheduled, and a cancelled entry is discarded where it surfaces.
"""

import pytest

from repro.guest.osimage import OsImage
from repro.sim import Environment, Event, SimulationError

MB = 2**20


# -- same-instant ordering ---------------------------------------------------

def _pop_order(env):
    """Names of events in pop order, via the trace hook."""
    order = []
    env.trace_hook = lambda now, event: order.append(
        (now, getattr(event, "name", None) or type(event).__name__))
    return order


def test_zero_delay_events_pop_fifo():
    env = Environment()
    order = []

    def note(tag):
        def callback(event):
            order.append(tag)
        return callback

    for tag in "abcde":
        timeout = env.timeout(0)
        timeout.callbacks.append(note(tag))
    env.run()
    assert order == list("abcde")


def test_urgent_lane_beats_normal_lane_at_same_time():
    env = Environment()
    order = []
    late = env.event()
    late.succeed()  # normal priority, scheduled first
    late.callbacks.append(lambda event: order.append("normal"))
    # Urgent scheduling is how interrupts jump the queue: trigger the
    # event by hand and schedule it at urgent priority.
    early = env.event()
    early._ok = True
    early._value = None
    env.schedule(early, priority=Environment.PRIORITY_URGENT)
    early.callbacks.append(lambda event: order.append("urgent"))
    env.run()
    assert order == ["urgent", "normal"]


def test_lane_and_heap_interleave_in_time_order():
    """A zero-delay chain must not starve or overtake timed events."""
    env = Environment()
    log = []

    def timed(delay, tag):
        yield env.timeout(delay)
        log.append((env.now, tag))

    def chain():
        for index in range(3):
            yield env.timeout(0)
            log.append((env.now, f"zero-{index}"))
        yield env.timeout(0.5)
        log.append((env.now, "after"))

    env.process(timed(0.0, "timed-0"))
    env.process(chain())
    env.process(timed(0.25, "timed-quarter"))
    env.run()
    assert log == [
        (0.0, "timed-0"), (0.0, "zero-0"), (0.0, "zero-1"),
        (0.0, "zero-2"), (0.25, "timed-quarter"), (0.5, "after"),
    ]


# -- lazy cancellation --------------------------------------------------------

def test_cancel_discards_event_without_trace():
    env = Environment()
    order = _pop_order(env)
    doomed = env.timeout(0)
    doomed.callbacks.append(lambda event: order.append("doomed-ran"))
    env.timeout(0)
    env.cancel(doomed)
    env.run()
    assert "doomed-ran" not in order
    assert len(order) == 1  # only the surviving timeout


def test_cancelled_head_does_not_stall_peek():
    env = Environment()
    doomed = env.timeout(1.0)
    env.timeout(2.0)
    env.cancel(doomed)
    # peek must prune the dead head, not report its time.
    assert env.peek() == 2.0


def test_run_until_time_skips_cancelled_head():
    env = Environment()
    fired = []
    doomed = env.timeout(1.0)
    keeper = env.timeout(3.0)
    keeper.callbacks.append(lambda event: fired.append(env.now))
    env.cancel(doomed)
    # A dead head at t=1 must not make run(until=2) process anything.
    env.run(until=2.0)
    assert env.now == 2.0
    assert fired == []
    env.run(until=4.0)
    assert fired == [3.0]


# -- double-processing diagnostics -------------------------------------------

def test_double_scheduled_event_raises_simulation_error():
    env = Environment()
    event = Event(env)
    event.succeed()
    env.schedule(event)  # the bug: a second queue entry, same event
    with pytest.raises(SimulationError, match="scheduled twice"):
        env.run()


def test_double_schedule_recoverable_via_cancel():
    env = Environment()
    event = Event(env)
    event.succeed()
    env.schedule(event)
    env.cancel(event)  # the documented fix for a duplicate entry
    env.run()
    assert event.processed


# -- transfer coalescing ------------------------------------------------------

def _deploy_counting_reads(policy):
    from repro.cloud.scenario import build_testbed
    from repro.vmm.bmcast import BmcastVmm

    image = OsImage(size_bytes=16 * MB, boot_read_bytes=2 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env
    vmm = BmcastVmm(env, node.machine, node.vmm_nic,
                    testbed.fabric,
                    image_sectors=image.total_sectors, policy=policy)

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    assert vmm.deployment.bitmap.complete
    return testbed.stores[0].reads, vmm.deployment.bitmap.block_count


def test_full_speed_deploy_coalesces_fetches():
    """Unmoderated deploys batch contiguous pristine runs: far fewer
    AoE commands than blocks."""
    from repro.vmm.moderation import FULL_SPEED

    reads, blocks = _deploy_counting_reads(FULL_SPEED)
    assert reads < blocks / 2, \
        f"{reads} server reads for {blocks} blocks — not coalescing"


def test_paced_deploy_keeps_per_block_pipeline():
    """Moderated policies must keep the exact pre-optimization
    per-block cadence (outage and interference behavior depend on it)."""
    from repro.vmm.moderation import ModerationPolicy

    policy = ModerationPolicy(write_interval=1e-3,
                              suspend_interval=0.0)
    reads, blocks = _deploy_counting_reads(policy)
    # One read per copied block, plus boot-path reads.
    assert reads >= blocks

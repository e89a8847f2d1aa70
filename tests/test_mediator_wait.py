"""The mediator's completion wait (``DeviceMediator._await``).

The VMM finds out that the device finished by polling every
``poll_interval`` with interrupts masked (paper 3.2-3.3).  The mediator
models that as a timeout to the loop's first tick and, if the device
is still busy there, one event planned by the controller's completion
notification on the tick where the loop would have noticed it.
These tests pin the figures that wait must reproduce, bound the events
it may cost, and check the re-check at the tick that keeps the VMM off
a device the guest made busy again.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.apps.fio import FioBenchmark
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.driver_ahci import AhciDriver
from repro.guest.driver_ide import IdeDriver
from repro.guest.osimage import OsImage
from repro.hw.machine import Machine, MachineSpec
from repro.sim import Environment, Notifier, SimulationError, Timeout
from repro.storage.ahci import AhciController
from repro.storage.blockdev import BlockOp, BlockRequest, SectorBuffer
from repro.storage.disk import Disk
from repro.storage.ide import IdeController
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.deploy import DeploymentContext
from repro.vmm.mediator import mediator_for

MB = 2**20
GB = 2**30
SECTORS_PER_MB = MB // 512


# -- figure pins ----------------------------------------------------------------


def pinned_deploy(controller: str) -> dict:
    """A 1 GiB BMcast deploy under default moderation, run to
    copy-complete, with one guest that writes (and reads back across
    still-empty blocks) while the copy runs."""
    image = OsImage(size_bytes=GB, boot_read_bytes=8 * MB,
                    boot_think_seconds=3.0)
    testbed = build_testbed(disk_controller=controller, image=image)
    provisioner = Provisioner(testbed)
    env = testbed.env
    poll = params.POLL_INTERVAL_SECONDS
    poll_timeouts = 0

    def hook(event, cause, fire_at):
        nonlocal poll_timeouts
        if type(event) is Timeout and \
                math.isclose(fire_at - env.now, poll, rel_tol=1e-9):
            poll_timeouts += 1

    env.schedule_hook = hook
    result = {}

    def scenario():
        instance = yield from provisioner.deploy("bmcast",
                                                 skip_firmware=True)
        vmm = instance.platform
        assert vmm.poll_interval == poll
        result["ready"] = instance.timeline.total
        for index in range(16):
            lba = (64 + index * 60) * SECTORS_PER_MB
            yield from instance.write(lba, SECTORS_PER_MB, f"w{index}")
            # Read back the written MiB and the (likely empty) MiB after
            # it: a redirect with a locally authoritative overlay.
            yield from instance.read(lba, 2 * SECTORS_PER_MB)
            yield env.timeout(0.25)
        yield vmm.copier.done
        result["complete"] = env.now
        yield env.timeout(1.0)
        result["phase"] = vmm.phase
        result["vm_exits"] = instance.machine.total_vm_exits()
        result["multiplexed_requests"] = vmm.mediator.multiplexed_requests
        result["queued_guest_commands"] = \
            vmm.mediator.queued_guest_commands
        result["redirected_reads"] = vmm.mediator.redirected_reads
        result["poll_timeouts"] = poll_timeouts
        result["verified"] = testbed.image.verify_deployed(
            testbed.nodes[0].disk.contents, instance.guest.written)

    env.run(until=env.process(scenario()))
    result.update(run_figures(testbed))
    return result


def run_figures(testbed) -> dict:
    """What a finished run left: its final instant and event count,
    every CPU's exits, the bus, disk, switch and server counters, and
    every node's disk."""
    nodes = testbed.nodes
    return {
        "now": testbed.env.now,
        "events": testbed.env.events_processed,
        "exits": [(dict(cpu.exit_counts), cpu.exit_seconds)
                  for node in nodes for cpu in node.machine.cpus],
        "bus": [(node.machine.bus.intercepted_accesses,
                 node.machine.bus.direct_accesses) for node in nodes],
        "disk": [(node.disk.requests_served, node.disk.busy_seconds,
                  node.disk.seek_seconds, node.disk.contents.runs())
                 for node in nodes],
        "switch_frames": testbed.switch.frames_forwarded,
        "servers": [(server.commands_served, server.fragments_sent)
                    for server in testbed.servers],
    }


#: Recorded on the poll-loop implementation (one timeout per 100 us tick)
#: that the completion wait replaced.  Every figure must stay equal.
PINNED = {
    "ahci": {"ready": 13.52221889403982, "complete": 36.13701801594541,
             "vm_exits": 296653, "multiplexed_requests": 1107,
             "queued_guest_commands": 12},
    "ide": {"ready": 13.547778894043393, "complete": 36.10421048856289,
            "vm_exits": 308994, "multiplexed_requests": 1107,
            "queued_guest_commands": 13},
    "megaraid": {"ready": 13.520250894039545,
                 "complete": 36.13504401594501, "vm_exits": 295574,
                 "multiplexed_requests": 1107, "queued_guest_commands": 12},
}


@pytest.mark.parametrize("controller", sorted(PINNED))
def test_completion_wait_keeps_deploy_figures(controller):
    result = pinned_deploy(controller)
    assert result["phase"] == "baremetal"
    assert result["verified"]
    assert result["redirected_reads"] > 0
    for name, expected in PINNED[controller].items():
        assert result[name] == expected, name
    # The poll loop took one timeout per tick (~106k here); the wait
    # takes one first-tick timeout per request, plus the few whose
    # grid-snapped delay happens to be a whole tick.
    assert result["poll_timeouts"] <= 3 * result["multiplexed_requests"]


# -- VM exits advanced in place -------------------------------------------------


def guest_io() -> dict:
    """A shrunken perfbench guest-io: from ready, 1 MiB cold reads the
    mediator redirects, then fio's layout, write and read passes."""
    image = OsImage(size_bytes=GB, boot_read_bytes=8 * MB,
                    boot_think_seconds=3.0)
    testbed = build_testbed(disk_controller="ahci", mtu=params.GBE_MTU,
                            image=image)
    provisioner = Provisioner(testbed)
    env = testbed.env
    result = {}

    def scenario():
        instance = yield from provisioner.deploy("bmcast",
                                                 skip_firmware=True)
        for lba in range(768 * SECTORS_PER_MB, 800 * SECTORS_PER_MB,
                         SECTORS_PER_MB):
            yield from instance.read(lba, SECTORS_PER_MB)
        fio = FioBenchmark(instance, file_lba=256 * SECTORS_PER_MB)
        fio.TOTAL_BYTES = 32 * MB
        yield from fio.layout()
        result["write_rate"] = yield from fio.write_throughput()
        result["read_rate"] = yield from fio.read_throughput()
        result["redirected_reads"] = instance.platform.mediator \
            .redirected_reads

    env.run(until=env.process(scenario()))
    result.update(run_figures(testbed))
    return result


@pytest.mark.parametrize("run", [
    *(pytest.param(lambda c=c: pinned_deploy(c), id=c)
      for c in sorted(PINNED)),
    pytest.param(guest_io, id="guest-io"),
])
def test_exits_in_place_change_only_the_event_count(run, monkeypatch):
    # ``Environment.elapse`` advances the clock in place only where its
    # timer would have been the next event: with every delay a timer
    # instead, each figure of the run must stay bit for bit.  (Advanced
    # in place past a queued entry, guest-io's figures move.)
    in_place = run()
    monkeypatch.setattr(Environment, "elapse", Environment.timeout)
    timed = run()
    assert in_place["redirected_reads"] > 0
    assert in_place.pop("events") < timed.pop("events")
    assert in_place == timed


# -- the busy-again race --------------------------------------------------------

GUEST_SECTORS = 4 * SECTORS_PER_MB
G1_LBA = 256 * SECTORS_PER_MB
G2_LBA = 512 * SECTORS_PER_MB
VMM_LBA = 8 * SECTORS_PER_MB
RACE_POLL = 1e-3


def mediated_machine(kind):
    """A machine whose disk is mediated but not deploying: the guest
    drives the controller through the mediator's intercepts."""
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller=kind))
    controller_class = {"ahci": AhciController, "ide": IdeController}[kind]
    controller = controller_class(env, Disk(env), machine)
    context = DeploymentContext(env, BlockBitmap(64 * SECTORS_PER_MB),
                                fetcher=None, poll_interval=RACE_POLL)
    mediator = mediator_for(env, machine, context)
    mediator.install()
    for cpu in machine.cpus:
        cpu.vmxon()
        cpu.vmenter()
    driver = {"ahci": AhciDriver, "ide": IdeDriver}[kind](machine)
    return env, controller, mediator, driver


@pytest.mark.parametrize("kind", ["ahci", "ide"])
def test_guest_command_at_completion_keeps_vmm_off_busy_device(kind):
    """The guest issues its next command at the instant the VMM's wait
    is told the device completed.  That command is still running at the
    tick the wait lands on, so the VMM must re-check there and keep
    waiting; taking the device would swallow the guest's completion."""
    env, controller, mediator, driver = mediated_machine(kind)
    seen = {}
    takeovers = []
    save_guest_registers = mediator._save_guest_registers

    def spy():
        takeovers.append((env.now, mediator._device_busy()))
        save_guest_registers()

    mediator._save_guest_registers = spy

    def vmm():
        yield env.timeout(5e-4)  # the guest's first write is running
        seen["anchor"] = env.now
        buffer = SectorBuffer(VMM_LBA, 8)
        buffer.fill_constant("vmm")
        yield from mediator.vmm_request(
            BlockRequest(BlockOp.WRITE, VMM_LBA, 8, buffer=buffer))

    def racer():
        yield controller.completion.wait()
        seen["first_completion"] = now = env.now
        second = env.process(driver.write(G2_LBA, GUEST_SECTORS, "g2"))
        tick = seen["anchor"] + RACE_POLL
        while tick < now:
            tick += RACE_POLL
        yield env.timeout(tick - now)
        seen["busy_at_tick"] = mediator._device_busy()
        yield second
        seen["second_done"] = env.now

    first = env.process(driver.write(G1_LBA, GUEST_SECTORS, "g1"))
    processes = [first, env.process(vmm()), env.process(racer())]
    stalled = False
    try:
        env.run(until=env.all_of(processes))
    except SimulationError:
        stalled = True

    # The race happened: the wait's tick found the guest's second
    # command on the device.
    assert seen["busy_at_tick"]
    # The VMM took the device once, idle, on its poll grid.
    assert len(takeovers) == 1
    taken_at, busy = takeovers[0]
    assert not busy
    tick = seen["anchor"]
    while tick < taken_at:
        tick += RACE_POLL
    assert tick == taken_at
    # The guest's command completed and nothing stalled.
    assert not stalled
    assert "second_done" in seen
    contents = controller.disk.contents
    assert list(contents.runs_in(G2_LBA, GUEST_SECTORS)) == [
        (G2_LBA, G2_LBA + GUEST_SECTORS, "g2")]
    assert list(contents.runs_in(VMM_LBA, 8)) == [
        (VMM_LBA, VMM_LBA + 8, "vmm")]


# -- one event per checked tick, against the poll loop -----------------------


def grid(start, ticks):
    """The poll loop's tick ``ticks`` polls after ``start``."""
    for _ in range(ticks):
        start += RACE_POLL
    return start


def device_wait(anchor, done_at, busy_again, reference):
    """A device busy from t = 0 completes at ``done_at``; with
    ``busy_again`` a guest command re-busies it at the first tick at or
    after that, for ``busy_again`` polls.  A VMM wait starts at
    ``anchor``: ``DeviceMediator._await``, or with ``reference`` a loop
    of poll timeouts.  Every device event is planned at t = 0, as a
    disk's service timer is planned when its command starts, so at a
    shared instant it comes before the loop's timer.  Returns the wait's
    return instant and the events that woke it."""
    env, _, mediator, _ = mediated_machine("ahci")
    completion = Notifier(env)
    device = {"busy": True}

    def complete(_timer):
        device["busy"] = False
        completion.notify()

    def rebusy(_timer):
        device["busy"] = True

    env.timeout_at(done_at).callbacks.append(complete)
    if busy_again:
        at = anchor
        while at < done_at:
            at += RACE_POLL
        env.timeout_at(at).callbacks.append(rebusy)
        env.timeout_at(grid(at, busy_again) + RACE_POLL / 3).callbacks.append(
            complete)

    def idle():
        return not device["busy"]

    def loop():
        while not idle():
            yield env.timeout(RACE_POLL)

    wakes = []

    def count_wakes(_now, event):
        if event is process.target:
            wakes.append(event)

    def vmm():
        yield env.timeout_at(anchor)
        env.trace_hook = count_wakes
        yield from (loop() if reference else mediator._await(idle,
                                                             completion))
        env.trace_hook = None
        return env.now

    process = env.process(vmm())
    return env.run(until=process), len(wakes)


@settings(max_examples=60, deadline=None)
@given(anchor=st.floats(0.0, 3e-3),
       ticks=st.integers(0, 4),
       offset=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(1e-3, 0.999),
       busy_again=st.sampled_from([0, 1, 3]))
def test_await_returns_on_the_poll_loops_tick(anchor, ticks, offset,
                                              busy_again):
    """Completion before the first tick, exactly on a tick, or with the
    guest busying the device again at the tick: ``_await`` returns at
    the poll loop's instant bit for bit, taking one event per tick at
    which it checks the device: the first tick, the tick after the
    completion if that is a later one, and one more when it finds the
    device busy again.  The loop takes one per tick."""
    if ticks == 0 and offset == 0.0:
        offset = 0.5   # a completion at the call instant needs no wait
    done_at = grid(anchor, ticks) + offset * RACE_POLL
    returned, wakes = device_wait(anchor, done_at, busy_again,
                                  reference=False)
    expected, loop_ticks = device_wait(anchor, done_at, busy_again,
                                       reference=True)
    assert returned == expected
    first_tick = grid(anchor, 1)
    assert wakes == ((1 if done_at <= first_tick else 2)
                     + (1 if busy_again else 0))
    assert loop_ticks >= wakes

"""The background copier's idle waits.

An idle retriever or writer used to poll every ``IDLE_POLL_SECONDS``
with one timeout per tick.  It now waits on ``deployment.copy_work`` and
wakes once, at the tick at which that loop would have found work.  Each
scenario runs against ``PollingCopier``, the copier with its idle loops
as they were, and must reproduce its bitmap transitions and ``done``
instant bit for bit, on both schedulers.
"""

import pytest

from repro import params
from repro.aoe.client import AoeTimeoutError
from repro.cloud.scenario import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.sim import Environment
from repro.vmm.bitmap import BlockState
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.copier import BackgroundCopier
from repro.vmm.moderation import FULL_SPEED

MB = 2**20
BLOCK_SECTORS = params.COPY_BLOCK_BYTES // params.SECTOR_BYTES
#: The last run of a 16 MiB image, claimed by a second fetcher.
FOREIGN = (12, 4)


class PollingCopier(BackgroundCopier):
    """The copier whose idle threads take one timeout per tick."""

    def _idle(self, has_work):
        yield self.env.timeout(self.IDLE_POLL_SECONDS)


def boot(copier_class, fast_lane):
    """A 16 MiB AHCI deploy at full speed, its VMM booting: the
    testbed, the VMM, the guest and the log of bitmap transitions."""
    image = OsImage(size_bytes=16 * MB, boot_read_bytes=4 * MB,
                    boot_think_seconds=2.0)
    testbed = build_testbed(disk_controller="ahci", image=image,
                            env=Environment(fast_lane=fast_lane))
    env, node = testbed.env, testbed.node
    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                    image_sectors=image.total_sectors, policy=FULL_SPEED)
    if copier_class is not BackgroundCopier:
        vmm.copier = copier_class(env, vmm.deployment, vmm.mediator,
                                  vmm.fluid, policy=FULL_SPEED)
    log = []
    vmm.bitmap.transition_listeners.append(
        lambda event, block, **details: log.append(
            (env.now, event, block, details.get("granted"))))
    return testbed, vmm, GuestOs(node.machine, image), log


def start(testbed, vmm):
    """Generator: power on, network-boot and boot the VMM."""
    yield from testbed.node.machine.power_on()
    yield from testbed.node.machine.firmware.network_boot()
    yield from vmm.boot()


def guest_fills_the_image(copier_class, fast_lane):
    """The server is down, so the retriever is stuck retrying its first
    fetch and the writer idles; then the guest writes the whole image,
    its last block included."""
    testbed, vmm, guest, log = boot(copier_class, fast_lane)
    env = testbed.env
    testbed.servers[0].stop()

    def scenario():
        yield from start(testbed, vmm)
        yield env.timeout(0.3)
        yield from guest.write(0, vmm.bitmap.image_sectors, tag="guest")
        return (yield vmm.copier.done)

    done_at = env.run(until=env.process(scenario()))
    return done_at, log, vmm.copier.blocks_filled


@pytest.mark.parametrize("fast_lane", [True, False])
def test_guest_filling_the_last_block_wakes_the_idle_writer_on_its_tick(
        fast_lane):
    done_at, log, filled = guest_fills_the_image(BackgroundCopier,
                                                 fast_lane)
    expected = guest_fills_the_image(PollingCopier, fast_lane)
    assert filled == 0
    assert (done_at, log, filled) == expected
    # The guest's write came after the writer went idle: done waited
    # for the writer's tick after the last fill.
    last_fill = max(at for at, event, _, _ in log if event == "guest-fill")
    assert last_fill < done_at < last_fill + BackgroundCopier.IDLE_POLL_SECONDS


def released_run(copier_class, fast_lane, stop=None):
    """A second fetcher holds the image's last run; the copier copies
    the rest and idles.  The second fetcher then loses the server, its
    fetch fails, and it releases the run (the server back up) for the
    idle retriever to re-claim.  With ``stop`` ("retriever" or
    "writer") the copier is stopped instead, at the instant that thread
    has a wake-up planned."""
    testbed, vmm, guest, log = boot(copier_class, fast_lane)
    env = testbed.env
    bitmap, copier, server = vmm.bitmap, vmm.copier, testbed.servers[0]
    seen = {}

    def scenario():
        yield from start(testbed, vmm)
        assert bitmap.claim_run(*FOREIGN) == FOREIGN[1]
        yield env.timeout(1.0)
        seen["idle"] = (bitmap.filled_count, len(copier.fifo.items))
        if stop == "writer":
            # A write-back queued for the idle writer plans its wake.
            vmm.deployment.enqueue_writeback(0, 8, [(0, 8, "cor")])
            process = copier._writer
        else:
            server.stop()
            first, count = FOREIGN
            try:
                yield from vmm.deployment.fetcher.read_blocks(
                    first * BLOCK_SECTORS, count * BLOCK_SECTORS,
                    bulk=True)
            except AoeTimeoutError:
                seen["fetch_error_at"] = env.now
            server.start()
            bitmap.release_run(*FOREIGN)
            process = copier._retriever
        if stop is None:
            return (yield copier.done)
        wake = process.target
        seen["planned"] = wake.triggered and not wake.processed
        copier.stop()
        seen["stopped_at"] = env.now
        yield env.timeout(1.0)
        seen["polls_left"] = len(vmm.deployment.copy_work._polls)
        seen["wake_processed"] = wake.processed
        seen["states"] = [state for _, _, state in
                          bitmap.state_runs(0, bitmap.block_count)]
        return None

    done_at = env.run(until=env.process(scenario()))
    return done_at, log, seen


@pytest.mark.parametrize("fast_lane", [True, False])
def test_idle_retriever_reclaims_a_released_run_on_its_tick(fast_lane):
    done_at, log, seen = released_run(BackgroundCopier, fast_lane)
    assert seen["idle"] == (12, 0)
    assert "fetch_error_at" in seen
    assert (done_at, log) == released_run(PollingCopier, fast_lane)[:2]
    released = max(at for at, event, _, _ in log if event == "release")
    reclaimed = [at for at, event, block, granted in log
                 if event == "claim" and granted and block == FOREIGN[0]]
    assert released < reclaimed[-1] \
        <= released + BackgroundCopier.IDLE_POLL_SECONDS


@pytest.mark.parametrize("fast_lane", [True, False])
@pytest.mark.parametrize("thread", ["retriever", "writer"])
def test_stopping_an_idle_thread_leaves_no_wake_and_no_hook(thread,
                                                            fast_lane):
    _, log, seen = released_run(BackgroundCopier, fast_lane, stop=thread)
    assert seen["idle"] == (12, 0)
    assert seen["planned"]
    assert seen["polls_left"] == 0
    assert not seen["wake_processed"]
    # Nothing was claimed after the stop: the released run stays EMPTY
    # (or, for the writer, still held by the second fetcher).
    assert seen["states"][-1] is (BlockState.EMPTY if thread == "retriever"
                                  else BlockState.COPYING)
    assert all(at < seen["stopped_at"] for at, event, _, granted in log
               if event == "claim" and granted)

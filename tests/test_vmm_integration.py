"""Integration tests: BMcast deploying a guest end to end.

Small images keep these fast; the benchmarks use paper-scale ones.
"""

import pytest

from repro import params
from repro.analysis import SanitizerSuite
from repro.cloud.scenario import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.hw.cpu import VmxMode
from repro.sim import Environment
from repro.storage.blockdev import BlockOp
from repro.vmm.bitmap import BlockState
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.mediator import MediatorMode
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy, \
    interval_sweep_policy

MB = 2**20
SECTORS_PER_MB = MB // params.SECTOR_BYTES


def small_image(size_mb=64, boot_mb=4):
    return OsImage(size_bytes=size_mb * MB,
                   boot_read_bytes=boot_mb * MB,
                   boot_think_seconds=2.0)


def make_deployment(controller="ahci", size_mb=64, policy=FULL_SPEED,
                    **testbed_kwargs):
    testbed = build_testbed(disk_controller=controller,
                            image=small_image(size_mb),
                            **testbed_kwargs)
    node = testbed.node
    vmm = BmcastVmm(testbed.env, node.machine, node.vmm_nic,
                    testbed.fabric,
                    image_sectors=testbed.image.total_sectors,
                    policy=policy)
    guest = GuestOs(node.machine, testbed.image)
    return testbed, vmm, guest


def deploy_and_boot(testbed, vmm, guest):
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        boot_seconds = yield from guest.boot()
        return boot_seconds

    return env.run(until=env.process(scenario()))


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_guest_boots_on_empty_disk_via_copy_on_read(controller):
    testbed, vmm, guest = make_deployment(controller)
    boot_seconds = deploy_and_boot(testbed, vmm, guest)
    assert guest.booted
    assert boot_seconds > 0
    # Every boot read of the empty disk had to be redirected (or landed
    # on freshly copied blocks).
    assert vmm.mediator.redirected_reads > 0
    assert vmm.deployment.redirected_bytes > 0
    assert vmm.phase in ("deployment", "baremetal")


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_boot_reads_return_image_data(controller):
    testbed, vmm, guest = make_deployment(controller)
    env = testbed.env
    results = {}

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        buffer = yield from guest.read(100, 64)
        results["runs"] = buffer.runs

    env.run(until=env.process(scenario()))
    # The disk was empty; the data must match the image's tokens.
    assert results["runs"] == [(100, 164, (testbed.image.name, 0))]


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_full_deployment_fills_disk_and_devirtualizes(controller):
    testbed, vmm, guest = make_deployment(controller, size_mb=32)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)  # let de-virtualization finish
    assert vmm.phase == "baremetal"
    assert vmm.bitmap.complete
    # The local disk now holds the image.
    assert testbed.image.verify_deployed(testbed.node.disk.contents,
                                         guest.written)
    # De-virtualization is total: no intercepts, VMX off, no nested
    # paging, bare-metal condition.
    machine = testbed.node.machine
    assert not machine.bus.has_intercepts
    for cpu in machine.cpus:
        assert cpu.mode is VmxMode.OFF
        assert not cpu.npt.enabled
    assert machine.condition.label == "bmcast-devirt"
    assert machine.condition.nested_paging is False


def test_guest_writes_during_deployment_preserved():
    """The paper's consistency race: guest writes must survive the
    background copy."""
    testbed, vmm, guest = make_deployment("ahci", size_mb=32)
    env = testbed.env
    write_lba = 5 * SECTORS_PER_MB + 17  # mid-block, partial

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        # Write while the copier races over the same region.
        for i in range(20):
            yield from guest.write(write_lba + i * 64, 32, tag=f"w{i}")
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    disk = testbed.node.disk.contents
    for i in range(20):
        token = disk.get(write_lba + i * 64)
        # Guest data, not image data: image tokens are (name, index).
        assert token == (guest.name, f"w{i}", i + 1)
    assert testbed.image.verify_deployed(disk, guest.written)


def test_full_block_guest_write_skips_copy():
    testbed, vmm, guest = make_deployment(
        "ahci", size_mb=32,
        policy=ModerationPolicy(write_interval=50e-3))
    env = testbed.env
    block_sectors = vmm.bitmap.block_sectors
    target_block = 20
    lba = target_block * block_sectors

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.write(lba, block_sectors, tag="full-block")
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    disk = testbed.node.disk.contents
    token = disk.get(lba + 100)
    assert token[0] == guest.name
    assert vmm.bitmap.complete


@pytest.mark.parametrize("overwritten, requests_issued", [(4, 0), (3, 1)])
def test_write_run_skips_runs_the_guest_overwrote(overwritten,
                                                   requests_issued):
    """A fetched 4-block run lands through one mediated write unless the
    guest fully overwrote every block of it during the fetch: then
    nothing is left to write and no request is issued at all."""
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    bitmap = vmm.bitmap
    block_sectors = bitmap.block_sectors
    assert bitmap.claim_run(0, 4) == 4
    bitmap.record_guest_write(0, overwritten * block_sectors)
    requests = []

    def recording_request(request, revalidate=None):
        requests.append(request)
        request.buffer.runs = revalidate(request)
        yield env.timeout(0)

    vmm.mediator.vmm_request = recording_request
    runs = [(0, 4 * block_sectors, "image")]
    env.run(until=env.process(vmm.copier._write_run(0, 4, runs)))
    assert len(requests) == requests_issued
    assert vmm.copier.blocks_filled == 4 - overwritten
    assert vmm.copier.bytes_written \
        == (4 - overwritten) * block_sectors * params.SECTOR_BYTES
    assert all(bitmap.is_filled(block) for block in range(4))


@pytest.mark.parametrize("overwritten", [0, 3])
def test_write_run_raises_when_its_claim_was_released(overwritten):
    """A block gone back to EMPTY under the copier's claim is a protocol
    bug, not a guest overwrite: the run is not dropped silently, even
    when no block of it is still COPYING."""
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    bitmap = vmm.bitmap
    block_sectors = bitmap.block_sectors
    assert bitmap.claim_run(0, 4) == 4
    bitmap.record_guest_write(0, overwritten * block_sectors)
    bitmap.release_run(overwritten, 4 - overwritten)
    runs = [(0, 4 * block_sectors, "image")]
    with pytest.raises(RuntimeError, match="lost its claim"):
        env.run(until=env.process(vmm.copier._write_run(0, 4, runs)))


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_multiplexing_queues_and_replays_guest_commands(controller):
    testbed, vmm, guest = make_deployment(controller, size_mb=64)
    env = testbed.env
    reads = []

    def guest_io():
        # Hammer the disk while the copier multiplexes its writes.
        for i in range(60):
            buffer = yield from guest.read(i * 128, 64)
            reads.append(buffer.runs)
            yield env.timeout(2e-3)

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest_io()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    assert vmm.mediator.multiplexed_requests > 0
    # Every read must have produced correct image data regardless of
    # queueing/replay.
    for runs in reads:
        for start, end, token in runs:
            assert token == (testbed.image.name, 0)
    assert testbed.image.verify_deployed(testbed.node.disk.contents,
                                         guest.written)


def read_across_the_image_end(controller, queued):
    """Boot a VMM (copier stopped), save the bitmap, and read from the
    last image block into the bitmap-save region.  With ``queued`` the
    read is issued while the bitmap save owns the device, so the
    mediator absorbs it and decides on replay."""
    testbed, vmm, guest = make_deployment(controller, size_mb=16)
    env = testbed.env
    mediator = vmm.mediator
    lba = vmm.bitmap.image_sectors - 8
    result = {}

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        vmm.copier.stop()
        save = env.process(vmm.persist_bitmap())
        if queued:
            for _ in range(8):
                if mediator.mode is MediatorMode.VMM_OWNED:
                    break
                yield env.timeout(0)
            assert mediator.mode is MediatorMode.VMM_OWNED
        else:
            yield save
        buffer = yield from guest.read(lba, 32)
        yield save
        result["runs"] = buffer.runs
        result["redirected_reads"] = mediator.redirected_reads
        result["queued"] = mediator.queued_guest_commands
        result["writeback"] = [
            (start, count) for start, count, _ in
            vmm.deployment.writeback_queue]

    env.run(until=env.process(scenario()))
    protected = vmm.deployment.protected_lba
    result["saved_bitmap"] = testbed.node.disk.contents.get(protected)[0]
    return lba, result


def copying_blocks(bitmap):
    return sum(end - start for start, end, state
               in bitmap.state_runs(0, bitmap.block_count)
               if state is BlockState.COPYING)


def stop_and_restart_copier(policy, run_for, restart_after=None,
                            guest_write=None):
    """Boot a VMM over a 16 MiB AHCI deploy with every deployment
    sanitizer attached, let the copier run ``run_for`` seconds
    (``None``: stop it at the instant ``boot()`` returns, before its
    processes have taken a step), and stop it.  ``guest_write``, an
    ``(lba, sectors)`` pair, is written by the guest right after the
    stop.  The copier restarts ``restart_after`` seconds after the stop,
    or, when that is ``None``, once the mediator is quiescent and 5 s
    more; it then gets 60 s to complete the image.  Returns what the
    copier held at the stop, what was left once the mediator was
    quiescent, and whether the restarted copier deployed the image."""
    testbed, vmm, guest = make_deployment("ahci", size_mb=16, policy=policy)
    env = testbed.env
    copier, bitmap = vmm.copier, vmm.bitmap
    disk = testbed.node.disk.contents
    suite = SanitizerSuite(env).attach_deployment(vmm, image=testbed.image)
    seen = {}

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        if run_for is not None:
            yield env.timeout(run_for)
        seen["held"] = copying_blocks(bitmap)
        seen["queued"] = len(copier.fifo.items)
        seen["writing"] = vmm.mediator.mode is MediatorMode.VMM_OWNED
        copier.stop()
        assert not copier.running
        if guest_write is not None:
            env.process(guest.write(*guest_write, tag="after-stop"))
        if restart_after is not None:
            yield env.timeout(restart_after)
        else:
            yield env.timeout(1e-3)
            while not vmm.mediator.quiescent:
                yield env.timeout(1e-3)
            seen["claimed_when_quiescent"] = copying_blocks(bitmap)
            seen["filled"] = copier.blocks_filled
            # Every filled block's image data is on the disk by now.
            seen["filled_on_disk"] = all(
                disk.get(start * bitmap.block_sectors) is not None
                for start, _, _ in bitmap.filled_runs())
            yield env.timeout(5.0)
            seen["claimed_after"] = copying_blocks(bitmap)
            seen["complete"] = bitmap.complete
        # Bounded: a claim left behind would idle the copier forever.
        yield env.any_of([copier.start(), env.timeout(60.0)])

    env.run(until=env.process(scenario()))
    seen["restarted_deploys_image"] = bitmap.complete and \
        testbed.image.verify_deployed(disk, guest.written)
    if guest_write is not None:
        lba, sectors = guest_write
        # Image tokens are (name, index); the guest's carry its tag.
        seen["guest_data_kept"] = all(
            token is not None and token[1] == "after-stop"
            for _, _, token in disk.runs_in(lba, sectors))
    suite.assert_clean()
    return seen


def test_copier_stops_at_the_instant_it_started():
    """Stopping the copier right after the VMM boot, before its
    processes have taken a step, stops it there: nothing is copied, the
    run its retriever claimed on the way is handed back, and a
    restarted copier completes the image."""
    seen = stop_and_restart_copier(FULL_SPEED, None)
    assert seen["held"] == seen["filled"] == 0
    assert not seen["complete"]
    assert seen["claimed_when_quiescent"] == seen["claimed_after"] == 0
    assert seen["restarted_deploys_image"]


def test_copier_stopped_mid_fetch_hands_back_its_run():
    seen = stop_and_restart_copier(FULL_SPEED, 0.04)
    assert (seen["held"], seen["queued"], seen["writing"]) == (8, 0, False)
    assert seen["claimed_when_quiescent"] == seen["claimed_after"] == 0
    assert seen["filled"] == 0
    assert seen["restarted_deploys_image"]


def test_copier_stopped_mid_write_lands_the_write_and_hands_back_the_fetch():
    """One run is being written under VMM ownership while the next is
    being fetched.  The write is not cut off: by the time the mediator
    is quiescent it has landed and its run is FILLED, and the run being
    fetched is back to EMPTY."""
    seen = stop_and_restart_copier(FULL_SPEED, 0.12)
    assert (seen["held"], seen["queued"], seen["writing"]) == (16, 0, True)
    assert seen["claimed_when_quiescent"] == seen["claimed_after"] == 0
    assert seen["filled"] == 8
    assert seen["filled_on_disk"]
    assert seen["restarted_deploys_image"]


def test_copier_restarted_while_its_stopped_write_is_on_the_device():
    """Restart 10 ms after a mid-write stop, well before the 8 MiB
    write in flight lands, with a guest write into that run issued at
    the stop: the guest write waits for the VMM's (it is replayed
    after), the old writer exits once its write is committed, and the
    new copier completes the image around it without a race."""
    seen = stop_and_restart_copier(
        FULL_SPEED, 0.12, restart_after=0.01, guest_write=(17, 32))
    assert seen["writing"]
    assert seen["guest_data_kept"]
    assert seen["restarted_deploys_image"]


def test_copier_stopped_with_a_full_fifo_hands_back_every_run():
    """A paced writer waiting to land one block, four blocks queued and
    the retriever waiting for FIFO room with a sixth: all six go back
    to EMPTY, and the waiting put never reaches the restarted copier."""
    seen = stop_and_restart_copier(interval_sweep_policy(1.0), 0.5)
    assert (seen["held"], seen["queued"], seen["writing"]) == (6, 4, False)
    assert seen["claimed_when_quiescent"] == seen["claimed_after"] == 0
    assert seen["filled"] == 0
    assert seen["restarted_deploys_image"]


@pytest.mark.parametrize("controller", ["ide", "ahci", "megaraid"])
def test_replayed_read_matches_a_fresh_one(controller):
    """A guest read absorbed during VMM ownership is decided on replay
    exactly as when issued fresh: one that misses the image and
    overlaps the bitmap-save region is protected (dummy data, no
    redirect, no write-back over the saved bitmap) both times."""
    lba, fresh = read_across_the_image_end(controller, queued=False)
    _, replayed = read_across_the_image_end(controller, queued=True)
    assert (fresh["queued"], replayed["queued"]) == (0, 1)
    assert fresh["runs"] == [(lba, lba + 32, None)]
    assert replayed["runs"] == fresh["runs"]
    assert replayed["redirected_reads"] == fresh["redirected_reads"] == 0
    assert replayed["writeback"] == fresh["writeback"] == []
    assert replayed["saved_bitmap"] == fresh["saved_bitmap"] \
        == BmcastVmm.BITMAP_TOKEN


def test_interrupts_from_vmm_requests_hidden_from_guest():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    machine = testbed.node.machine

    def scenario():
        yield from machine.power_on()
        yield from machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    # The copier multiplexed many requests, yet none of their
    # completions ever reached the guest: the AHCI mediator silences the
    # port (PxIE) so the HBA does not even assert the line, and nothing
    # is left pending to fire later.
    line = vmm.mediator.irq_line
    assert vmm.mediator.multiplexed_requests > 0
    assert machine.interrupts.delivered[line] == 0
    assert not machine.interrupts.is_pending(line)


def test_deployment_summary_reports():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    summary = vmm.summary()
    assert summary["phase"] == "baremetal"
    assert summary["blocks_filled"] > 0
    assert summary["interpreted_commands"] > 0
    assert summary["total_vm_exits"] > 0
    assert summary["deployment_seconds"] > 0


def test_hand_built_vmm_fetches_through_the_fabric():
    """A VMM built without a Provisioner routes every image fetch, copy
    and copy-on-read alike, through its FetchRouter."""
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield from guest.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    assert vmm.deployment.fetcher is vmm.router
    assert vmm.router.origin_fetches > 0
    assert vmm.router.origin_fetches == vmm.initiator.reads_completed
    summary = vmm.summary()
    assert summary["origin_fetches"] == vmm.router.origin_fetches
    assert summary["peer_hits"] == 0
    assert summary["replica_load"] == {"server": vmm.router.origin_fetches}


def test_protected_bitmap_region_invisible_to_guest():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    protected = vmm.deployment.protected_lba
    results = {}

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        # Guest tries to read and write the VMM's bitmap region.
        yield from guest.write(protected, 8, tag="attack")
        buffer = yield from guest.read(protected, 8)
        results["runs"] = buffer.runs

    env.run(until=env.process(scenario()))
    # The write was dropped, the read returned dummy data.
    assert testbed.node.disk.contents.get(protected) is None
    assert results["runs"] == [(protected, protected + 8, None)]


def test_phase_log_is_ordered():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env

    def scenario():
        yield from testbed.node.machine.power_on()
        yield from testbed.node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    phases = [phase for _, phase in vmm.phase_log]
    assert phases == ["off", "initialization", "deployment",
                      "devirtualization", "baremetal"]
    stamps = [stamp for stamp, _ in vmm.phase_log]
    assert stamps == sorted(stamps)


def test_guest_io_pass_through_after_devirt_is_free_of_exits():
    testbed, vmm, guest = make_deployment("ahci", size_mb=16)
    env = testbed.env
    machine = testbed.node.machine
    counters = {}

    def scenario():
        yield from machine.power_on()
        yield from machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done
        yield env.timeout(5.0)
        counters["exits_before"] = machine.total_vm_exits()
        for i in range(20):
            yield from guest.read(i * 64, 64)
        counters["exits_after"] = machine.total_vm_exits()

    env.run(until=env.process(scenario()))
    assert vmm.phase == "baremetal"
    assert counters["exits_after"] == counters["exits_before"]

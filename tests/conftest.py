"""Shared fixtures: sanitized deployments (repro.analysis).

``sanitized_cluster`` deploys a BMcast fleet with every runtime
sanitizer attached, so key scenarios run under the full invariant
check by default (ISSUE 3's "pytest fixture that runs key scenarios
sanitized").  ``racing_deploy`` races guest writes against a
full-speed copier, optionally one with the atomic check ripped out.
"""

import pytest

from repro.analysis import SanitizerSuite
from repro.cloud import Cluster, build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.copier import BackgroundCopier
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


@pytest.fixture
def sanitized_cluster():
    """Factory: deploy ``node_count`` BMcast nodes fully sanitized.

    Returns ``(testbed, cluster, suite)`` after the deployment (and,
    with ``wait=True``, the background copy) has finished.  The suite
    is *not* finalized — tests inspect or ``assert_clean()`` it.
    """

    def run(node_count=1, image_mb=32, wait=True, policy=FULL_SPEED,
            **testbed_kwargs):
        image = OsImage(size_bytes=image_mb * MB,
                        boot_read_bytes=min(2 * MB, image_mb * MB // 4),
                        boot_think_seconds=0.5)
        testbed = build_testbed(node_count=node_count, image=image,
                                **testbed_kwargs)
        suite = SanitizerSuite(testbed.env)
        cluster = Cluster(testbed)

        def scenario():
            yield from cluster.deploy_all("bmcast", policy=policy,
                                          sanitizers=suite)
            if wait:
                yield from cluster.wait_deployment_complete(
                    settle_seconds=1.0)

        testbed.env.run(until=testbed.env.process(scenario()))
        return testbed, cluster, suite

    return run


class UncheckedCopier(BackgroundCopier):
    """A copier with the paper's atomic check ripped out.

    Every block the copier lands goes through ``_write_run``; this one
    writes exactly what was fetched, even over sectors the guest has
    written since.
    """

    def _write_run(self, first_block, block_count, runs):
        bitmap = self.deployment.bitmap
        start = first_block * bitmap.block_sectors
        count = min(block_count * bitmap.block_sectors,
                    bitmap.image_sectors - start)
        request = BlockRequest(BlockOp.WRITE, start, count, origin="vmm")
        request.buffer.runs = list(runs)
        # No revalidate: whatever was fetched gets written.
        yield from self.mediator.vmm_request(request)
        for block in range(first_block, first_block + block_count):
            try:
                bitmap.commit_fill_run(block, 1)
                self.blocks_filled += 1
            except ValueError:
                pass


@pytest.fixture
def racing_deploy():
    """Factory: guest writes racing a full-speed copier on one node.

    ``run(unchecked=False, sanitize=False)`` swaps in
    :class:`UncheckedCopier` when ``unchecked`` and attaches a finalized
    :class:`SanitizerSuite` when ``sanitize``.  Returns ``(lost, suite)``
    where ``lost`` lists the guest writes whose tokens no longer sit on
    disk and ``suite`` is None unless sanitized.
    """

    def run(unchecked=False, sanitize=False):
        image = OsImage(size_bytes=24 * MB, boot_read_bytes=1 * MB,
                        boot_think_seconds=0.2)
        testbed = build_testbed(image=image)
        node = testbed.node
        env = testbed.env
        vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                        image_sectors=image.total_sectors,
                        policy=FULL_SPEED)
        if unchecked:
            # Swap in the broken copier before anything starts.
            vmm.copier = UncheckedCopier(env, vmm.deployment, vmm.mediator,
                                         policy=FULL_SPEED,
                                         fluid_state=vmm.fluid)
        suite = None
        if sanitize:
            suite = SanitizerSuite(env)
            suite.attach_deployment(vmm, image=image)  # after the swap
        guest = GuestOs(node.machine, image)
        writes = {}

        def scenario():
            yield from node.machine.power_on()
            yield from node.machine.firmware.network_boot()
            yield from vmm.boot()
            # Race writes against the full-speed copy across many blocks.
            for index in range(24):
                lba = index * 2048 + 7  # mid-block, partial
                token = ("race", index)
                yield from guest.driver.write(lba, 16, token)
                guest.written.set_range(lba, 16, True)
                writes[lba] = token
                yield env.timeout(5e-3)
            yield vmm.copier.done

        env.run(until=env.process(scenario()))
        env.run(until=env.now + 5.0)
        disk = node.disk.contents
        lost = [lba for lba, token in writes.items()
                if disk.get(lba) != token]
        if suite is not None:
            suite.finalize()
        return lost, suite

    return run

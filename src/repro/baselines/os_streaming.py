"""OS streaming deployment baseline [24] (paper 2).

The same idea as BMcast — network boot, then stream the image to the
local disk in the background — but implemented *inside the guest OS* with
a special driver: no VMM, so no exit costs, but it is **not
OS-transparent**: it only works for OSs the provider has ported the
streaming driver to (the crucial limitation the paper's design removes).
"""

from __future__ import annotations

from repro import params
from repro.aoe.client import AoeInitiator
from repro.guest.osimage import OsImage
from repro.sim import Environment, Interrupt
from repro.storage.blockdev import BlockOp, BlockRequest, clip_runs
from repro.util.intervalmap import IntervalMap
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.moderation import ModerationPolicy


class StreamingOsInstance:
    """A guest with an in-kernel streaming-deployment driver.

    Tracks the supported-OS list explicitly: deploying any other OS
    raises, which is the transparency failure mode image copy and BMcast
    do not have.
    """

    SUPPORTED_OS = ("ubuntu-14.04", "centos-6.5")

    def __init__(self, env: Environment, node, server: str,
                 image: OsImage,
                 policy: ModerationPolicy | None = None):
        if image.name not in self.SUPPORTED_OS:
            raise OsNotSupportedError(
                f"streaming driver has no port for {image.name!r}; "
                f"supported: {', '.join(self.SUPPORTED_OS)}")
        self.env = env
        self.node = node
        self.image = image
        self.policy = policy or ModerationPolicy()
        self.initiator = AoeInitiator(env, node.guest_nic, server)
        self.bitmap = BlockBitmap(image.total_sectors)
        self.written = IntervalMap()
        self._write_counter = 0
        self._copier = None
        self.done = env.event()
        self.booted = False

    # -- startup -----------------------------------------------------------------

    def boot(self):
        """Generator: network boot with the streaming driver active."""
        yield from self.node.machine.firmware.network_boot()
        self.initiator.start()
        # The streaming driver adds a little boot overhead over local
        # boot, but far less than full netroot (it caches to disk).
        yield self.env.timeout(params.OS_BOOT_SECONDS + 6.0)
        self.booted = True
        self._copier = self.env.process(self._background_copy(),
                                        name="os-streaming-copier")

    def _background_copy(self):
        bitmap = self.bitmap
        try:
            cursor = 0
            while not bitmap.complete:
                block = bitmap.first_empty_from(cursor)
                if block is None:
                    yield self.env.timeout(5e-3)
                    continue
                if not bitmap.try_claim(block):
                    cursor = block + 1
                    continue
                start, count = bitmap.block_range(block)
                runs = yield from self.initiator.read_blocks(start, count,
                                                             bulk=True)
                # No guest-I/O telemetry in the in-kernel driver: it
                # paces with the fixed write interval only.
                if self.policy.write_interval:
                    yield self.env.timeout(self.policy.write_interval)
                for run_start, run_count in bitmap.writable_runs(block):
                    request = BlockRequest(BlockOp.WRITE, run_start,
                                           run_count, origin="streaming")
                    request.buffer.runs = clip_runs(runs, run_start, run_count)
                    yield from self.node.disk.execute(request)
                try:
                    bitmap.commit_fill(block)
                except ValueError:
                    pass
                cursor = block + 1
        except Interrupt:
            return
        if not self.done.triggered:
            self.done.succeed(self.env.now)

    # -- storage facade (the in-kernel driver's read/write path) ----------------------

    def read(self, lba: int, sector_count: int):
        """Generator: local if present, otherwise fetch + cache."""
        if self.bitmap.sectors_local(lba, sector_count):
            request = BlockRequest(BlockOp.READ, lba, sector_count)
            yield from self.node.disk.execute(request)
            return request.buffer.runs
        runs = yield from self.initiator.read_blocks(lba, sector_count)
        self.bitmap.record_guest_write(lba, sector_count)
        request = BlockRequest(BlockOp.WRITE, lba, sector_count,
                               origin="streaming")
        request.buffer.runs = runs
        yield from self.node.disk.execute(request)
        return runs

    def write(self, lba: int, sector_count: int, tag: str = "app"):
        """Generator: local write, tracked by the driver's bitmap."""
        self._write_counter += 1
        token = ("streaming", tag, self._write_counter)
        request = BlockRequest(BlockOp.WRITE, lba, sector_count)
        request.buffer.fill_constant(token)
        yield from self.node.disk.execute(request)
        self.bitmap.record_guest_write(lba, sector_count)
        self.written.set_range(lba, sector_count, True)
        return token


class OsNotSupportedError(Exception):
    """The streaming driver is not ported to the requested OS."""

"""Disk write-race detector.

Shadows every completed write to the node's disk with its origin
(guest direct I/O, the VMM's copier, peer serving) and replays the
bitmap's claim-protocol transitions, flagging:

* ``vmm-overwrote-guest`` — a VMM write landed on sectors whose most
  recent *on-disk* data came from the guest.  This is the paper's
  central lost-update hazard; the atomic ``writable_runs`` check at
  write time exists precisely to make it impossible.  The benign
  ordering where a guest write is *recorded* (queued at the mediator)
  but lands after the VMM's write is deliberately not flagged — the
  replayed guest write is last on disk and the state converges.
* ``peer-write`` — peer chunk serving is read-only by construction.
* ``double-claim`` — ``try_claim`` of a block already COPYING.
* ``fill-without-claim`` — ``commit_fill_run`` of a block never claimed.
* ``release-after-commit`` / ``release-without-claim`` — releasing a
  claim the caller no longer (or never) held, except the benign case
  where the guest filled the whole block mid-fetch.
* ``leaked-claim`` — claims still outstanding once the bitmap is
  complete.
"""

from __future__ import annotations

from repro.analysis.sanitizers import Sanitizer
from repro.util.intervalmap import IntervalMap


class WriteRaceDetector(Sanitizer):
    """See module docstring; attach via ``SanitizerSuite``."""

    name = "write-race"

    def __init__(self, env, bitmap, disk, strict: bool = False):
        super().__init__(env, strict)
        self.bitmap = bitmap
        self.disk = disk
        #: Sectors whose latest landed disk write came from the guest.
        self.guest_on_disk = IntervalMap()
        #: Blocks currently claimed by the copier.
        self.claimed: set[int] = set()
        #: Blocks the copier committed.
        self.committed: set[int] = set()
        #: Blocks filled outright by a full-block guest write.
        self.guest_filled: set[int] = set()
        bitmap.transition_listeners.append(self._on_transition)
        disk.write_observers.append(self._on_disk_write)

    # -- claim protocol -----------------------------------------------------

    def _on_transition(self, event: str, block: int, **details) -> None:
        if event == "claim":
            if details["granted"]:
                self.claimed.add(block)
            elif details["state"] == "copying":
                self.report(
                    "double-claim",
                    f"try_claim of block {block} while already COPYING "
                    f"— two fetchers racing for one block",
                    block=block)
        elif event == "commit":
            if not details["was_claimed"]:
                self.report(
                    "fill-without-claim",
                    f"commit_fill_run of block {block} that was never "
                    f"claimed (state {details['state']!r})",
                    block=block, state=details["state"])
            else:
                self.claimed.discard(block)
                self.committed.add(block)
        elif event == "release":
            if details["was_claimed"]:
                self.claimed.discard(block)
            elif block in self.guest_filled:
                pass  # guest filled the block mid-fetch; benign
            elif block in self.committed:
                self.report(
                    "release-after-commit",
                    f"release_claim of block {block} after it was "
                    f"committed FILLED",
                    block=block)
            else:
                self.report(
                    "release-without-claim",
                    f"release_claim of block {block} that was never "
                    f"claimed (state {details['state']!r})",
                    block=block, state=details["state"])
        elif event == "guest-fill":
            self.claimed.discard(block)
            self.guest_filled.add(block)

    # -- landed writes ------------------------------------------------------

    def _on_disk_write(self, request) -> None:
        if request.lba >= self.bitmap.image_sectors:
            return  # protected region (bitmap save), not image data
        image_end = self.bitmap.image_sectors
        for run_start, run_end, _token in request.buffer.runs:
            start = max(run_start, 0)
            end = min(run_end, image_end)
            if start >= end:
                continue
            if request.origin == "guest":
                self.guest_on_disk.set_range(start, end - start, True)
            elif request.origin == "vmm":
                self._check_vmm_run(start, end)
                self.guest_on_disk.clear_range(start, end - start)
            elif request.origin == "peer":
                self.report(
                    "peer-write",
                    f"peer-origin WRITE of [{start}, {end}) — the "
                    f"chunk service is read-only",
                    lba=start, sectors=end - start)

    def _check_vmm_run(self, start: int, end: int) -> None:
        for sub_start, sub_end, value in self.guest_on_disk.runs_in(
                start, end - start):
            if value is None:
                continue
            self.report(
                "vmm-overwrote-guest",
                f"VMM write clobbered guest data on disk at "
                f"[{sub_start}, {sub_end}) — lost update",
                lba=sub_start, sectors=sub_end - sub_start,
                block=self.bitmap.block_of(sub_start))

    # -- end of run ---------------------------------------------------------

    def finalize(self) -> None:
        if self.bitmap.complete:
            for block in sorted(self.claimed):
                self.report(
                    "leaked-claim",
                    f"block {block} still claimed after the bitmap "
                    f"completed",
                    block=block)

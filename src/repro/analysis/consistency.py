"""Bitmap↔disk consistency checker.

The deployment's end state must satisfy two invariants (paper 3.3):

* **filled-means-image**: every sector inside a FILLED copy block
  holds the image store's content — except sectors the guest wrote,
  whose data is newer by definition;
* **guest-data-survives**: once a guest write has landed on disk, no
  later non-guest write may replace it.

The checker shadows guest-write provenance as the run unfolds (the
bitmap's listeners for mediated writes, the raw disk observer for the
post-devirtualization era) and compares states at the moments the
suite wires up: de-virtualization, deploy-complete, and finalize.  A
third structural invariant rides along: the dirty overlay may only
describe sectors of non-FILLED blocks.
"""

from __future__ import annotations

from repro.analysis.sanitizers import Sanitizer
from repro.storage.disk import content_digest
from repro.util.intervalmap import IntervalMap


class BitmapDiskChecker(Sanitizer):
    """See module docstring; attach via ``SanitizerSuite``."""

    name = "bitmap-disk"

    def __init__(self, env, bitmap, disk, image_contents,
                 strict: bool = False):
        super().__init__(env, strict)
        self.bitmap = bitmap
        self.disk = disk
        self.image_contents = image_contents
        #: Sectors the guest wrote — recorded intent (mediated) plus
        #: landed post-devirt writes.  Mismatches here are expected.
        self.guest_written = IntervalMap()
        #: Sectors whose guest write has actually landed on disk.
        self.guest_landed = IntervalMap()
        #: Most recent landed writer per sector ("guest"/"vmm"/...).
        self.last_writer = IntervalMap()
        self.checks_run = 0
        bitmap.guest_write_listeners.append(self._on_guest_record)
        disk.write_observers.append(self._on_disk_write)

    # -- provenance shadowing ----------------------------------------------

    def _clip(self, start: int, end: int) -> tuple[int, int]:
        return max(start, 0), min(end, self.bitmap.image_sectors)

    def _on_guest_record(self, lba: int, sector_count: int) -> None:
        start, end = self._clip(lba, lba + sector_count)
        if start < end:
            self.guest_written.set_range(start, end - start, True)

    def _on_disk_write(self, request) -> None:
        for run_start, run_end, _token in request.buffer.runs:
            start, end = self._clip(run_start, run_end)
            if start >= end:
                continue
            self.last_writer.set_range(start, end - start,
                                       request.origin)
            if request.origin == "guest":
                self.guest_landed.set_range(start, end - start, True)
                self.guest_written.set_range(start, end - start, True)

    # -- the checks ---------------------------------------------------------

    def check(self, when: str = "manual") -> int:
        """Verify all invariants now; returns new violation count."""
        before = len(self.violations)
        self.checks_run += 1
        self._check_filled_content(when)
        self._check_guest_preserved(when)
        self._check_dirty_overlay(when)
        return len(self.violations) - before

    def _check_filled_content(self, when: str) -> None:
        image_end = self.bitmap.image_sectors
        for block_start, block_end, _value in self.bitmap.filled_runs():
            start = block_start * self.bitmap.block_sectors
            end = min(block_end * self.bitmap.block_sectors, image_end)
            for sub_start, sub_end in _mismatch_ranges(
                    self.image_contents, self.disk.contents, start,
                    end - start):
                span = sub_end - sub_start
                if self.guest_written.covered_length(sub_start,
                                                     span) == span:
                    continue  # guest data, newer by definition
                self.report(
                    "filled-mismatch",
                    f"[{when}] FILLED sectors [{sub_start}, {sub_end}) "
                    f"do not hold the image store's content",
                    lba=sub_start, sectors=span,
                    block=self.bitmap.block_of(sub_start),
                    disk=self.disk.content_hash(sub_start, span),
                    image=content_digest(
                        self.image_contents.runs_in(sub_start, span)))

    def _check_guest_preserved(self, when: str) -> None:
        for start, end, value in self.guest_landed.runs():
            if not value:
                continue
            for sub_start, sub_end, writer in self.last_writer.runs_in(
                    start, end - start):
                if writer in (None, "guest"):
                    continue
                self.report(
                    "guest-overwritten",
                    f"[{when}] guest-written sectors "
                    f"[{sub_start}, {sub_end}) were last written by "
                    f"{writer!r}",
                    lba=sub_start, sectors=sub_end - sub_start,
                    writer=writer)

    def _check_dirty_overlay(self, when: str) -> None:
        for start, end, value in self.bitmap.dirty.runs():
            if value is None:
                continue
            for block in self.bitmap.blocks_overlapping(start,
                                                        end - start):
                if self.bitmap.is_filled(block):
                    self.report(
                        "dirty-in-filled",
                        f"[{when}] dirty-overlay entry "
                        f"[{start}, {end}) inside FILLED block {block} "
                        f"— the overlay must be cleared on fill",
                        lba=start, block=block)

    def finalize(self) -> None:
        self.check(when="final")


def _mismatch_ranges(expected: IntervalMap, actual: IntervalMap,
                     start: int, count: int):
    """Maximal ``(start, end)`` subranges where the two maps differ."""
    if count <= 0:
        return []
    expected_runs = iter(expected.runs_in(start, count))
    actual_runs = iter(actual.runs_in(start, count))
    mismatches: list[list[int]] = []
    exp = next(expected_runs)
    act = next(actual_runs)
    cursor = start
    end = start + count
    while cursor < end:
        segment_end = min(exp[1], act[1])
        if exp[2] != act[2]:
            if mismatches and mismatches[-1][1] == cursor:
                mismatches[-1][1] = segment_end
            else:
                mismatches.append([cursor, segment_end])
        cursor = segment_end
        if exp[1] == cursor and cursor < end:
            exp = next(expected_runs)
        if act[1] == cursor and cursor < end:
            act = next(actual_runs)
    return [(run_start, run_end) for run_start, run_end in mismatches]

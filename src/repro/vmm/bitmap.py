"""Deployment block bitmap (paper 3.3).

The VMM tracks, per copy block (1024 KB), whether the local disk already
holds the authoritative data.  The consistency hazard the paper describes:
the VMM requests block B from the server; before the reply lands, the
guest writes to B; the reply must NOT clobber the guest's newer data.  The
bitmap is checked *atomically at write time* to prevent that.

Guest writes are sector-granular but blocks are 1 MB, so a sector-granular
*dirty overlay* records guest-written ranges inside not-yet-filled blocks;
the copier masks those sectors out of its writes, and the redirector
serves them from the local disk rather than the server.

The bitmap also keeps the one write-taint record: the blocks any guest
write touched.  Only *pristine* FILLED blocks (no taint) may be served
to peers or preserved for a later deployment.
"""

from __future__ import annotations

import enum

from repro import params
from repro.util.intervalmap import IntervalMap


class BlockState(enum.Enum):
    EMPTY = "empty"       # local disk does not hold this block yet
    COPYING = "copying"   # a background fetch for it is in flight
    FILLED = "filled"     # local disk is authoritative


#: Declared claim protocol for ``repro check``'s FSM pass.  The
#: checker recovers the implemented transition relation from how
#: ``BlockBitmap``'s methods mutate the claimed-set and the filled-map
#: (``try_claim`` adds -> EMPTY->COPYING; ``commit_fill_run``
#: discards, fills and raises on unclaimed -> COPYING->FILLED;
#: ``record_guest_write`` also fills unclaimed blocks ->
#: EMPTY->FILLED; ``release_claim`` discards -> COPYING->EMPTY) and
#: diffs it against this spec.
SIMCHECK_FSM = {
    "name": "block-claim",
    "initial": "empty",
    "states": ("empty", "copying", "filled"),
    "transitions": {
        "empty": ("copying", "filled"),
        "copying": ("filled", "empty"),
        "filled": (),
    },
    "terminal": ("filled",),
    "extract": {
        "kind": "claim-methods",
        "class": "BlockBitmap",
        "claimed": "_copying",
        "filled": "_filled",
        "states": ("empty", "copying", "filled"),
    },
}


class BlockBitmap:
    """Per-block deployment state plus the sector-granular dirty overlay."""

    def __init__(self, image_sectors: int,
                 block_bytes: int = params.COPY_BLOCK_BYTES):
        if image_sectors <= 0:
            raise ValueError("image_sectors must be positive")
        if block_bytes % params.SECTOR_BYTES != 0:
            raise ValueError("block size must be sector-aligned")
        self.image_sectors = image_sectors
        self.block_sectors = block_bytes // params.SECTOR_BYTES
        self.block_count = (image_sectors + self.block_sectors - 1) \
            // self.block_sectors
        self._filled = IntervalMap()      # block index -> True
        #: Blocks in ``_filled``, kept up to date at every fill.
        self._filled_count = 0
        self._copying: set[int] = set()
        #: Sector ranges the guest wrote inside non-FILLED blocks.
        self.dirty = IntervalMap()
        #: Copy blocks a guest write has touched (see :meth:`taint`).
        self.tainted: set[int] = set()
        #: Called with ``(lba, sector_count)`` on every recorded guest
        #: write (the consistency sanitizer's provenance signal).
        self.guest_write_listeners: list = []
        #: Called with ``(event, block, **details)`` on every state
        #: transition attempt — ``"claim"``, ``"release"``, ``"commit"``
        #: and ``"guest-fill"``.  The write-race sanitizer replays these
        #: to check the claim protocol; listeners must not mutate the
        #: bitmap.
        self.transition_listeners: list = []
        #: A ``Notifier`` told of every released claim and every fill:
        #: what can give an idle copier work or complete the image.
        #: None until a deployment attaches one.
        self.changed = None
        # Metrics.
        self.copier_skips = 0
        #: Claims attempted on a block already in COPYING — a second
        #: retriever racing the first, which the protocol forbids.
        self.double_claims = 0

    # -- block geometry ---------------------------------------------------------

    def block_of(self, lba: int) -> int:
        return lba // self.block_sectors

    def block_range(self, block: int) -> tuple[int, int]:
        """(first LBA, sector count) of ``block``, clipped to the image."""
        start = block * self.block_sectors
        count = min(self.block_sectors, self.image_sectors - start)
        return start, count

    def blocks_overlapping(self, lba: int, sector_count: int):
        first = self.block_of(lba)
        last = self.block_of(lba + sector_count - 1)
        return range(first, min(last, self.block_count - 1) + 1)

    # -- state queries -------------------------------------------------------------

    def state(self, block: int) -> BlockState:
        if self._filled.get(block):
            return BlockState.FILLED
        if block in self._copying:
            return BlockState.COPYING
        return BlockState.EMPTY

    def is_filled(self, block: int) -> bool:
        return self._filled.get(block) is not None

    @property
    def filled_count(self) -> int:
        return self._filled_count

    def state_runs(self, first: int, count: int) \
            -> list[tuple[int, int, BlockState]]:
        """Maximal ``(start, end, state)`` stretches tiling blocks
        ``[first, first + count)``, ``end`` exclusive: one walk of the
        filled map, with the claimed set tested only inside its gaps.
        """
        stretches: list = []
        copying = self._copying
        for start, end, value in self._filled.runs_in(first, count):
            if value is not None:
                stretches.append((start, end, BlockState.FILLED))
                continue
            run_start = start
            run_state = BlockState.COPYING if start in copying \
                else BlockState.EMPTY
            for block in range(start + 1, end):
                state = BlockState.COPYING if block in copying \
                    else BlockState.EMPTY
                if state is not run_state:
                    stretches.append((run_start, block, run_state))
                    run_start, run_state = block, state
            stretches.append((run_start, end, run_state))
        return stretches

    def filled_runs(self) -> list[tuple[int, int, object]]:
        """FILLED block-index runs as ``(start, end, value)``, ``end``
        exclusive — the raw material for peer bitmap summaries."""
        return self._filled.runs()

    def pristine_blocks(self) -> set[int]:
        """FILLED copy blocks no guest write ever touched: their disk
        content still equals the image."""
        return {
            block
            for start, end, _ in self._filled.runs()
            for block in range(start, end)
            if block not in self.tainted
        }

    @property
    def complete(self) -> bool:
        return self._filled_count == self.block_count

    def first_empty_from(self, block: int) -> int | None:
        """The first non-FILLED, non-COPYING block at/after ``block``,
        wrapping around; ``None`` when everything is filled/claimed."""
        for base in (block, 0):
            cursor = base
            while cursor < self.block_count:
                gap = self._filled.first_gap(cursor, self.block_count)
                if gap is None:
                    break
                gap_start, gap_end = gap
                for candidate in range(gap_start, gap_end):
                    if candidate not in self._copying:
                        return candidate
                cursor = gap_end
        return None

    # -- sector-level coverage (read-path decisions) -----------------------------------

    def sectors_local(self, lba: int, sector_count: int) -> bool:
        """True if every sector in range is served by the local disk
        (inside a FILLED block, or guest-dirty)."""
        cursor = lba
        end = lba + sector_count
        while cursor < end:
            block = self.block_of(cursor)
            block_end = min((block + 1) * self.block_sectors, end)
            if not self.is_filled(block):
                span = block_end - cursor
                if self.dirty.covered_length(cursor, span) != span:
                    return False
            cursor = block_end
        return True

    def local_subranges(self, lba: int, sector_count: int):
        """Yield (start, count) subranges that must come from the local
        disk when redirecting the enclosing read."""
        cursor = lba
        end = lba + sector_count
        while cursor < end:
            block = self.block_of(cursor)
            block_end = min((block + 1) * self.block_sectors, end)
            if self.is_filled(block):
                yield (cursor, block_end - cursor)
            else:
                for run_start, run_end, value in self.dirty.runs_in(
                        cursor, block_end - cursor):
                    if value is not None:
                        yield (run_start, run_end - run_start)
            cursor = block_end

    # -- transitions --------------------------------------------------------------------

    def _notify(self, event: str, block: int, **details) -> None:
        for listener in self.transition_listeners:
            listener(event, block, **details)

    def try_claim(self, block: int) -> bool:
        """Copier: atomically move EMPTY -> COPYING.  False if not EMPTY."""
        state = self.state(block)
        if state is not BlockState.EMPTY:
            self.copier_skips += 1
            if state is BlockState.COPYING:
                self.double_claims += 1
            if self.transition_listeners:
                self._notify("claim", block, granted=False,
                             state=state.value)
            return False
        self._copying.add(block)
        if self.transition_listeners:
            self._notify("claim", block, granted=True, state=state.value)
        return True

    def claim_run(self, block: int, max_blocks: int) -> int:
        """Copier: claim up to ``max_blocks`` contiguous EMPTY blocks
        starting at ``block`` (EMPTY -> COPYING each), for one coalesced
        bulk fetch.  Stops at the first non-EMPTY block and returns how
        many were claimed (0 when ``block`` itself was not EMPTY).

        Emits the same per-block ``"claim"`` notifications as
        :meth:`try_claim`, so the claim-protocol sanitizer and the FSM
        extractor observe an identical protocol stream.
        """
        if max_blocks < 1:
            raise ValueError("max_blocks must be positive")
        if not self.try_claim(block):
            return 0
        limit = min(block + max_blocks, self.block_count)
        cursor = block + 1
        if cursor < limit:
            # ``block`` is claimed, so not FILLED: the run ends at the
            # next FILLED block or the next claimed one.
            _, limit = self._filled.first_gap(block, limit)
        while cursor < limit and cursor not in self._copying:
            self._copying.add(cursor)
            if self.transition_listeners:
                self._notify("claim", cursor, granted=True, state="empty")
            cursor += 1
        return cursor - block

    def release_run(self, block: int, count: int) -> None:
        """Release a run of claims (failed or abandoned coalesced fetch)."""
        for cursor in range(block, block + count):
            self.release_claim(cursor)

    def release_claim(self, block: int) -> None:
        was_claimed = block in self._copying
        self._copying.discard(block)
        if self.transition_listeners:
            self._notify("release", block, was_claimed=was_claimed,
                         state=self.state(block).value)
        if self.changed is not None:
            self.changed.notify()

    def commit_fill_run(self, block: int, count: int) -> None:
        """Copier: COPYING -> FILLED for ``count`` contiguous blocks as
        one atomic bitmap update (single filled-map range set, single
        dirty-overlay clear).  Every block must be claimed — validated
        up front, before any state changes — and a ``"commit"``
        notification is emitted for each block, claimed or not.
        """
        if count < 1:
            raise ValueError("count must be positive")
        end = block + count
        unclaimed = None
        for cursor in range(block, end):
            was_claimed = cursor in self._copying
            if self.transition_listeners:
                # Emitted before raising so the sanitizer sees the
                # attempt even if the caller swallows the exception.
                self._notify("commit", cursor, was_claimed=was_claimed,
                             state=self.state(cursor).value)
            if not was_claimed and unclaimed is None:
                unclaimed = cursor
        if unclaimed is not None:
            raise ValueError(f"block {unclaimed} was not claimed")
        for cursor in range(block, end):
            self._copying.discard(cursor)
        self._filled.set_range(block, count, True)
        self._filled_count += count
        start = block * self.block_sectors
        sectors = min(count * self.block_sectors,
                      self.image_sectors - start)
        self.dirty.clear_range(start, sectors)
        if self.changed is not None:
            self.changed.notify()

    def taint(self, lba: int, sector_count: int) -> None:
        """A guest write reached this range: its blocks stop being
        pristine.  Writes to the bitmap-save region are not image data.
        """
        if lba >= self.image_sectors:
            return
        self.tainted.update(self.blocks_overlapping(lba, sector_count))

    def record_guest_write(self, lba: int, sector_count: int) -> None:
        """Mediator: the guest wrote this range.

        Blocks that the write covers completely become FILLED outright
        (newest data, nothing left to copy); partially covered non-filled
        blocks get a dirty-overlay entry.  Every touched block is
        tainted.
        """
        for listener in self.guest_write_listeners:
            listener(lba, sector_count)
        self.taint(lba, sector_count)
        end = lba + sector_count
        for block in self.blocks_overlapping(lba, sector_count):
            if self.is_filled(block):
                continue
            block_start, block_count = self.block_range(block)
            block_end = block_start + block_count
            overlap_start = max(lba, block_start)
            overlap_end = min(end, block_end)
            if overlap_start == block_start and overlap_end == block_end:
                # Whole block overwritten by the guest.
                was_claimed = block in self._copying
                self._copying.discard(block)
                self._filled.set_range(block, 1, True)
                self._filled_count += 1
                self.dirty.clear_range(block_start, block_count)
                if self.transition_listeners:
                    self._notify("guest-fill", block,
                                 was_claimed=was_claimed)
                if self.changed is not None:
                    self.changed.notify()
            else:
                self.dirty.set_range(overlap_start,
                                     overlap_end - overlap_start, True)

    def writable_runs(self, block: int,
                      count: int = 1) -> list[tuple[int, int]]:
        """(start, count) sector ranges of blocks ``[block, block +
        count)`` the copier may write — everything except guest-dirty
        sectors, as maximal ranges.  **The atomic check**: call this
        immediately before the disk write."""
        start = block * self.block_sectors
        sectors = min(count * self.block_sectors, self.image_sectors - start)
        return [
            (run_start, run_end - run_start)
            for run_start, run_end, value
            in self.dirty.runs_in(start, sectors)
            if value is None
        ]

    # -- persistence (paper: saved to an unused on-disk region) ---------------------------

    def snapshot(self) -> dict:
        """Serializable state for the on-disk bitmap save.

        Runs are tuples so the snapshot is immutable: the on-disk copy
        must not alias live state.
        """
        return {
            "image_sectors": self.image_sectors,
            "block_sectors": self.block_sectors,
            "filled": tuple(self._filled.runs()),
            "dirty": tuple(self.dirty.runs()),
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "BlockBitmap":
        bitmap = cls(snapshot["image_sectors"],
                     snapshot["block_sectors"] * params.SECTOR_BYTES)
        bitmap.load_snapshot(snapshot)
        return bitmap

    def load_snapshot(self, snapshot: dict) -> None:
        """Replace this bitmap's state with a saved snapshot (resume)."""
        if snapshot["image_sectors"] != self.image_sectors:
            raise ValueError("snapshot is for a different image size")
        if snapshot["block_sectors"] != self.block_sectors:
            raise ValueError("snapshot uses a different block size")
        self._filled = IntervalMap()
        self.dirty = IntervalMap()
        self._copying.clear()
        for start, end, value in snapshot["filled"]:
            self._filled.set_range(start, end - start, value)
        self._filled_count = self._filled.total_covered()
        for start, end, value in snapshot["dirty"]:
            self.dirty.set_range(start, end - start, value)

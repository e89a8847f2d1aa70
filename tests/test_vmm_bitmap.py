"""Tests for the deployment block bitmap and its consistency rules."""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.vmm.bitmap import BlockBitmap, BlockState


BLOCK_SECTORS = params.COPY_BLOCK_BYTES // params.SECTOR_BYTES


def make_bitmap(blocks=8):
    return BlockBitmap(blocks * BLOCK_SECTORS)


def test_geometry():
    bitmap = make_bitmap(8)
    assert bitmap.block_count == 8
    assert bitmap.block_of(0) == 0
    assert bitmap.block_of(BLOCK_SECTORS) == 1
    assert bitmap.block_range(1) == (BLOCK_SECTORS, BLOCK_SECTORS)


def test_partial_last_block():
    bitmap = BlockBitmap(BLOCK_SECTORS + 100)
    assert bitmap.block_count == 2
    start, count = bitmap.block_range(1)
    assert start == BLOCK_SECTORS
    assert count == 100


def test_invalid_construction():
    with pytest.raises(ValueError):
        BlockBitmap(0)
    with pytest.raises(ValueError):
        BlockBitmap(100, block_bytes=777)


def test_claim_fill_lifecycle():
    bitmap = make_bitmap()
    assert bitmap.state(0) is BlockState.EMPTY
    assert bitmap.try_claim(0)
    assert bitmap.state(0) is BlockState.COPYING
    assert not bitmap.try_claim(0)  # cannot double-claim
    bitmap.commit_fill_run(0, 1)
    assert bitmap.state(0) is BlockState.FILLED
    assert not bitmap.try_claim(0)  # cannot claim filled


def test_commit_without_claim_rejected():
    bitmap = make_bitmap()
    with pytest.raises(ValueError):
        bitmap.commit_fill_run(0, 1)


def test_release_claim():
    bitmap = make_bitmap()
    bitmap.try_claim(2)
    bitmap.release_claim(2)
    assert bitmap.state(2) is BlockState.EMPTY
    assert bitmap.try_claim(2)


def test_complete_flag():
    bitmap = make_bitmap(3)
    for block in range(3):
        bitmap.try_claim(block)
        bitmap.commit_fill_run(block, 1)
    assert bitmap.complete
    assert bitmap.filled_count == 3


def test_first_empty_from_prefers_locality_and_wraps():
    bitmap = make_bitmap(6)
    for block in (3, 4):
        bitmap.try_claim(block)
        bitmap.commit_fill_run(block, 1)
    assert bitmap.first_empty_from(3) == 5
    assert bitmap.first_empty_from(5) == 5
    # After 5 is filled, search from 5 wraps to 0.
    bitmap.try_claim(5)
    bitmap.commit_fill_run(5, 1)
    assert bitmap.first_empty_from(5) == 0


def test_first_empty_skips_copying():
    bitmap = make_bitmap(3)
    bitmap.try_claim(0)
    assert bitmap.first_empty_from(0) == 1


def test_first_empty_none_when_done():
    bitmap = make_bitmap(2)
    for block in range(2):
        bitmap.try_claim(block)
        bitmap.commit_fill_run(block, 1)
    assert bitmap.first_empty_from(0) is None


def test_guest_full_block_write_fills():
    bitmap = make_bitmap()
    start, count = bitmap.block_range(2)
    bitmap.record_guest_write(start, count)
    assert bitmap.state(2) is BlockState.FILLED


def test_guest_partial_write_marks_dirty_not_filled():
    bitmap = make_bitmap()
    bitmap.record_guest_write(10, 20)
    assert bitmap.state(0) is BlockState.EMPTY
    assert bitmap.dirty.covered_length(10, 20) == 20


def test_guest_write_spanning_blocks():
    bitmap = make_bitmap()
    # Covers all of block 1, tails of block 0 and head of block 2.
    lba = BLOCK_SECTORS - 10
    count = BLOCK_SECTORS + 30
    bitmap.record_guest_write(lba, count)
    assert bitmap.state(0) is BlockState.EMPTY
    assert bitmap.state(1) is BlockState.FILLED
    assert bitmap.state(2) is BlockState.EMPTY
    assert bitmap.dirty.covered_length(lba, 10) == 10
    assert bitmap.dirty.covered_length(2 * BLOCK_SECTORS, 20) == 20


def test_guest_write_during_copying_protects_sectors():
    """The paper's race: guest writes while the block is being fetched.
    The copier's writable_runs (the atomic check) must exclude them."""
    bitmap = make_bitmap()
    assert bitmap.try_claim(0)
    bitmap.record_guest_write(100, 50)
    runs = bitmap.writable_runs(0)
    covered = sum(count for _, count in runs)
    assert covered == BLOCK_SECTORS - 50
    for start, count in runs:
        assert start + count <= 100 or start >= 150


def test_guest_full_block_write_during_copying_cancels_claim():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    start, count = bitmap.block_range(0)
    bitmap.record_guest_write(start, count)
    assert bitmap.state(0) is BlockState.FILLED
    # The copier's commit would now be wrong; the claim is gone.
    with pytest.raises(ValueError):
        bitmap.commit_fill_run(0, 1)


def test_commit_fill_clears_dirty_overlay():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    bitmap.record_guest_write(5, 10)
    bitmap.commit_fill_run(0, 1)
    assert bitmap.dirty.covered_length(0, BLOCK_SECTORS) == 0


def test_sectors_local_decision():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    bitmap.commit_fill_run(0, 1)
    assert bitmap.sectors_local(0, BLOCK_SECTORS)
    assert not bitmap.sectors_local(0, BLOCK_SECTORS + 1)
    # Dirty sectors count as local.
    bitmap.record_guest_write(BLOCK_SECTORS, 10)
    assert bitmap.sectors_local(0, BLOCK_SECTORS + 10)


def test_local_subranges():
    bitmap = make_bitmap()
    bitmap.try_claim(0)
    bitmap.commit_fill_run(0, 1)
    bitmap.record_guest_write(BLOCK_SECTORS + 100, 10)
    ranges = list(bitmap.local_subranges(0, 2 * BLOCK_SECTORS))
    assert (0, BLOCK_SECTORS) in ranges
    assert (BLOCK_SECTORS + 100, 10) in ranges
    assert len(ranges) == 2


def test_snapshot_restore_roundtrip():
    bitmap = make_bitmap(4)
    bitmap.try_claim(1)
    bitmap.commit_fill_run(1, 1)
    bitmap.record_guest_write(7, 5)
    restored = BlockBitmap.restore(bitmap.snapshot())
    assert restored.block_count == 4
    assert restored.state(1) is BlockState.FILLED
    assert restored.dirty.covered_length(7, 5) == 5
    # COPYING state is transient and intentionally not persisted.


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fill", "write"]),
                          st.integers(0, 7),
                          st.integers(0, BLOCK_SECTORS - 1),
                          st.integers(1, BLOCK_SECTORS)),
                max_size=25))
def test_property_filled_blocks_never_writable_by_copier(ops):
    """Invariant: writable_runs never includes a sector the guest wrote
    (unless the block was subsequently filled, which clears the overlay
    only after the copier's data is known stale-proof)."""
    bitmap = make_bitmap(8)
    guest_written = set()
    for kind, block, offset, length in ops:
        base, block_len = bitmap.block_range(block)
        if kind == "fill":
            if bitmap.try_claim(block):
                bitmap.commit_fill_run(block, 1)
                # Filling overwrites nothing the guest wrote afterwards;
                # model keeps only still-relevant writes.
                guest_written = {
                    s for s in guest_written
                    if not base <= s < base + block_len
                }
        else:
            lba = base + min(offset, block_len - 1)
            count = min(length, base + block_len - lba)
            bitmap.record_guest_write(lba, count)
            if not bitmap.is_filled(block):
                guest_written.update(range(lba, lba + count))
    for block in range(8):
        if bitmap.state(block) is BlockState.FILLED:
            continue
        if not bitmap.try_claim(block):
            continue
        for start, count in bitmap.writable_runs(block):
            for sector in range(start, start + count):
                assert sector not in guest_written
        bitmap.release_claim(block)


# -- run operations (transfer coalescing) -------------------------------------

def test_claim_run_extends_over_empty_blocks():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(0, 4) == 4
    for block in range(4):
        assert bitmap.state(block) is BlockState.COPYING
    assert bitmap.state(4) is BlockState.EMPTY


def test_claim_run_stops_at_non_empty_block():
    bitmap = make_bitmap(8)
    bitmap.try_claim(2)
    bitmap.commit_fill_run(2, 1)
    assert bitmap.claim_run(0, 8) == 2  # blocks 0-1 only
    assert bitmap.state(2) is BlockState.FILLED
    assert bitmap.state(3) is BlockState.EMPTY


def test_claim_run_zero_when_first_block_taken():
    bitmap = make_bitmap(8)
    bitmap.try_claim(0)
    assert bitmap.claim_run(0, 4) == 0


def test_claim_run_clipped_at_image_end():
    bitmap = make_bitmap(4)
    assert bitmap.claim_run(2, 8) == 2


def test_claim_run_rejects_empty_request():
    bitmap = make_bitmap(4)
    with pytest.raises(ValueError):
        bitmap.claim_run(0, 0)


def test_commit_fill_run_fills_atomically():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(0, 3) == 3
    bitmap.commit_fill_run(0, 3)
    for block in range(3):
        assert bitmap.state(block) is BlockState.FILLED


def test_commit_fill_run_validates_before_mutating():
    bitmap = make_bitmap(8)
    bitmap.try_claim(0)  # block 1 deliberately unclaimed
    with pytest.raises(ValueError, match="block 1 was not claimed"):
        bitmap.commit_fill_run(0, 2)
    # Validation failed before any mutation: block 0 keeps its claim.
    assert bitmap.state(0) is BlockState.COPYING
    assert bitmap.state(1) is BlockState.EMPTY


def test_release_run_returns_blocks_to_empty():
    bitmap = make_bitmap(8)
    assert bitmap.claim_run(0, 3) == 3
    bitmap.release_run(0, 3)
    for block in range(3):
        assert bitmap.state(block) is BlockState.EMPTY


def test_run_operations_emit_per_block_notifications():
    """Sanitizers and simcheck consume per-block transition streams;
    a coalesced run must notify exactly like per-block operations."""
    bitmap = make_bitmap(8)
    events = []
    bitmap.transition_listeners.append(
        lambda event, block, **details: events.append((event, block)))
    bitmap.claim_run(0, 2)
    bitmap.commit_fill_run(0, 2)
    bitmap.claim_run(2, 1)
    bitmap.release_run(2, 1)
    assert events == [
        ("claim", 0), ("claim", 1),
        ("commit", 0), ("commit", 1),
        ("claim", 2), ("release", 2),
    ]


def test_commit_fill_run_clears_dirty_overlay():
    bitmap = make_bitmap(4)
    bitmap.claim_run(0, 2)
    bitmap.record_guest_write(3, 5)  # partial write inside block 0
    bitmap.commit_fill_run(0, 2)
    assert bitmap.dirty.covered_length(0, 2 * BLOCK_SECTORS) == 0


def test_release_run_leaves_guest_filled_blocks_alone():
    """A block the guest overwrote while its run was claimed is the
    guest's: releasing the run leaves it FILLED, and the release is
    still notified, so the sanitizer judges it (benign, see
    test_analysis_sanitizers)."""
    bitmap = make_bitmap(4)
    events = []
    bitmap.transition_listeners.append(
        lambda event, block, **details: events.append(
            (event, block, details.get("state"))))
    bitmap.claim_run(0, 3)
    bitmap.record_guest_write(BLOCK_SECTORS, BLOCK_SECTORS)
    bitmap.release_run(0, 3)
    assert [bitmap.state(block) for block in range(3)] == [
        BlockState.EMPTY, BlockState.FILLED, BlockState.EMPTY]
    assert bitmap.filled_count == 1
    assert events[-3:] == [("release", 0, "empty"),
                           ("release", 1, "filled"),
                           ("release", 2, "empty")]


# -- per-run queries (the copier's bookkeeping) ---------------------------------

def test_state_runs_gives_maximal_stretches():
    bitmap = make_bitmap(8)
    bitmap.claim_run(1, 2)
    bitmap.commit_fill_run(1, 1)
    bitmap.claim_run(4, 1)
    bitmap.record_guest_write(6 * BLOCK_SECTORS, BLOCK_SECTORS)
    assert bitmap.state_runs(0, 8) == [
        (0, 1, BlockState.EMPTY), (1, 2, BlockState.FILLED),
        (2, 3, BlockState.COPYING), (3, 4, BlockState.EMPTY),
        (4, 5, BlockState.COPYING), (5, 6, BlockState.EMPTY),
        (6, 7, BlockState.FILLED), (7, 8, BlockState.EMPTY)]
    assert bitmap.state_runs(2, 1) == [(2, 3, BlockState.COPYING)]


def test_writable_runs_over_a_stretch_skips_dirty_sectors():
    bitmap = make_bitmap(4)
    bitmap.claim_run(0, 3)
    bitmap.record_guest_write(BLOCK_SECTORS + 8, 8)
    assert bitmap.writable_runs(0, 3) == [
        (0, BLOCK_SECTORS + 8), (BLOCK_SECTORS + 16, 2 * BLOCK_SECTORS - 16)]


#: Small blocks keep the property test's sector maps short; the image
#: ends mid-block so the last block is clipped.
PROP_BLOCK_SECTORS = 16
PROP_BLOCKS = 10
PROP_IMAGE_SECTORS = PROP_BLOCKS * PROP_BLOCK_SECTORS - 5


def reference_state_runs(bitmap, first, count):
    """The per-block loop ``state_runs`` replaces, merged into
    maximal stretches."""
    stretches = []
    for block in range(first, first + count):
        state = bitmap.state(block)
        if stretches and stretches[-1][2] is state:
            stretches[-1] = (stretches[-1][0], block + 1, state)
        else:
            stretches.append((block, block + 1, state))
    return stretches


def reference_writable_runs(bitmap, first, count):
    """``writable_runs`` one block at a time, adjacent pieces merged."""
    merged = []
    for block in range(first, first + count):
        for start, length in bitmap.writable_runs(block):
            if merged and sum(merged[-1]) == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
    return merged


block_index = st.integers(0, PROP_BLOCKS - 1)
run_length = st.integers(1, 4)
bitmap_ops = st.lists(st.one_of(
    st.tuples(st.just("claim_run"), block_index, run_length),
    st.tuples(st.just("release_run"), block_index, run_length),
    st.tuples(st.just("commit_block"), block_index),
    st.tuples(st.just("commit_fill_run"), block_index, run_length),
    st.tuples(st.just("write"), st.integers(0, PROP_IMAGE_SECTORS - 1),
              st.integers(1, 3 * PROP_BLOCK_SECTORS)),
    st.tuples(st.just("write_block"), block_index),
    st.tuples(st.just("save")),
    st.tuples(st.just("load")),
), max_size=30)


@settings(max_examples=200, deadline=None)
@given(bitmap_ops, st.data())
def test_property_per_run_queries_match_the_per_block_loop(ops, data):
    """Over random claim/release/commit/guest-write/snapshot sequences,
    ``state_runs`` equals the per-block ``state()`` loop, a stretch's
    ``writable_runs`` equals its blocks' pieces merged, and the running
    ``filled_count`` equals the filled map's coverage."""
    bitmap = BlockBitmap(PROP_IMAGE_SECTORS,
                         PROP_BLOCK_SECTORS * params.SECTOR_BYTES)
    saved = bitmap.snapshot()
    for op in ops:
        kind = op[0]
        if kind == "claim_run":
            bitmap.claim_run(op[1], op[2])
        elif kind == "release_run":
            bitmap.release_run(op[1], min(op[2], PROP_BLOCKS - op[1]))
        elif kind == "commit_block":
            with contextlib.suppress(ValueError):
                bitmap.commit_fill_run(op[1], 1)
        elif kind == "commit_fill_run":
            with contextlib.suppress(ValueError):
                bitmap.commit_fill_run(op[1],
                                       min(op[2], PROP_BLOCKS - op[1]))
        elif kind == "write":
            lba, count = op[1], min(op[2], PROP_IMAGE_SECTORS - op[1])
            bitmap.record_guest_write(lba, count)
        elif kind == "write_block":
            bitmap.record_guest_write(*bitmap.block_range(op[1]))
        elif kind == "save":
            saved = bitmap.snapshot()
        else:
            bitmap.load_snapshot(saved)
        assert bitmap.filled_count == bitmap._filled.total_covered()
        assert bitmap.complete == (bitmap.filled_count == PROP_BLOCKS)
        first = data.draw(block_index)
        count = data.draw(st.integers(1, PROP_BLOCKS - first))
        assert bitmap.state_runs(first, count) \
            == reference_state_runs(bitmap, first, count)
        assert bitmap.writable_runs(first, count) \
            == reference_writable_runs(bitmap, first, count)
    assert bitmap.state_runs(0, PROP_BLOCKS) \
        == reference_state_runs(bitmap, 0, PROP_BLOCKS)

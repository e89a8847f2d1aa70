"""Unit tests for metrics, host memory, OS images, and small helpers."""

import pytest

from repro import params
from repro.aoe.server import ImageStore
from repro.cloud.instance import StartupTimeline
from repro.guest.osimage import OsImage
from repro.hw.hostmem import HostMemory, HostMemoryError
from repro.obs import TimeSeries, format_table
from repro.sim import Environment
from repro.storage.blockdev import (BlockOp, BlockRequest, clip_runs,
                                    coalesce_runs)
from repro.util.intervalmap import IntervalMap

MB = 2**20


# -- TimeSeries ----------------------------------------------------------------

def test_timeseries_statistics():
    series = TimeSeries("tp", unit="ops/s")
    for time, value in ((0, 10.0), (10, 20.0), (20, 30.0)):
        series.record(time, value)
    assert len(series) == 3
    assert series.mean() == 20.0
    assert series.min() == 10.0
    assert series.max() == 30.0
    assert series.values() == [10.0, 20.0, 30.0]


def test_timeseries_mean_between():
    series = TimeSeries("x")
    for time in range(10):
        series.record(float(time), float(time))
    assert series.mean_between(2.0, 5.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        series.mean_between(100.0, 200.0)


def test_timeseries_empty_mean_rejected():
    with pytest.raises(ValueError):
        TimeSeries("empty").mean()


# -- report formatting -----------------------------------------------------------

def test_format_table_basic():
    text = format_table(["name", "value"],
                        [["alpha", 1.5], ["beta", 200.0]],
                        title="Title")
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "name" in lines[1]
    assert "alpha" in lines[3]
    assert "1.50" in lines[3]
    assert "200" in lines[4]


def test_format_table_row_width_mismatch():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text


# -- HostMemory -------------------------------------------------------------------

def test_hostmem_allocate_lookup_free():
    memory = HostMemory()
    thing = object()
    address = memory.allocate(thing)
    assert memory.lookup(address) is thing
    assert address in memory
    memory.free(address)
    assert address not in memory
    with pytest.raises(HostMemoryError):
        memory.lookup(address)


def test_hostmem_explicit_address_conflict():
    memory = HostMemory()
    memory.allocate("a", address=0x1000)
    with pytest.raises(HostMemoryError):
        memory.allocate("b", address=0x1000)


def test_hostmem_replace():
    memory = HostMemory()
    address = memory.allocate("old")
    assert memory.replace(address, "new") == "old"
    assert memory.lookup(address) == "new"


def test_hostmem_double_free_rejected():
    memory = HostMemory()
    address = memory.allocate("x")
    memory.free(address)
    with pytest.raises(HostMemoryError):
        memory.free(address)


# -- OsImage ------------------------------------------------------------------------

def test_osimage_requires_whole_chunks():
    with pytest.raises(ValueError):
        OsImage(size_bytes=MB + 1)


def test_osimage_boot_trace_deterministic():
    image_a = OsImage(size_bytes=64 * MB, boot_read_bytes=4 * MB)
    image_b = OsImage(size_bytes=64 * MB, boot_read_bytes=4 * MB)
    assert image_a.boot_trace() == image_b.boot_trace()
    different = OsImage(size_bytes=64 * MB, boot_read_bytes=4 * MB,
                        seed=999)
    assert different.boot_trace() != image_a.boot_trace()


def test_osimage_boot_trace_covers_requested_bytes():
    image = OsImage(size_bytes=64 * MB, boot_read_bytes=4 * MB)
    total = sum(count for step in image.boot_trace()
                for _, count in step.reads) * params.SECTOR_BYTES
    assert total == pytest.approx(4 * MB, rel=0.05)
    for step in image.boot_trace():
        for lba, count in step.reads:
            assert 0 <= lba < image.total_sectors
            assert lba + count <= image.total_sectors


def test_osimage_boot_lbas_match_trace():
    image = OsImage(size_bytes=64 * MB, boot_read_bytes=2 * MB)
    lbas = image.boot_lbas()
    from_trace = [lba for step in image.boot_trace()
                  for lba, _ in step.reads]
    assert lbas == from_trace


def test_verify_deployed_detects_mismatch():
    image = OsImage(size_bytes=32 * MB)
    disk = IntervalMap()
    for start, end, token in image.contents.runs():
        disk.set_range(start, end - start, token)
    assert image.verify_deployed(disk)
    disk.set_range(100, 1, "garbage")
    assert not image.verify_deployed(disk)
    # ...unless the guest wrote it.
    written = IntervalMap()
    written.set_range(100, 1, True)
    assert image.verify_deployed(disk, written)


# -- ImageStore -------------------------------------------------------------------------

def make_store(**kwargs):
    env = Environment()
    contents = IntervalMap()
    contents.set_range(0, 1 << 20, "img")
    return env, ImageStore(env, contents, 1 << 20, **kwargs)


def store_read(store, lba, sector_count):
    """Generator: the runs, one zero-delay hop after ``done``."""
    done = store.env.event()
    store.start_read(lba, sector_count, done.succeed)
    return (yield done)


def store_write(store, lba, runs):
    """Generator: returns one zero-delay hop after ``done``."""
    done = store.env.event()
    store.start_write(lba, runs, done.succeed)
    yield done


def test_imagestore_hit_ratio_validated():
    with pytest.raises(ValueError):
        make_store(cache_hit_ratio=1.5)


def test_imagestore_streaming_reads_always_hit():
    env, store = make_store(cache_hit_ratio=0.0, hit_seconds=1e-4,
                            miss_seconds=1.0)

    def proc():
        start = env.now
        yield from store_read(store, 0, 2048)  # >= STREAMING_SECTORS
        return env.now - start

    elapsed = env.run(until=env.process(proc()))
    assert elapsed < 0.1  # no miss penalty


def test_imagestore_small_reads_respect_hit_ratio():
    env, store = make_store(cache_hit_ratio=0.5, hit_seconds=1e-4,
                            miss_seconds=1e-2)

    def proc():
        start = env.now
        for _ in range(20):
            yield from store_read(store, 0, 8)
        return env.now - start

    elapsed = env.run(until=env.process(proc()))
    # ~10 misses at 10 ms each dominate.
    assert 0.05 < elapsed < 0.2


def test_imagestore_write_roundtrip():
    env, store = make_store()

    def proc():
        yield from store_write(store, 10, [(10, 20, "newdata")])
        runs = yield from store_read(store, 10, 10)
        return runs

    runs = env.run(until=env.process(proc()))
    assert runs == [(10, 20, "newdata")]


# -- StartupTimeline -----------------------------------------------------------------------

def test_timeline_totals():
    timeline = StartupTimeline(power_on=10.0)
    timeline.add_segment("firmware init", 133.0)
    timeline.add_segment("OS boot", 29.0)
    timeline.ready = 172.0
    assert timeline.total == 162.0
    assert timeline.total_excluding_firmware() == 29.0


# -- blockdev helpers ------------------------------------------------------------------------

def test_block_request_validation():
    with pytest.raises(ValueError):
        BlockRequest(BlockOp.READ, lba=-1, sector_count=1)
    with pytest.raises(ValueError):
        BlockRequest(BlockOp.READ, lba=0, sector_count=0)


def test_coalesce_runs():
    runs = [(0, 5, "a"), (5, 10, "a"), (10, 12, "b"), (20, 25, "a")]
    assert coalesce_runs(runs) == [(0, 10, "a"), (10, 12, "b"),
                                   (20, 25, "a")]
    assert coalesce_runs([]) == []


def test_clip_runs():
    runs = [(0, 5, "a"), (5, 10, None), (10, 12, "b")]
    assert clip_runs(runs, 3, 8) == [(3, 5, "a"), (5, 10, None),
                                     (10, 11, "b")]
    assert clip_runs(runs, 12, 4) == []

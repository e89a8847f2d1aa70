"""Generic guest disk workloads.

Reusable traffic generators for experiments beyond the paper's canned
benchmarks: sequential/random readers and writers and a rate-controlled
mixed workload, all measuring their own throughput and latency through
the instance storage facade.
"""

from __future__ import annotations

from repro import params
from repro.obs import TimeSeries
from repro.util.rng import make_rng


class DiskWorkload:
    """Base: tracks per-request latency and aggregate throughput."""

    def __init__(self, instance, name: str = "workload"):
        self.instance = instance
        self.name = name
        self.requests = 0
        self.bytes_moved = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.latency = TimeSeries(f"{name} latency", unit="s")

    def _record(self, start: float, nbytes: int) -> None:
        env = self.instance.env
        self.requests += 1
        self.bytes_moved += nbytes
        self.latency.record(env.now, env.now - start)

    @property
    def throughput(self) -> float:
        """Bytes/second over the run."""
        if self.started_at is None or self.finished_at is None:
            raise ValueError(f"{self.name}: run() has not completed")
        elapsed = self.finished_at - self.started_at
        return self.bytes_moved / elapsed if elapsed > 0 else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency.mean()


class SequentialReader(DiskWorkload):
    """Stream ``total_bytes`` sequentially from ``lba``."""

    def __init__(self, instance, lba: int, total_bytes: int,
                 request_bytes: int = 2**20, name: str = "seq-read"):
        super().__init__(instance, name)
        self.lba = lba
        self.total_bytes = total_bytes
        self.request_sectors = max(1, request_bytes // params.SECTOR_BYTES)

    def run(self):
        """Generator: read the whole span; returns bytes/second."""
        env = self.instance.env
        self.started_at = env.now
        cursor = self.lba
        remaining = self.total_bytes // params.SECTOR_BYTES
        while remaining > 0:
            count = min(self.request_sectors, remaining)
            start = env.now
            yield from self.instance.read(cursor, count)
            self._record(start, count * params.SECTOR_BYTES)
            cursor += count
            remaining -= count
        self.finished_at = env.now
        return self.throughput


class SequentialWriter(DiskWorkload):
    """Stream ``total_bytes`` of writes sequentially from ``lba``."""

    def __init__(self, instance, lba: int, total_bytes: int,
                 request_bytes: int = 2**20, name: str = "seq-write"):
        super().__init__(instance, name)
        self.lba = lba
        self.total_bytes = total_bytes
        self.request_sectors = max(1, request_bytes // params.SECTOR_BYTES)

    def run(self):
        """Generator: write the whole span; returns bytes/second."""
        env = self.instance.env
        self.started_at = env.now
        cursor = self.lba
        remaining = self.total_bytes // params.SECTOR_BYTES
        while remaining > 0:
            count = min(self.request_sectors, remaining)
            start = env.now
            yield from self.instance.write(cursor, count, tag=self.name)
            self._record(start, count * params.SECTOR_BYTES)
            cursor += count
            remaining -= count
        self.finished_at = env.now
        return self.throughput


class RandomReader(DiskWorkload):
    """``requests`` random reads over ``[lba, lba + span_sectors)``."""

    def __init__(self, instance, lba: int, span_sectors: int,
                 requests: int = 100, request_bytes: int = 4096,
                 seed: int = 7, name: str = "rand-read"):
        super().__init__(instance, name)
        self.lba = lba
        self.span_sectors = span_sectors
        self.request_count = requests
        self.request_sectors = max(1, request_bytes // params.SECTOR_BYTES)
        self._rng = make_rng(seed)

    def run(self):
        """Generator: issue the random reads; returns mean latency."""
        env = self.instance.env
        self.started_at = env.now
        limit = self.span_sectors - self.request_sectors
        for _ in range(self.request_count):
            offset = self._rng.randrange(0, max(limit, 1))
            start = env.now
            yield from self.instance.read(self.lba + offset,
                                          self.request_sectors)
            self._record(start, self.request_sectors * params.SECTOR_BYTES)
        self.finished_at = env.now
        return self.mean_latency


class MixedWorkload(DiskWorkload):
    """Rate-controlled mixed read/write traffic for ``duration``.

    Issues ``rate`` requests/second (open loop, deterministic spacing
    with seeded jitter), each a read with probability
    ``read_fraction``.
    """

    def __init__(self, instance, lba: int, span_sectors: int,
                 rate: float = 50.0, read_fraction: float = 0.7,
                 request_bytes: int = 64 * 1024, seed: int = 11,
                 name: str = "mixed"):
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if rate <= 0:
            raise ValueError("rate must be positive")
        super().__init__(instance, name)
        self.lba = lba
        self.span_sectors = span_sectors
        self.rate = rate
        self.read_fraction = read_fraction
        self.request_sectors = max(1, request_bytes // params.SECTOR_BYTES)
        self._rng = make_rng(seed)
        self.reads = 0
        self.writes = 0

    def run(self, duration: float):
        """Generator: run for ``duration`` seconds; returns self."""
        env = self.instance.env
        self.started_at = env.now
        interval = 1.0 / self.rate
        limit = max(self.span_sectors - self.request_sectors, 1)
        while env.now - self.started_at < duration:
            offset = self._rng.randrange(0, limit)
            start = env.now
            if self._rng.random() < self.read_fraction:
                yield from self.instance.read(self.lba + offset,
                                              self.request_sectors)
                self.reads += 1
            else:
                yield from self.instance.write(self.lba + offset,
                                               self.request_sectors,
                                               tag=self.name)
                self.writes += 1
            self._record(start, self.request_sectors * params.SECTOR_BYTES)
            jitter = interval * 0.2 * (self._rng.random() - 0.5)
            wait = interval + jitter - (env.now - start)
            if wait > 0:
                yield env.timeout(wait)
        self.finished_at = env.now
        return self

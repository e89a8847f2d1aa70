"""YCSB-style closed-loop client (paper 5.2, Figure 5).

Drives a :class:`~repro.apps.kvstore.KvStoreServer` from a second
instance and records throughput and latency over time, producing exactly
the series Figure 5 plots: the deploy-phase plateau, then the step up at
de-virtualization.
"""

from __future__ import annotations

from repro.apps.kvstore import KvStoreServer
from repro.obs import TimeSeries


#: The paper's two workload mixes.
READ_HEAVY = 0.05    # memcached: 95% reads / 5% writes
WRITE_HEAVY = 0.70   # Cassandra: 30% reads / 70% writes


class YcsbBenchmark:
    """One YCSB run against one store."""

    def __init__(self, store: KvStoreServer, write_fraction: float,
                 window: float = 10.0):
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.store = store
        self.write_fraction = write_fraction
        self.window = window
        self.throughput = TimeSeries(
            f"{store.profile.name} throughput", unit="ops/s")
        self.latency = TimeSeries(
            f"{store.profile.name} latency", unit="s")

    def run(self, duration: float):
        """Generator: drive the store for ``duration`` seconds."""
        env = self.store.instance.env
        start = env.now
        while True:
            window = min(self.window, duration - (env.now - start))
            if window < 1e-6:
                break
            ops, latency = yield from self.store.window_capacity(
                window, self.write_fraction)
            self.throughput.record(env.now - start, ops / window)
            self.latency.record(env.now - start, latency)
        return self

    # -- analysis ---------------------------------------------------------------

    def mean_throughput(self, start: float = 0.0,
                        end: float = float("inf")) -> float:
        return self.throughput.mean_between(start, end)

    def mean_latency(self, start: float = 0.0,
                     end: float = float("inf")) -> float:
        return self.latency.mean_between(start, end)

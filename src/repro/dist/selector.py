"""Replica selection policies for the distribution fabric.

Every BMcast initiator that fetches through the fabric owns one
selector.  A selector answers one question — *which target should this
read go to?* — over a candidate list that is either the fabric's origin
replica set or, for peer fetches, the set of peers currently
advertising the wanted block.

Policies (pick with ``build_testbed(select_policy=...)``):

* ``round-robin``      — cycle through the candidates; the baseline.
* ``consistent-hash``  — hash the copy-block index onto a replica ring,
  so every node asks the *same* replica for the same block and each
  replica's page cache only ever warms ``1/N`` of the image.
* ``least-outstanding``— this initiator's in-flight request count per
  target; join the shortest queue.
* ``rtt-aware``        — per-target Jacobson/Karels estimators (the
  AoE initiator's own :class:`~repro.aoe.rtt.RttEstimator`); route to
  the lowest smoothed RTT, with a deterministic exploration tick so a
  recovering replica is re-probed.

All policies are deterministic: no wall-clock, no unseeded RNG — two
runs of the same scenario pick the same replicas in the same order.
"""

from __future__ import annotations

import hashlib

from repro import params
from repro.aoe.rtt import RttEstimator
from repro.obs.telemetry import NULL_TELEMETRY

POLICIES = ("round-robin", "consistent-hash", "least-outstanding",
            "rtt-aware")


def make_selector(policy: str, replicas, telemetry=NULL_TELEMETRY):
    """Build a selector for ``policy`` over the origin ``replicas``."""
    classes = {
        "round-robin": RoundRobinSelector,
        "consistent-hash": ConsistentHashSelector,
        "least-outstanding": LeastOutstandingSelector,
        "rtt-aware": RttAwareSelector,
    }
    cls = classes.get(policy)
    if cls is None:
        raise ValueError(
            f"unknown selection policy {policy!r}; choose from {POLICIES}")
    return cls(replicas, telemetry=telemetry)


class ReplicaSelector:
    """Base: candidate bookkeeping, load counters, decision spans."""

    policy = "base"

    def __init__(self, replicas, telemetry=NULL_TELEMETRY):
        self.replicas = list(replicas)
        if not self.replicas:
            raise ValueError("need at least one replica")
        self.telemetry = telemetry
        self.decisions = 0
        #: Requests routed per target (the per-replica load counters).
        self.load: dict[str, int] = {}
        self._outstanding: dict[str, int] = {}
        registry = telemetry.registry
        self._m_requests: dict = {}
        self._registry = registry
        self._m_decisions = registry.counter(
            "dist_selector_decisions_total", policy=self.policy,
            help="replica-selection decisions taken")

    # -- public API --------------------------------------------------------------

    def select(self, lba: int, sector_count: int,
               candidates=None) -> str:
        """Pick a target for ``[lba, lba+sector_count)``.

        ``candidates`` restricts the choice (peer fetches pass the
        ports advertising the block); ``None`` means the origin
        replica set.
        """
        pool = self.replicas if candidates is None else list(candidates)
        if not pool:
            raise ValueError("no candidates to select from")
        choice = pool[0] if len(pool) == 1 \
            else self._choose(lba, sector_count, pool)
        self.decisions += 1
        self._m_decisions.inc()
        span = self.telemetry.tracer.start(
            "select-replica", policy=self.policy, lba=lba,
            candidates=len(pool))
        self.telemetry.tracer.end(span, target=choice)
        return choice

    def note_sent(self, target: str) -> None:
        """A request was dispatched to ``target``."""
        self.load[target] = self.load.get(target, 0) + 1
        self._outstanding[target] = self._outstanding.get(target, 0) + 1
        counter = self._m_requests.get(target)
        if counter is None:
            counter = self._registry.counter(
                "dist_replica_requests_total", replica=target,
                help="fetches routed to each replica/peer target")
            self._m_requests[target] = counter
        counter.inc()

    def note_complete(self, target: str, rtt_seconds: float,
                      ok: bool = True) -> None:
        """The request to ``target`` finished after ``rtt_seconds``."""
        count = self._outstanding.get(target, 0)
        if count > 0:
            self._outstanding[target] = count - 1

    def outstanding(self, target: str) -> int:
        return self._outstanding.get(target, 0)

    # -- policy hook -------------------------------------------------------------

    def _choose(self, lba: int, sector_count: int, pool: list) -> str:
        raise NotImplementedError


class RoundRobinSelector(ReplicaSelector):
    """Cycle through the candidates in order."""

    policy = "round-robin"

    def __init__(self, replicas, telemetry=NULL_TELEMETRY):
        super().__init__(replicas, telemetry=telemetry)
        self._cursor = 0

    def _choose(self, lba, sector_count, pool):
        choice = pool[self._cursor % len(pool)]
        self._cursor += 1
        return choice


def _ring_hash(key: str) -> int:
    """Stable hash for ring placement (``hash()`` is salted per run)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


class ConsistentHashSelector(ReplicaSelector):
    """Map the copy-block index onto a replica hash ring.

    Sector-to-block granularity matches the deployment bitmap
    (:data:`repro.params.COPY_BLOCK_BYTES`), so a block's every fetch —
    from any node — lands on the same replica and the replica set
    partitions the image's cache footprint instead of mirroring it.
    """

    policy = "consistent-hash"

    #: Virtual nodes per replica; smooths the partition.
    VNODES = 32

    #: Sectors per copy block (mirrors the bitmap's default geometry).
    BLOCK_SECTORS = params.COPY_BLOCK_BYTES // params.SECTOR_BYTES

    def __init__(self, replicas, telemetry=NULL_TELEMETRY):
        super().__init__(replicas, telemetry=telemetry)
        self._ring = sorted(
            (_ring_hash(f"{replica}#{vnode}"), replica)
            for replica in self.replicas
            for vnode in range(self.VNODES))

    def _choose(self, lba, sector_count, pool):
        block = lba // self.BLOCK_SECTORS
        point = _ring_hash(str(block))
        pool_set = set(pool)
        # Walk the ring from the block's point to the first candidate.
        start = self._bisect(point)
        for offset in range(len(self._ring)):
            _, replica = self._ring[(start + offset) % len(self._ring)]
            if replica in pool_set:
                return replica
        return pool[0]

    def _bisect(self, point: int) -> int:
        import bisect
        return bisect.bisect_left(self._ring, (point, "")) \
            % len(self._ring)


class LeastOutstandingSelector(ReplicaSelector):
    """Join the shortest queue (this initiator's own view)."""

    policy = "least-outstanding"

    def __init__(self, replicas, telemetry=NULL_TELEMETRY):
        super().__init__(replicas, telemetry=telemetry)
        self._tiebreak = 0

    def _choose(self, lba, sector_count, pool):
        # One pass: the targets tied at the lowest count, in pool order.
        outstanding = self._outstanding
        best = None
        shortest: list = []
        for target in pool:
            count = outstanding.get(target, 0)
            if best is None or count < best:
                best = count
                shortest = [target]
            elif count == best:
                shortest.append(target)
        choice = shortest[self._tiebreak % len(shortest)]
        self._tiebreak += 1
        return choice


class RttAwareSelector(ReplicaSelector):
    """Route to the lowest smoothed RTT.

    Each target gets its own Jacobson/Karels estimator, fed by the
    router's completion callbacks.  Targets without a sample yet are
    probed first; afterwards every :data:`EXPLORE_EVERY`-th decision
    round-robins so a slow replica's estimate can recover.
    """

    policy = "rtt-aware"

    EXPLORE_EVERY = 16

    def __init__(self, replicas, telemetry=NULL_TELEMETRY):
        super().__init__(replicas, telemetry=telemetry)
        self._estimators: dict[str, RttEstimator] = {}
        self._explore_cursor = 0

    def estimator(self, target: str) -> RttEstimator:
        estimator = self._estimators.get(target)
        if estimator is None:
            estimator = RttEstimator()
            self._estimators[target] = estimator
        return estimator

    def note_complete(self, target, rtt_seconds, ok=True):
        super().note_complete(target, rtt_seconds, ok=ok)
        if ok:
            self.estimator(target).observe(rtt_seconds)
        else:
            self.estimator(target).back_off()

    def _choose(self, lba, sector_count, pool):
        unprobed = [t for t in pool
                    if self.estimator(t).samples == 0]
        if unprobed:
            return unprobed[0]
        if self.decisions % self.EXPLORE_EVERY == self.EXPLORE_EVERY - 1:
            choice = pool[self._explore_cursor % len(pool)]
            self._explore_cursor += 1
            return choice
        return min(pool, key=lambda t: (self.estimator(t).srtt, t))

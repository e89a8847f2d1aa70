"""Placement: which free node should the next deployment land on?

On a cloud with the reclaim-and-preserve path, free nodes are not
interchangeable: one that recently ran the same image still holds its
pristine blocks on disk (and may be advertising them to the peer
fabric), so deploying *there* skips most of the fetch traffic.

* :class:`RoundRobinPlacement` — the oblivious baseline: rotate
  through free nodes in index order.
* :class:`CacheAwarePlacement` — score each free node by how many of
  the requested image's copy blocks it already holds, preferring the
  peer directory's advertised summary (exact, includes what the node
  serves to others) and falling back to the lifecycle record's
  preserved warm set on non-p2p testbeds.  Ties and zero-score nodes
  decay to round-robin order so cold nodes still wear evenly.

``benchmarks/bench_elasticity.py`` measures the difference as p95
time-to-ready at equal fleet size.
"""

from __future__ import annotations


class RoundRobinPlacement:
    """Rotate through free nodes in index order (cache-oblivious)."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def choose(self, pool, free_nodes, image_blocks) -> int:
        """Pick one of ``free_nodes`` (NodeRecords); returns its index."""
        indexes = sorted(record.index for record in free_nodes)
        for candidate in indexes:
            if candidate >= self._next:
                self._next = candidate + 1
                return candidate
        # Wrapped: take the lowest free index.
        chosen = indexes[0]
        self._next = chosen + 1
        return chosen


class CacheAwarePlacement:
    """Prefer the free node with the most image blocks already local."""

    name = "cache-aware"

    def __init__(self):
        self._fallback = RoundRobinPlacement()

    def score(self, pool, record, image_blocks) -> int:
        """Copy blocks of the wanted image this node already holds."""
        peer_port = pool.peer_port_of(record.index)
        if peer_port is not None:
            advertised = pool.testbed.fabric.directory.overlap(
                peer_port, image_blocks)
            if advertised:
                return advertised
        # Non-p2p testbed (or the responder is down): trust the
        # lifecycle record of what the last reclaim preserved.
        return len(record.warm_blocks & image_blocks)

    def choose(self, pool, free_nodes, image_blocks) -> int:
        scored = sorted(
            ((self.score(pool, record, image_blocks), record.index)
             for record in free_nodes),
            key=lambda pair: (-pair[0], pair[1]))
        best_score, best_index = scored[0]
        if best_score == 0:
            # Nothing warm anywhere: wear-level like the baseline.
            return self._fallback.choose(pool, free_nodes, image_blocks)
        return best_index


def image_block_set(testbed) -> set[int]:
    """Copy-block indexes the testbed's image occupies.

    The ``wanted`` set placement scores against, in the fabric's block
    geometry (it must match the peer directory).
    """
    return set(testbed.fabric.blocks_of(0, testbed.image.total_sectors))


#: Name -> zero-argument factory, for the CLI and benches.
PLACEMENTS = {
    "round-robin": RoundRobinPlacement,
    "cache-aware": CacheAwarePlacement,
}

"""Initiator-side fetch routing over replicas and peers.

The :class:`FetchRouter` is every BMcast VMM's one fetch path: the
deployment context and background copier call :meth:`read_blocks`,
and the router decides *where* each read goes (on a one-server
testbed, always the one replica).

Routing order per request:

1. **Peers first** (when the fabric runs p2p): if the directory lists
   peers advertising every copy block of the range, fetch from one —
   chosen by the selection policy — and fall back on NAK or timeout.
   NAKs also repair the directory entry that misled us.
2. **Origin replicas**: pick one via the policy.  Origin failures
   (:class:`~repro.aoe.client.AoeTimeoutError`) propagate to the
   caller — the copier's outage backoff stays in charge.

Writes never route: they go to the primary origin target untouched.
"""

from __future__ import annotations

from repro.aoe.client import AoeNakError, AoeTimeoutError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.storage.blockdev import coalesce_runs

#: Frame tag for peer-to-peer chunk traffic (switch accounting).
PEER_PROTOCOL = "aoe-peer"


class FetchRouter:
    """Routes one VMM's image fetches through the distribution fabric."""

    def __init__(self, env, initiator, fabric, node_port: str,
                 telemetry=NULL_TELEMETRY):
        self.env = env
        self.initiator = initiator
        self.fabric = fabric
        self.node_port = node_port
        self.selector = fabric.make_selector(telemetry=telemetry)
        self.telemetry = telemetry
        # Metrics.
        self.peer_hits = 0
        self.peer_misses = 0
        self.origin_fetches = 0
        #: Peer port -> fetches it served us.  The elastic control
        #: plane reads this to prove reclaimed warm nodes actually fed
        #: the next scale-up.
        self.peer_hits_by_target: dict[str, int] = {}
        registry = telemetry.registry
        # Disabled telemetry is skipped, not called.
        self._metered = registry.enabled
        self._profiling = telemetry.tracer.profiling
        self._provenance = telemetry.provenance.enabled
        self._m_peer_hits = registry.counter(
            "dist_peer_hits_total", node=node_port,
            help="fetches served by a peer instead of an origin replica")
        self._m_peer_misses = registry.counter(
            "dist_peer_misses_total", node=node_port,
            help="peer fetch attempts that fell back to origin")
        self._m_hit_ratio = registry.gauge(
            "dist_peer_hit_ratio", node=node_port,
            help="fraction of fetches served by peers so far")

    # -- stats -------------------------------------------------------------------

    @property
    def total_fetches(self) -> int:
        return self.peer_hits + self.origin_fetches

    @property
    def peer_hit_ratio(self) -> float:
        total = self.total_fetches
        return self.peer_hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "peer_hits": self.peer_hits,
            "peer_misses": self.peer_misses,
            "origin_fetches": self.origin_fetches,
            "peer_hit_ratio": round(self.peer_hit_ratio, 4),
            "peer_hits_by_target": dict(
                sorted(self.peer_hits_by_target.items())),
            "replica_load": dict(sorted(self.selector.load.items())),
        }

    # -- fetch path --------------------------------------------------------------

    def read_blocks(self, lba: int, sector_count: int,
                    bulk: bool = False, fluid: bool = False):
        """Generator: fetch content runs via the fabric.

        Takes :meth:`AoeInitiator.read_blocks`'s range, ``bulk`` and
        ``fluid`` arguments; the router picks the target.  ``fluid``
        applies only to origin fetches (peer gossip demotes fluid mode
        at arm time, but the threading is defensive either way: peer
        legs always run packet mode).  Without p2p it returns the origin
        fetch itself, a generator frame fewer to resume.
        """
        if self.fabric.p2p:
            return self._read_from_fabric(lba, sector_count, bulk, fluid)
        return self._fetch_from_origin(lba, sector_count, bulk, fluid)

    def _read_from_fabric(self, lba: int, sector_count: int, bulk: bool,
                          fluid: bool):
        """Generator: :meth:`read_blocks`, peers first."""
        blocks = self.fabric.blocks_of(lba, sector_count)
        if bulk and len(blocks) > 1:
            # Coalesced multi-block run from the copier: route it
            # segment by segment so partial peer coverage still serves
            # what it can.
            runs = yield from self._read_segmented(lba, sector_count,
                                                   blocks, fluid)
            return runs
        peer = self._pick_peer(lba, sector_count)
        if peer is not None:
            runs = yield from self._fetch_from_peer(
                peer, lba, sector_count, bulk)
            if runs is not None:
                return runs
        runs = yield from self._fetch_from_origin(lba, sector_count, bulk,
                                                  fluid)
        return runs

    def _read_segmented(self, lba: int, sector_count: int,
                        blocks: list, fluid: bool = False):
        """Split a coalesced bulk run into per-target segments.

        A single peer rarely advertises every block of a long run —
        requiring full coverage would send whole runs to origin and
        starve the peer fabric.  Instead the run is cut into maximal
        contiguous segments: at each position, either the widest block
        prefix some one peer fully covers (fetched from that peer, with
        the usual NAK/timeout fallback to origin), or the prefix of
        blocks no peer advertises (fetched from an origin replica in
        one transaction).  Segments stay in LBA order, so the returned
        runs concatenate and coalesce directly.
        """
        directory = self.fabric.directory
        own = self._own_peer_port
        block_sectors = self.fabric.block_sectors
        end = lba + sector_count
        runs: list = []
        index = 0
        total = len(blocks)
        while index < total:
            peers = directory.peers_for([blocks[index]], exclude=own)
            stop = index + 1
            if peers:
                while stop < total:
                    wider = directory.peers_for(blocks[index:stop + 1],
                                                exclude=own)
                    if not wider:
                        break
                    peers = wider
                    stop += 1
            else:
                while stop < total and not directory.peers_for(
                        [blocks[stop]], exclude=own):
                    stop += 1
            seg_start = max(lba, blocks[index] * block_sectors)
            seg_end = min(end, (blocks[stop - 1] + 1) * block_sectors)
            seg_count = seg_end - seg_start
            seg_runs = None
            if peers:
                peer = self.selector.select(seg_start, seg_count,
                                            candidates=peers)
                seg_runs = yield from self._fetch_from_peer(
                    peer, seg_start, seg_count, True)
            if seg_runs is None:
                seg_runs = yield from self._fetch_from_origin(
                    seg_start, seg_count, True, fluid)
            runs.extend(seg_runs)
            index = stop
        return coalesce_runs(runs)

    def _pick_peer(self, lba: int, sector_count: int) -> str | None:
        blocks = self.fabric.blocks_of(lba, sector_count)
        peers = self.fabric.directory.peers_for(blocks,
                                                exclude=self._own_peer_port)
        if not peers:
            return None
        return self.selector.select(lba, sector_count, candidates=peers)

    @property
    def _own_peer_port(self) -> str:
        return self.fabric.peer_port_of(self.node_port)

    def _fetch_from_peer(self, peer: str, lba: int, sector_count: int,
                         bulk: bool):
        started = self.env.now
        self.selector.note_sent(peer)
        try:
            with self.telemetry.tracer.track("peer-fabric", "peer-fetch"):
                runs = yield from self.initiator.read_blocks(
                    lba, sector_count, bulk=bulk, target=peer,
                    protocol=PEER_PROTOCOL)
        except (AoeNakError, AoeTimeoutError):
            # The peer cannot (or can no longer) serve the range; fix
            # the directory so the next request skips it, and fall back.
            self.selector.note_complete(peer, self.env.now - started,
                                        ok=False)
            for block in self.fabric.blocks_of(lba, sector_count):
                self.fabric.directory.invalidate(peer, block)
            self.peer_misses += 1
            self._m_peer_misses.inc()
            return None
        self.selector.note_complete(peer, self.env.now - started)
        self.peer_hits += 1
        self.peer_hits_by_target[peer] = \
            self.peer_hits_by_target.get(peer, 0) + 1
        self._m_peer_hits.inc()
        self._m_hit_ratio.set(self.peer_hit_ratio)
        self.telemetry.provenance.note_fetch(
            self.node_port, lba, sector_count, peer, "peer", started,
            block_sectors=self.fabric.block_sectors)
        return runs

    def _fetch_from_origin(self, lba: int, sector_count: int,
                           bulk: bool, fluid: bool = False):
        target = self.selector.select(lba, sector_count)
        started = self.env.now
        self.selector.note_sent(target)
        tracer = self.telemetry.tracer
        span = tracer.open("origin-fetch", component="origin") \
            if self._profiling else None
        try:
            try:
                runs = yield from self.initiator.read_blocks(
                    lba, sector_count, bulk=bulk, target=target,
                    fluid=fluid)
            finally:
                if span is not None:
                    tracer.close(span)
        except AoeTimeoutError:
            self.selector.note_complete(target, self.env.now - started,
                                        ok=False)
            raise
        self.selector.note_complete(target, self.env.now - started)
        self.origin_fetches += 1
        if self._metered:
            self._m_hit_ratio.set(self.peer_hit_ratio)
        if self._provenance:
            self.telemetry.provenance.note_fetch(
                self.node_port, lba, sector_count, target, "origin",
                started, block_sectors=self.fabric.block_sectors)
        return runs

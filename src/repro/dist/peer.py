"""Peer-to-peer chunk serving for scale-out deployments.

A deploying (or already deployed) node runs a lightweight AoE responder
— :class:`PeerChunkService` — on its own switch port.  It serves only
sectors whose copy blocks its deployment bitmap marks FILLED *and* not
tainted by a guest write (pristine image data, as the bitmap records
it); anything else gets an immediate :class:`~repro.aoe.protocol.AoeNak`
so the requester can fall back to an origin replica without burning its
retry budget.

Nodes advertise what they can serve with *bitmap summaries* — the set
of pristine filled copy-block indexes — published to the fabric's
:class:`PeerDirectory`.  Publication piggybacks on traffic the node is
already generating (the copier's fetch stream), so a summary costs no
extra frames; it is batched every :data:`PeerChunkService.ANNOUNCE_BLOCKS`
block fills.  Summaries only ever *add* blocks, so a stale entry is
safe: at worst a request hits a peer whose block was just tainted by a
guest write, and the NAK path corrects the directory.
"""

from __future__ import annotations

from repro.aoe.protocol import AoeNak
from repro.aoe.server import AoeServer
from repro.obs.telemetry import NULL_TELEMETRY
from repro.storage.blockdev import BlockOp, BlockRequest


class PeerDirectory:
    """Fabric-wide view of which peer serves which copy blocks.

    The control-plane side of gossip: entries are written by each
    node's chunk service when it publishes a summary and read by every
    fetch router.  Lookups return a deterministically ordered list so
    simulation runs replay identically.
    """

    def __init__(self):
        self._summaries: dict[str, set[int]] = {}
        #: Called with ``(event, port, **details)`` on every directory
        #: mutation — ``"publish"`` (``blocks=`` the new summary),
        #: ``"invalidate"`` (``block=``) and ``"withdraw"``.  The AoE
        #: conformance validator uses this to prove every NAK is
        #: followed by the matching invalidation.
        self.listeners: list = []
        self.publishes = 0
        self.invalidations = 0

    def _notify(self, event: str, port: str, **details) -> None:
        for listener in self.listeners:
            listener(event, port, **details)

    def publish(self, port: str, blocks) -> None:
        """Replace ``port``'s advertised block set."""
        self._summaries[port] = set(blocks)
        self.publishes += 1
        if self.listeners:
            self._notify("publish", port,
                         blocks=frozenset(self._summaries[port]))

    def withdraw(self, port: str) -> None:
        """Remove a peer entirely (service stopped)."""
        self._summaries.pop(port, None)
        if self.listeners:
            self._notify("withdraw", port)

    def invalidate(self, port: str, block: int) -> None:
        """A NAK proved ``port`` no longer serves ``block``."""
        summary = self._summaries.get(port)
        if summary is not None:
            summary.discard(block)
            self.invalidations += 1
            if self.listeners:
                self._notify("invalidate", port, block=block)

    def peers_for(self, blocks, exclude: str | None = None) -> list[str]:
        """Ports advertising *every* block in ``blocks``, sorted."""
        wanted = set(blocks)
        return sorted(
            port for port, summary in self._summaries.items()
            if port != exclude and wanted <= summary)

    def advertised(self, port: str) -> set[int]:
        return set(self._summaries.get(port, ()))

    def overlap(self, port: str, blocks) -> int:
        """How many of ``blocks`` the peer at ``port`` advertises.

        The cache-aware placement policy (repro.ctl) scores free nodes
        by this overlap with the requested image's block set before
        falling back to round-robin.
        """
        summary = self._summaries.get(port)
        if not summary:
            return 0
        wanted = blocks if isinstance(blocks, (set, frozenset)) \
            else set(blocks)
        return len(summary & wanted)

    def __len__(self) -> int:
        return len(self._summaries)


class LocalChunkStore:
    """Store adapter serving AoE reads from the node's local disk.

    Peer reads go through the real :class:`~repro.storage.disk.Disk`
    (its actuator Resource and seek model), so serving chunks competes
    honestly with the node's own deployment and guest I/O.
    """

    def __init__(self, env, disk):
        self.env = env
        self.disk = disk
        self.reads = 0

    def start_read(self, lba: int, sector_count: int, done,
                   parent=None) -> None:
        """Content runs from the local platters: ``done(runs)``.  The
        disk's component span nests under ``parent``."""
        self.reads += 1
        request = BlockRequest(BlockOp.READ, lba, sector_count,
                               origin="peer")
        self.disk.start(request, lambda read: done(list(read.buffer.runs)),
                        parent=parent)

    def start_write(self, lba: int, runs: list, done) -> None:
        raise RuntimeError("peer chunk service is read-only")


class PeerChunkService(AoeServer):
    """The lightweight AoE responder a deploying node runs.

    Reuses the origin target's receive/serve machinery with three
    differences: it reads from the local disk instead of an image
    store, it answers only for pristine FILLED blocks (NAK otherwise),
    and it keeps a modest worker pool so serving peers never starves
    the node's own deployment.
    """

    PROTOCOL = "aoe-peer"
    COMPONENT = "peer-fabric"

    #: Publish a summary update every this many newly filled blocks.
    ANNOUNCE_BLOCKS = 8

    def __init__(self, env, nic, disk, bitmap,
                 directory: PeerDirectory,
                 workers: int = 2, telemetry=NULL_TELEMETRY):
        super().__init__(env, nic, LocalChunkStore(env, disk),
                         workers=workers, telemetry=telemetry)
        self.bitmap = bitmap
        self.directory = directory
        self._unannounced = 0
        # Metrics.
        self.chunks_served = 0
        self.naks_sent = 0
        registry = telemetry.registry
        self._m_chunks = registry.counter(
            "peer_chunks_served_total", node=nic.name,
            help="AoE read commands served from this peer's local disk")
        self._m_naks = registry.counter(
            "peer_naks_total", node=nic.name,
            help="peer requests refused (block not servable)")

    # -- servability --------------------------------------------------------------

    def servable(self, lba: int, sector_count: int) -> bool:
        """True when the whole range is pristine, copier-filled data."""
        bitmap = self.bitmap
        for block in bitmap.blocks_overlapping(lba, sector_count):
            if block in bitmap.tainted or not bitmap.is_filled(block):
                return False
        return True

    def summary(self) -> set[int]:
        """Pristine filled copy-block indexes — the gossip payload."""
        return self.bitmap.pristine_blocks()

    # -- gossip -------------------------------------------------------------------

    def publish(self) -> None:
        """Push the current summary to the directory now."""
        self.directory.publish(self.nic.name, self.summary())
        self._unannounced = 0

    def note_block_filled(self, block: int) -> None:
        """Copier callback: batch-publish every ANNOUNCE_BLOCKS fills.

        The update rides on the AoE command stream the copier is
        already sending (zero extra frames) — hence no wire cost here.
        """
        self._unannounced += 1
        if self._unannounced >= self.ANNOUNCE_BLOCKS \
                or self.bitmap.complete:
            self.publish()

    def stop(self) -> None:
        self.directory.withdraw(self.nic.name)
        super().stop()

    def serve_warm(self) -> None:
        """Re-arm a stopped responder as a free-node warm source.

        The reclaim path (repro.ctl) preserves a node's pristine image
        blocks on the local disk; restarting the responder and
        re-publishing the summary turns the *free* node into a peer
        source for the next scale-up — capacity the fabric gets back
        for nothing.
        """
        self.start()
        self.publish()

    # -- serving ------------------------------------------------------------------

    def _serve_read(self, serve) -> None:
        command = serve.command
        if not self.servable(command.lba, command.sector_count):
            self.naks_sent += 1
            self._m_naks.inc()
            nak = AoeNak(command.tag)
            serve.reply(nak, nak.payload_bytes)
            return
        super()._serve_read(serve)

    def _read_served(self) -> None:
        self.chunks_served += 1
        self._m_chunks.inc()

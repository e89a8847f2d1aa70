"""The distribution fabric: replica set + peer directory + policy.

One :class:`DistFabric` per testbed describes how image data flows at
scale: the origin replica ports (each an independent AoE target over
its own image store), the replica-selection policy every initiator
instantiates, and — when peer-to-peer serving is on — the shared
:class:`~repro.dist.peer.PeerDirectory` the chunk services gossip
their bitmap summaries into.

Every testbed has one: ``build_testbed(server_count=N, p2p=True,
select_policy=...)`` assembles it, and a plain one-server testbed gets
a one-replica fabric.  Every BMcast VMM takes the testbed's fabric and
routes all its fetches through a per-node
:class:`~repro.dist.router.FetchRouter`; there is no fabric-less fetch
path.
"""

from __future__ import annotations

from repro import params
from repro.dist.peer import PeerDirectory
from repro.dist.selector import make_selector
from repro.obs.telemetry import NULL_TELEMETRY

#: Suffix appended to a node's VMM port name to form its peer port.
PEER_PORT_SUFFIX = "-peer"


class DistFabric:
    """Fabric description shared by every node on one testbed."""

    def __init__(self, replica_ports,
                 select_policy: str = "round-robin",
                 p2p: bool = False,
                 block_bytes: int = params.COPY_BLOCK_BYTES,
                 telemetry=NULL_TELEMETRY):
        self.replica_ports = list(replica_ports)
        if not self.replica_ports:
            raise ValueError("fabric needs at least one replica port")
        self.select_policy = select_policy
        self.p2p = p2p
        self.block_sectors = block_bytes // params.SECTOR_BYTES
        self.directory = PeerDirectory()
        self.telemetry = telemetry
        # Validate the policy name eagerly (fail at build, not deploy).
        make_selector(select_policy, self.replica_ports)

    def make_selector(self, telemetry=None):
        """A fresh selector instance for one initiator."""
        return make_selector(self.select_policy, self.replica_ports,
                             telemetry=telemetry or self.telemetry)

    def blocks_of(self, lba: int, sector_count: int) -> list[int]:
        """Copy-block indexes overlapped by a sector range."""
        first = lba // self.block_sectors
        last = (lba + sector_count - 1) // self.block_sectors
        return list(range(first, last + 1))

    @staticmethod
    def peer_port_of(vmm_port: str) -> str:
        """The peer-service port name for a node's VMM port."""
        return vmm_port + PEER_PORT_SUFFIX

    def describe(self) -> dict:
        return {
            "replicas": list(self.replica_ports),
            "select_policy": self.select_policy,
            "p2p": self.p2p,
            "peers_registered": len(self.directory),
        }

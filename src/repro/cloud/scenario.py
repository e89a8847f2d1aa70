"""Canned testbeds matching the paper's experimental environment.

A :class:`Testbed` wires up one (or more) target machines, the gigabit
management network, the AoE storage server, and an OS image — the
PRIMERGY cluster of Section 5 in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import params
from repro.aoe.server import AoeServer, ImageStore
from repro.dist import DistFabric
from repro.guest.osimage import OsImage
from repro.hw.machine import Machine, MachineSpec
from repro.net.infiniband import IbFabric, IbHca
from repro.net.link import EthernetSwitch, LossModel
from repro.net.nic import Nic
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim import Environment
from repro.storage.ahci import AhciController
from repro.storage.disk import Disk
from repro.storage.ide import IdeController
from repro.storage.megaraid import MegaRaidController


@dataclass
class TestbedNode:
    """One target machine with its devices."""

    machine: Machine
    disk: Disk
    controller: object
    guest_nic: Nic
    vmm_nic: Nic
    ib_hca: IbHca | None = None
    #: Switch port for the node's peer chunk service (p2p fabrics only).
    peer_nic: Nic | None = None


@dataclass
class Testbed:
    """The full experimental environment."""

    env: Environment
    switch: EthernetSwitch
    image: OsImage
    #: The origin replicas, one entry per replica; the baselines use
    #: the first.
    servers: list[AoeServer]
    stores: list[ImageStore]
    server_ports: list[str]
    #: Origin replicas and policy every BMcast VMM fetches through.
    fabric: DistFabric
    nodes: list[TestbedNode] = field(default_factory=list)
    ib_fabric: IbFabric | None = None
    telemetry: object = NULL_TELEMETRY

    @property
    def node(self) -> TestbedNode:
        """The first (often only) node."""
        return self.nodes[0]


def build_testbed(node_count: int = 1,
                  disk_controller: str = "ahci",
                  image: OsImage | None = None,
                  mtu: int = params.GBE_MTU,
                  loss_probability: float = 0.0,
                  loss_seed: int = 97,
                  server_count: int = 1,
                  select_policy: str = "round-robin",
                  p2p: bool = False,
                  server_workers: int = 8,
                  server_cache_hit_ratio: float = 0.5,
                  with_infiniband: bool = False,
                  has_preemption_timer: bool = True,
                  env: Environment | None = None,
                  telemetry=NULL_TELEMETRY) -> Testbed:
    """Assemble the paper's testbed.

    Defaults follow Section 5: gigabit Ethernet with 9000-byte MTU, a
    thread-pooled AoE server, AHCI local disks, and a 32-GB image.

    ``server_count`` origin replicas share one logical image (each gets
    its own :class:`ImageStore` and switch port); ``select_policy``
    names the replica-selection policy every initiator runs, and
    ``p2p`` additionally gives every node a peer chunk-service port so
    deployments can seed each other.  ``loss_seed`` varies the loss
    model's random stream without changing the loss rate.

    ``telemetry`` (a :class:`repro.obs.Telemetry` built on the same
    ``env``) is threaded into the switch, every NIC, and the AoE
    server; the provisioner and VMM pick it up from the testbed.
    """
    env = env or Environment()
    if telemetry.enabled and telemetry.env is not env:
        raise ValueError(
            "telemetry must be built on the same Environment as the "
            "testbed (pass env= alongside telemetry=)")
    if server_count < 1:
        raise ValueError("server_count must be >= 1")
    switch = EthernetSwitch(env, mtu=mtu,
                            loss=LossModel(loss_probability,
                                           seed=loss_seed),
                            telemetry=telemetry)
    image = image or OsImage()

    # Origin replica set: independent AoE targets over the same logical
    # image.  The first keeps the historical "server" port name so
    # single-server callers see no change.
    servers: list[AoeServer] = []
    stores: list[ImageStore] = []
    server_ports: list[str] = []
    for replica in range(server_count):
        port = "server" if replica == 0 else f"server-r{replica}"
        replica_store = ImageStore(
            env, image.contents, image.total_sectors,
            cache_hit_ratio=server_cache_hit_ratio)
        replica_nic = Nic(env, switch, port, rx_ring_size=8192,
                          telemetry=telemetry)
        replica_server = AoeServer(env, replica_nic, replica_store,
                                   workers=server_workers,
                                   telemetry=telemetry)
        replica_server.start()
        servers.append(replica_server)
        stores.append(replica_store)
        server_ports.append(port)

    dist_fabric = DistFabric(server_ports, select_policy=select_policy,
                             p2p=p2p, telemetry=telemetry)

    ib_fabric = IbFabric(env) if with_infiniband else None

    testbed = Testbed(env=env, switch=switch, image=image,
                      servers=servers, stores=stores,
                      server_ports=server_ports,
                      fabric=dist_fabric, ib_fabric=ib_fabric,
                      telemetry=telemetry)

    for index in range(node_count):
        name = f"node{index}"
        spec = MachineSpec(disk_controller=disk_controller,
                           has_preemption_timer=has_preemption_timer)
        machine = Machine(env, spec, name=name)
        disk = Disk(env, telemetry=telemetry)
        if disk_controller == "ide":
            controller = IdeController(env, disk, machine)
        elif disk_controller == "ahci":
            controller = AhciController(env, disk, machine)
        elif disk_controller == "megaraid":
            controller = MegaRaidController(env, disk, machine)
        else:
            raise ValueError(
                f"unknown controller kind {disk_controller!r}")
        guest_nic = Nic(env, switch, f"{name}-eth0",
                        telemetry=telemetry)
        vmm_nic = Nic(env, switch, f"{name}-eth1", rx_ring_size=8192,
                      telemetry=telemetry)
        machine.attach_nic(guest_nic)
        machine.attach_nic(vmm_nic)
        peer_nic = None
        if p2p:
            peer_nic = Nic(env, switch,
                           dist_fabric.peer_port_of(vmm_nic.name),
                           rx_ring_size=8192, telemetry=telemetry)
        hca = IbHca(env, ib_fabric, machine) if with_infiniband else None
        testbed.nodes.append(TestbedNode(
            machine=machine, disk=disk, controller=controller,
            guest_nic=guest_nic, vmm_nic=vmm_nic, ib_hca=hca,
            peer_nic=peer_nic))

    return testbed

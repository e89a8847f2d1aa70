"""Per-frame, per-command and per-request paths run as callbacks.

The switch's receive leg, the disk controllers' commands and the AoE
server's request handling used to spawn one simulation process each.
They now run as callback machines: no kick-start event, no exit event,
no generator.  The instants pinned in ``SCENARIOS`` are the ones the
process-per-operation code produced; every scenario must reproduce
them bit for bit with fewer events than that code processed.

``HANDOFF_SCENARIOS`` does the same for the hops dropped after that: a
received frame handed straight to its AoE consumer, a free port taken
in place and a free receiving port booked from a frame's arrival to its
delivery, and an AoE exchange waking its caller once, at the poll tick
after the reply.  Their instants and event counts are the ones the
code with those hops produced.

Each scenario returns ``(instants, events)``: ``instants`` maps a label
to the instant something observable happened (a sender returned, a
payload reached a port, a command completed), ``events`` is
``Environment.events_processed`` at the end.

``HOP_DEVIATIONS`` pins, at today's instants, a same-instant tie the
dropped kick-start changes.  The tie fuzz runs random switch scenarios
against the receive leg as a process (``ReferenceSwitch``), and frame
trains sent by callbacks against the frame path with every hop
(``HopSwitch``), and pins the seeds whose instants differ.  Both
references carry their bulk streams with every hop too (a grant event
per lock request, and the two done hops), so the fuzz also checks the
bulk locks taken in place and the done callbacks.
"""

import pytest

from repro import params
from repro.aoe.client import AoeInitiator
from repro.aoe.protocol import AoeAck, AoeCommand, AoeDataFragment, AoeNak
from repro.aoe.server import AoeServer, ImageStore
from repro.dist.peer import PeerChunkService, PeerDirectory
from repro.hw.machine import Machine, MachineSpec
from repro.net.e1000 import E1000Nic
from repro.net.link import (BULK_CHUNK_BYTES, EthernetSwitch, LossModel,
                            _BulkStream, _FrameRequest, _PortLock, _Request)
from repro.net.packet import Frame
from repro.net.nic import Nic
from repro.sim import Environment
from repro.storage import ahci, ide, megaraid
from repro.storage.blockdev import BlockOp, BlockRequest, SectorBuffer
from repro.storage.disk import Disk
from repro.util.intervalmap import IntervalMap
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.mediator_nic import NicMediator, SharedNicPort

MB = 2**20
PER_FRAME = 8740
FRAME_BYTES = 9000
BLOCK_SECTORS = params.COPY_BLOCK_BYTES // params.SECTOR_BYTES


# -- switch -------------------------------------------------------------------


def bulk_transfer(switch, src, dst, payload, payload_bytes,
                  per_frame_payload):
    """Generator: one bulk stream; returns one zero-delay hop after the
    receiver holds the payload."""
    done = switch.env.event()
    switch.start_bulk_transfer(src, dst, payload, payload_bytes,
                               per_frame_payload, "aoe", done.succeed)
    yield done


def switch_run(frames=(), bulks=(), ports="abcd"):
    """Frames ``(label, src, dst, start, payload_bytes)`` and 1 MiB bulk
    streams ``(label, src, dst, start)`` on a bare switch."""
    env = Environment()
    switch = EthernetSwitch(env)
    instants = {}

    class RecordingNic(Nic):
        def deliver(self, frame):
            instants["arrived:" + frame.payload] = env.now
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name) for name in ports}

    def frame(label, src, dst, start, size):
        if start:
            yield env.timeout(start)
        yield from nics[src].send(dst, label, size)
        instants["sent:" + label] = env.now

    def bulk(label, src, dst, start):
        if start:
            yield env.timeout(start)
        yield from bulk_transfer(switch, src, dst, label, MB, PER_FRAME)
        instants["sent:" + label] = env.now

    for op in frames:
        env.process(frame(*op))
    for op in bulks:
        env.process(bulk(*op))
    env.run()
    return instants, env.events_processed


def switch_fan_in():
    # Three senders put a frame on the wire at one instant; all three
    # reach d's receive port at one instant and queue for it.
    return switch_run(frames=[("f0", "a", "d", 0.0, FRAME_BYTES),
                              ("f1", "b", "d", 0.0, FRAME_BYTES),
                              ("f2", "c", "d", 0.0, 1000),
                              ("g0", "a", "d", 0.0, 64)])


def switch_frame_crosses_bulk():
    # Frames cross a bulk stream on its sending and its receiving port,
    # one of them started exactly on a chunk boundary.
    wire = MB + 120 * params.ETH_FRAME_OVERHEAD
    per_chunk = wire * 8.0 / params.GBE_BITS_PER_SECOND / 8
    return switch_run(bulks=[("x", "a", "b", 0.0)],
                      frames=[("f0", "c", "b", 2 * per_chunk, FRAME_BYTES),
                              ("f1", "a", "c", 3 * per_chunk, FRAME_BYTES),
                              ("f2", "d", "b", 2.5e-3, 64)])


# -- disk controllers ---------------------------------------------------------


def disk_contender(env, disk, label, start, lba, instants):
    """A direct ``Disk.execute`` caller (the arm is shared with it)."""
    def run():
        if start:
            yield env.timeout(start)
        request = BlockRequest(BlockOp.READ, lba, 256, origin="vmm")
        yield from disk.execute(request)
        instants[label] = env.now
    env.process(run())


def watch_completions(env, controller, instants, count):
    def run():
        for index in range(count):
            yield controller.completion.wait()
            instants[f"completion{index}"] = env.now
    env.process(run())


def ahci_two_slots(late_contender=False):
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller="ahci"))
    disk = Disk(env)
    controller = ahci.AhciController(env, disk, machine)
    hostmem = machine.hostmem
    headers = [None] * ahci.COMMAND_SLOTS
    controller.pxclb = hostmem.allocate(headers)
    controller.pxcmd = ahci.PXCMD_ST
    controller.pxie = ahci.PXIS_DHRS
    for slot, (command, lba) in enumerate(
            [(ide.CMD_READ_DMA_EXT, 1 << 20), (ide.CMD_WRITE_DMA_EXT, 5000)]):
        buffer = SectorBuffer(lba, 128)
        if command == ide.CMD_WRITE_DMA_EXT:
            buffer.fill_constant("w")
        table = ahci.CommandTable(ahci.CommandFis(command, lba, 128),
                                  prdt=[hostmem.allocate(buffer)])
        headers[slot] = ahci.CommandHeader(hostmem.allocate(table))
    table = ahci.CommandTable(ahci.CommandFis(ide.CMD_FLUSH_CACHE, 0, 0))
    headers[2] = ahci.CommandHeader(hostmem.allocate(table))
    instants = {}
    # The guest holds the arm when both slots are issued, and asks for
    # it again at that very instant, ahead of the write.
    disk_contender(env, disk, "guest0", 0.0, 9 << 20, instants)
    disk_contender(env, disk, "guest1", 2e-3, 3 << 20, instants)
    watch_completions(env, controller, instants, 3)

    def issue():
        yield env.timeout(2e-3)
        controller.mmio_write(controller.abar + ahci.REG_PXCI, 0b11)
        yield env.timeout(1e-3)
        controller.mmio_write(controller.abar + ahci.REG_PXCI, 0b100)

    env.process(issue())
    if late_contender:
        # Asks for the arm at the instant of the PxCI write, but after
        # it: the process code let it in ahead of both slots.
        disk_contender(env, disk, "guest2", 2e-3, 6 << 20, instants)
    env.run()
    instants["busy"] = disk.busy_seconds
    return instants, env.events_processed


def ide_commands():
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller="ide"))
    disk = Disk(env)
    controller = ide.IdeController(env, disk, machine)
    buffer = SectorBuffer(0, 64)
    controller.bm_prdt = machine.hostmem.allocate(buffer)
    instants = {}
    disk_contender(env, disk, "guest0", 0.0, 7 << 20, instants)
    watch_completions(env, controller, instants, 3)

    def issue():
        yield env.timeout(1e-3)
        controller.taskfile.load(4096, 64, ext=True)
        controller.pio_write(ide.REG_COMMAND, ide.CMD_READ_DMA_EXT)
        controller.pio_write(ide.BM_COMMAND, ide.BM_CMD_START)
        yield controller.completion.wait()
        controller.pio_write(ide.BM_COMMAND, 0)
        controller.pio_write(ide.REG_COMMAND, ide.CMD_IDENTIFY)
        yield controller.completion.wait()
        controller.pio_write(ide.REG_COMMAND, ide.CMD_FLUSH_CACHE)

    env.process(issue())
    env.run()
    instants["busy"] = disk.busy_seconds
    return instants, env.events_processed


def megaraid_commands():
    env = Environment()
    machine = Machine(env, MachineSpec(disk_controller="megaraid"))
    disk = Disk(env)
    controller = megaraid.MegaRaidController(env, disk, machine)
    hostmem = machine.hostmem
    instants = {}
    disk_contender(env, disk, "guest0", 0.0, 7 << 20, instants)
    watch_completions(env, controller, instants, 2)

    def post(command, context):
        buffer = SectorBuffer(100, 32)
        frame = megaraid.MfiFrame(command, 100, 32,
                                  hostmem.allocate(buffer), context)
        controller.mmio_write(controller.mmio_base
                              + megaraid.REG_INBOUND_QUEUE,
                              hostmem.allocate(frame))

    def issue():
        yield env.timeout(1e-3)
        post("read", 1)
        post("flush", 2)

    env.process(issue())
    env.run()
    instants["busy"] = disk.busy_seconds
    return instants, env.events_processed


# -- AoE serving --------------------------------------------------------------


def aoe_run(make_server, commands):
    """Commands ``(label, client port, AoeCommand)`` all sent at t=0,
    each from its own port, to the server at port ``server``."""
    env = Environment()
    switch = EthernetSwitch(env)
    instants = {}

    class Client(Nic):
        def deliver(self, frame):
            payload = frame.payload
            if isinstance(payload, AoeDataFragment):
                key = f"{payload.tag}.{payload.fragment_index}"
            elif isinstance(payload, AoeAck):
                key = f"{payload.tag}.ack"
            elif isinstance(payload, AoeNak):
                key = f"{payload.tag}.nak"
            instants[key] = env.now

    server = make_server(env, Nic(env, switch, "server", rx_ring_size=64))
    server.start()
    clients = {port: Client(env, switch, port)
               for port in {port for _, port, _ in commands}}

    def send(label, port, command):
        size = command.frame_bytes()
        yield from clients[port].send("server", command, size)
        instants["sent:" + label] = env.now

    for op in commands:
        env.process(send(*op))
    env.run(until=1.0)
    return server, instants, env.events_processed


def aoe_one_worker():
    contents = IntervalMap()
    contents.set_range(0, 1 << 16, "img")

    def make_server(env, nic):
        store = ImageStore(env, contents, 1 << 16, cache_hit_ratio=0.5)
        return AoeServer(env, nic, store, workers=1)

    server, instants, events = aoe_run(make_server, [
        ("bulk", "c0", AoeCommand(1, "read", 0, 2048, bulk=True)),
        ("frag", "c1", AoeCommand(2, "read", 4096, 64)),
        ("write", "c2", AoeCommand(3, "write", 8192, 16,
                                   payload_runs=((8192, 8208, "w"),))),
        ("frag2", "c3", AoeCommand(4, "read", 100, 8)),
    ])
    instants["served"] = server.commands_served
    instants["fragments"] = server.fragments_sent
    return instants, events


def peer_nak():
    def make_server(env, nic):
        disk = Disk(env)
        bitmap = BlockBitmap(image_sectors=8 * BLOCK_SECTORS)
        bitmap.try_claim(0)
        start, count = bitmap.block_range(0)
        disk.contents.set_range(start, count, "img0")
        bitmap.commit_fill(0)
        return PeerChunkService(env, nic, disk, bitmap, PeerDirectory())

    service, instants, events = aoe_run(make_server, [
        ("miss", "c0", AoeCommand(1, "read", 2 * BLOCK_SECTORS, 16)),
        ("hit", "c1", AoeCommand(2, "read", 0, 16)),
        ("bulk", "c2", AoeCommand(3, "read", 0, 1024, bulk=True)),
    ])
    instants["naks"] = service.naks_sent
    instants["chunks"] = service.chunks_served
    return instants, events


# -- frames sent by callbacks -------------------------------------------------


def callback_run(frames=(), bulks=(), ports="abcd"):
    """As :func:`switch_run`, with every frame sent by ``Nic.start_send``
    and every operation started by a timer's callback."""
    env = Environment()
    switch = EthernetSwitch(env)
    instants = {}

    class RecordingNic(Nic):
        def deliver(self, frame):
            instants["arrived:" + frame.payload] = env.now
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name) for name in ports}

    def record(label):
        def done(_delivered=None):
            instants["sent:" + label] = env.now
        return done

    def frame(label, src, dst, start, size):
        def go(_timer):
            nics[src].start_send(dst, label, size, "aoe", record(label))
        env.timeout(start).callbacks.append(go)

    def bulk(label, src, dst, start):
        def go(_timer):
            switch.start_bulk_transfer(src, dst, label, MB, PER_FRAME,
                                       "aoe", record(label))
        env.timeout(start).callbacks.append(go)

    for op in frames:
        frame(*op)
    for op in bulks:
        bulk(*op)
    env.run()
    return instants, env.events_processed


def lone_frame():
    return callback_run(frames=[("f0", "a", "b", 0.0, FRAME_BYTES)])


def frames_meet_at_port():
    # f0 and f1 reach c's receive port at one instant (f0 booked it);
    # g0 waits behind f0 on a's sending port.
    return callback_run(frames=[("f0", "a", "c", 0.0, FRAME_BYTES),
                                ("f1", "b", "c", 0.0, FRAME_BYTES),
                                ("g0", "a", "c", 0.0, 64)])


def frames_meet_bulk_at_boundary():
    # As switch_frame_crosses_bulk, the frames sent by callbacks.
    wire = MB + 120 * params.ETH_FRAME_OVERHEAD
    per_chunk = wire * 8.0 / params.GBE_BITS_PER_SECOND / 8
    return callback_run(bulks=[("x", "a", "b", 0.0)],
                        frames=[("f0", "c", "b", 2 * per_chunk,
                                 FRAME_BYTES),
                                ("f1", "a", "c", 3 * per_chunk,
                                 FRAME_BYTES),
                                ("f2", "d", "b", 2.5e-3, 64)])


# -- AoE exchanges --------------------------------------------------------------


class DropFirstFragment(LossModel):
    """Drops the first AoE data fragment put on the wire."""

    def __init__(self):
        super().__init__(0.0)
        self.armed = True

    def drops(self, frame):
        if self.armed and isinstance(frame.payload, AoeDataFragment):
            self.armed = False
            self.dropped += 1
            return True
        return False


def aoe_exchange(ops, shared=False, loss=None):
    """AoE operations ``(label, start, op, lba, sectors)`` from one
    initiator to a two-worker target; the initiator's port is a plain
    ``Nic`` or, with ``shared``, a mediated e1000's ``SharedNicPort``.
    Records when each operation returned to its caller and the
    initiator's protocol milestones."""
    env = Environment()
    switch = EthernetSwitch(env, loss=loss)
    contents = IntervalMap()
    contents.set_range(0, 1 << 16, "img")
    store = ImageStore(env, contents, 1 << 16, cache_hit_ratio=0.5)
    server = AoeServer(env, Nic(env, switch, "server"), store, workers=2)
    server.start()
    if shared:
        machine = Machine(env, MachineSpec())
        device = E1000Nic(env, switch, "vmm", machine,
                          mmio_base=0xFE00_0000)
        mediator = NicMediator(env, machine, device)
        mediator.install()
        nic = SharedNicPort(mediator)
    else:
        nic = Nic(env, switch, "vmm")
    client = AoeInitiator(env, nic, "server", poll_interval=100e-6)
    instants = {}
    milestones = []

    def observe(kind, **_fields):
        milestones.append(kind)
        instants[f"{kind}{milestones.count(kind)}"] = env.now

    client.observers.append(observe)

    def run(label, start, op, lba, sectors):
        if start:
            yield env.timeout(start)
        if op == "write":
            yield from client.write_blocks(lba, sectors,
                                           [(lba, lba + sectors, "w")])
        else:
            runs = yield from client.read_blocks(lba, sectors,
                                                 bulk=op == "bulk")
            assert runs == [(lba, lba + sectors, "img")]
        instants[label] = env.now

    for op in ops:
        env.process(run(*op))
    env.run(until=0.5)
    instants["retransmissions"] = client.retransmissions
    instants["served"] = server.commands_served
    instants["srtt"] = client.rtt.srtt
    return instants, env.events_processed


AOE_OPS = [("bulk", 0.0, "bulk", 0, 2048), ("frag", 0.0, "read", 4096, 64),
           ("write", 1e-3, "write", 8192, 16),
           ("frag2", 2e-3, "read", 100, 8)]


def aoe_over_nic():
    return aoe_exchange(AOE_OPS)


def aoe_over_shared_nic():
    return aoe_exchange(AOE_OPS, shared=True)


def aoe_rto_retransmit():
    return aoe_exchange([("frag", 0.0, "read", 4096, 64)],
                        loss=DropFirstFragment())


#: name -> (scenario, instants and figures, events the
#: process-per-operation code processed).
SCENARIOS = {
    "switch-fan-in": (
        switch_fan_in,
        {"sent:f2": 8.304e-06, "arrived:f2": 3.6608e-05,
         "sent:f0": 7.2304e-05, "sent:f1": 7.2304e-05, "sent:g0": 7.312e-05,
         "arrived:f0": 0.000164608, "arrived:f1": 0.000236912,
         "arrived:g0": 0.000237728},
        40),
    "switch-frame-crosses-bulk": (
        switch_frame_crosses_bulk,
        {"sent:f0": 0.002178576, "sent:f2": 0.002500816,
         "arrived:f0": 0.0032317120000000003,
         "sent:f1": 0.0032317120000000003, "arrived:f2": 0.003232528,
         "arrived:f1": 0.0033240160000000004,
         "arrived:x": 0.009551343999999998, "sent:x": 0.009551343999999998},
        52),
    "ahci-two-slots": (
        ahci_two_slots,
        {"completion0": 0.005, "guest0": 0.006788057246737202,
         "guest1": 0.013310558818170733,
         "completion1": 0.018771576923009674,
         "completion2": 0.024055211960029795,
         "busy": 0.024055211960029795},
        29),
    "ide-commands": (
        ide_commands,
        {"guest0": 0.006617158947910229,
         "completion0": 0.012390896500210623,
         "completion1": 0.012590896500210624,
         "completion2": 0.014590896500210624,
         "busy": 0.012390896500210623},
        22),
    "megaraid-commands": (
        megaraid_commands,
        {"completion0": 0.003, "guest0": 0.006617158947910229,
         "completion1": 0.012250729401035092,
         "busy": 0.012250729401035092},
        18),
    "aoe-one-worker": (
        aoe_one_worker,
        {"sent:bulk": 5.92e-07, "sent:frag": 5.92e-07,
         "sent:write": 5.92e-07, "sent:frag2": 5.92e-07,
         "1.0": 0.011320127999999999, "2.0": 0.017524535999999997,
         "2.1": 0.017597759999999997, "2.2": 0.017670983999999997,
         "2.3": 0.017724823999999997, "3.ack": 0.023669023999999997,
         "4.0": 0.023893271999999997, "served": 4, "fragments": 6},
        118),
    "peer-nak": (
        peer_nak,
        {"sent:miss": 5.92e-07, "sent:hit": 5.92e-07, "sent:bulk": 5.92e-07,
         "1.nak": 4.2368e-05, "2.0": 0.00029728928987993137,
         "3.0": 0.01430273098014084, "naks": 1, "chunks": 2},
        72),
}


#: name -> (scenario, instants and figures, events the code with a
#: grant event per port, a ring hand-off per received frame and a
#: completion event, condition and poll timer per AoE exchange
#: processed).
HANDOFF_SCENARIOS = {
    "lone-frame": (
        lone_frame,
        {"sent:f0": 7.2304e-05, "arrived:f0": 0.000164608},
        7),
    "frames-meet-at-port": (
        frames_meet_at_port,
        {"sent:f0": 7.2304e-05,
         "sent:f1": 7.2304e-05,
         "sent:g0": 7.312e-05,
         "arrived:f0": 0.000164608,
         "arrived:f1": 0.000236912,
         "arrived:g0": 0.000237728},
        21),
    "frames-meet-bulk-at-boundary": (
        frames_meet_bulk_at_boundary,
        {"sent:f0": 0.002178576,
         "sent:f2": 0.002500816,
         "arrived:f0": 0.0032317120000000003,
         "sent:f1": 0.0032317120000000003,
         "arrived:f2": 0.003232528,
         "arrived:f1": 0.0033240160000000004,
         "arrived:x": 0.009551343999999998,
         "sent:x": 0.009551343999999998},
        39),
    "aoe-over-nic": (
        aoe_over_nic,
        {"send1": 0.0,
         "send2": 0.0,
         "send3": 0.001,
         "send4": 0.002,
         "rtt-sample1": 0.0115308,
         "complete1": 0.0115308,
         "bulk": 0.0115808,
         "rtt-sample2": 0.01158464,
         "complete2": 0.01158464,
         "frag": 0.01163464,
         "rtt-sample3": 0.011775639999999999,
         "complete3": 0.011775639999999999,
         "frag2": 0.011825639999999998,
         "rtt-sample4": 0.016562928,
         "complete4": 0.016562928,
         "write": 0.016612928000000002,
         "retransmissions": 0,
         "served": 4,
         "srtt": 0.01974339578515625},
        147),
    "aoe-over-shared-nic": (
        aoe_over_shared_nic,
        {"send1": 0.0,
         "send2": 0.0,
         "send3": 0.001,
         "send4": 0.002,
         "rtt-sample1": 0.011599999999999985,
         "rtt-sample2": 0.011599999999999985,
         "complete1": 0.011599999999999985,
         "complete2": 0.011599999999999985,
         "bulk": 0.011649999999999985,
         "frag": 0.011649999999999985,
         "rtt-sample3": 0.011799999999999984,
         "complete3": 0.011799999999999984,
         "frag2": 0.011849999999999984,
         "rtt-sample4": 0.016599999999999955,
         "complete4": 0.016599999999999955,
         "write": 0.016649999999999957,
         "retransmissions": 0,
         "served": 4,
         "srtt": 0.01975795898437499},
        5161),
    "aoe-rto-retransmit": (
        aoe_rto_retransmit,
        {"send1": 0.0,
         "send2": 0.15000059200000002,
         "complete1": 0.15622618400000002,
         "frag": 0.156276184,
         "retransmissions": 1,
         "served": 2,
         "srtt": 0.025},
        88),
}


#: name -> (scenario, instants and figures, what the process code gave
#: where it differs).  A same-instant tie the dropped kick-start can
#: tell apart, pinned so it cannot widen unnoticed.
HOP_DEVIATIONS = {
    # A direct Disk.execute caller asks for the arm at the instant of
    # the PxCI write but after it.  The slot processes asked one hop
    # later and queued behind it; the slots now queue first.
    "ahci-contender-after-write": (
        lambda: ahci_two_slots(late_contender=True),
        {"completion0": 0.005, "guest0": 0.006788057246737202,
         "guest1": 0.013310558818170733,
         "completion1": 0.018771576923009674,
         "completion2": 0.024055211960029795,
         "guest2": 0.030577207807993563, "busy": 0.030577207807993563},
        {"guest2": 0.01948689212222454,
         "completion1": 0.025344377749348394,
         "completion2": 0.030628012786368515,
         "busy": 0.030628012786368515}),
}


@pytest.mark.parametrize("name", HOP_DEVIATIONS)
def test_hop_deviation_pinned(name):
    scenario, expected, process_code = HOP_DEVIATIONS[name]
    instants, _ = scenario()
    assert instants == expected
    assert all(instants[label] != value
               for label, value in process_code.items())


@pytest.mark.parametrize("name", SCENARIOS)
def test_process_instants_reproduced(name):
    scenario, expected, _ = SCENARIOS[name]
    instants, _ = scenario()
    assert instants == expected


@pytest.mark.parametrize("name", SCENARIOS)
def test_fewer_events_than_processes(name):
    scenario, _, process_events = SCENARIOS[name]
    _, events = scenario()
    assert events < process_events


@pytest.mark.parametrize("name", HANDOFF_SCENARIOS)
def test_handoff_instants_reproduced(name):
    scenario, expected, _ = HANDOFF_SCENARIOS[name]
    instants, _ = scenario()
    assert instants == expected


@pytest.mark.parametrize("name", HANDOFF_SCENARIOS)
def test_fewer_events_than_hops(name):
    scenario, _, hop_events = HANDOFF_SCENARIOS[name]
    _, events = scenario()
    assert events < hop_events


# -- same-instant ties on the switch ----------------------------------------


class HopLock(_PortLock):
    """A port lock granting every bulk-stream request by an event."""

    def acquire(self, request):
        self._do_request(request)
        return False


class HopBulkSwitch(EthernetSwitch):
    """A switch whose bulk streams take every hop they used to: a grant
    event per lock request, a zero-delay event between the last chunk
    leaving the sender and the forwarding-latency timer, and one
    between the delivery and ``done``."""

    def attach(self, name, nic):
        super().attach(name, nic)
        self._tx_locks[name] = HopLock(self.env, self)
        self._rx_locks[name] = HopLock(self.env, self)

    def start_bulk_transfer(self, src, dst, payload, payload_bytes,
                            per_frame_payload, protocol, done):
        self._check_ports(src, dst)
        frames, wire_bytes = self._wire(payload_bytes, per_frame_payload)
        chunks = max(1, -(-payload_bytes // BULK_CHUNK_BYTES))
        per_chunk = wire_bytes * 8.0 / self.rate_bps / chunks
        env = self.env
        tx_done, rx_done = env.event(), env.event()

        def deliver():
            self._deliver(Frame(src, dst, payload, per_frame_payload,
                                protocol=protocol), frames, wire_bytes)
            rx_done.succeed()

        def crossed(_event):
            env.pooled_timeout(self.forward_latency).callbacks.append(
                arrived)

        def arrived(_event):
            if rx_done.callbacks is None:
                done()
            else:
                rx_done.callbacks.append(lambda _event: done())

        tx_done.callbacks.append(crossed)
        _BulkStream(self, src, dst, chunks, per_chunk, tx_done.succeed,
                    deliver)


class ReferenceSwitch(HopBulkSwitch):
    """A switch whose receive leg is the process it used to be."""

    def _forward(self, frame):
        self.env.process(self._reference_forward(frame),
                         name="switch-forward")

    def _reference_forward(self, frame):
        env = self.env
        yield env.pooled_timeout(self.forward_latency)
        with self._rx_locks[frame.dst].request() as grant:
            yield grant
            yield env.pooled_timeout(
                self.serialization_time(frame)
                + self._fluid_interleave_penalty(frame.dst, tx=False))
        wire_bytes = frame.wire_bytes
        self.frames_forwarded += 1
        self.bytes_forwarded += wire_bytes
        self._account_protocol(frame.protocol, wire_bytes)
        self._m_frames.inc()
        self._m_bytes.inc(wire_bytes)
        self._ports[frame.dst].deliver(frame)


class HopSwitch(HopBulkSwitch):
    """A switch whose frames take every hop they used to: a grant event
    for each port, and the forwarding-latency timer before the
    receiving port is asked for."""

    def start_transmit(self, frame, done):
        self._check_frame(frame)
        request = _FrameRequest(self._tx_locks[frame.src], frame, done)
        request.callbacks.append(self._on_tx_granted)

    def _forward(self, frame):
        self.env.pooled_timeout(self.forward_latency,
                                frame).callbacks.append(self._on_rx_arrived)


class CountingLock(_PortLock):
    """Counts the bulk-stream requests granted in place."""

    def take(self, request=None):
        granted = super().take(request)
        if granted is not None and type(granted) is _Request:
            self.switch.bulk_taken += 1
        return granted


class CountingSwitch(EthernetSwitch):
    """Counts the hops its frames skipped: sending ports taken in place
    (a grant event each), and receiving ports booked and kept to the
    delivery (a latency timer and a grant event each); and the grant
    events its bulk streams skipped."""

    def __init__(self, env):
        super().__init__(env)
        self.taken = self.kept = self.bulk_taken = 0

    def attach(self, name, nic):
        super().attach(name, nic)
        self._tx_locks[name] = CountingLock(self.env, self)
        self._rx_locks[name] = CountingLock(self.env, self)

    def start_transmit(self, frame, done):
        self.taken += (not self._tx_locks[frame.src].users
                       and self.env.settled)
        super().start_transmit(frame, done)

    def _forward(self, frame):
        super()._forward(frame)
        booking = self._rx_locks[frame.dst].booking
        self.kept += booking is not None and booking.frame is frame

    def _unbook(self, booking):
        super()._unbook(booking)
        self.kept -= 1


#: Seeds of the tie fuzz, and the serialization grid its starts snap
#: to: one full-size frame, so frame trains started a whole number of
#: frames apart tie at every frame boundary.
FUZZ_SEEDS = range(300)
GRID = (FRAME_BYTES + params.ETH_FRAME_OVERHEAD) * 8.0 \
    / params.GBE_BITS_PER_SECOND


def fuzz_scenario(seed):
    """2-5 ports, frame trains and bulk streams, starts on the grid."""
    import random
    rng = random.Random(seed)
    ports = "abcde"[:rng.randint(2, 5)]
    trains, bulks = [], []
    for index in range(rng.randint(2, 6)):
        src, dst = rng.sample(ports, 2)
        start = rng.randint(0, 12) * GRID
        if rng.random() < 0.25:
            bulks.append((f"x{index}", src, dst, start,
                          rng.choice((MB // 4, MB // 2, MB))))
        else:
            sizes = [rng.choice((64, 1500, FRAME_BYTES))
                     for _ in range(rng.randint(1, 6))]
            trains.append((f"t{index}", src, dst, start, sizes))
    return ports, trains, bulks


def fuzz_run(switch_class, ports, trains, bulks, callbacks=False):
    """Run a fuzz scenario; trains are sent by generator processes, or
    with ``callbacks`` by chains of ``Nic.start_send``."""
    env = Environment()
    switch = switch_class(env)
    instants = {}

    class RecordingNic(Nic):
        def deliver(self, frame):
            instants["arrived:" + frame.payload] = env.now
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name, rx_ring_size=4096)
            for name in ports}

    def train(label, src, dst, start, sizes):
        yield env.timeout(start)
        for index, size in enumerate(sizes):
            yield from nics[src].send(dst, f"{label}.{index}", size)
        instants["sent:" + label] = env.now

    def callback_train(label, src, dst, start, sizes):
        def send(index):
            if index == len(sizes):
                instants["sent:" + label] = env.now
                return
            nics[src].start_send(dst, f"{label}.{index}", sizes[index],
                                 "aoe", lambda _delivered: send(index + 1))
        env.timeout(start).callbacks.append(lambda _timer: send(0))

    def bulk(label, src, dst, start, size):
        yield env.timeout(start)
        yield from bulk_transfer(switch, src, dst, label, size, PER_FRAME)
        instants["sent:" + label] = env.now

    for op in trains:
        if callbacks:
            callback_train(*op)
        else:
            env.process(train(*op))
    for op in bulks:
        env.process(bulk(*op))
    env.run()
    return instants, env.events_processed, switch


#: Fuzz seeds whose instants differ from the reference receive leg's.
#: Empty: dropping the kick-start moves the forwarding-latency timer
#: one hop earlier in its instant, and no scenario has another timer
#: tied with it whose order could tell.  A booked receiving port keeps
#: the latency timer's place in the order (cancelled, revived when
#: somebody else asks for the port first), so it cannot tell either.
FUZZ_DEVIATIONS = ()


def test_tie_fuzz_matches_reference_receive_leg():
    deviating = []
    for seed in FUZZ_SEEDS:
        scenario = fuzz_scenario(seed)
        got, events, switch = fuzz_run(CountingSwitch, *scenario)
        reference, reference_events, _ = fuzz_run(ReferenceSwitch,
                                                  *scenario)
        if got != reference:
            deviating.append(seed)
        # Two events fewer per frame, two more per kept booking; bulk
        # streams skip one per lock taken in place and their two done
        # hops.
        frames = sum(len(sizes) for _, _, _, _, sizes in scenario[1])
        assert events == (reference_events - 2 * frames - 2 * switch.kept
                          - switch.bulk_taken - 2 * len(scenario[2]))
    assert tuple(deviating) == FUZZ_DEVIATIONS


#: Fuzz seeds whose callback-sent instants differ from ``HopSwitch``'s.
HOP_FUZZ_DEVIATIONS = ()


def test_tie_fuzz_matches_hop_frame_path():
    deviating = []
    for seed in FUZZ_SEEDS:
        scenario = fuzz_scenario(seed)
        got, events, switch = fuzz_run(CountingSwitch, *scenario,
                                       callbacks=True)
        reference, reference_events, _ = fuzz_run(HopSwitch, *scenario,
                                                  callbacks=True)
        if got != reference:
            deviating.append(seed)
        assert events == (reference_events - switch.taken
                          - 2 * switch.kept - switch.bulk_taken
                          - 2 * len(scenario[2]))
    assert tuple(deviating) == HOP_FUZZ_DEVIATIONS


# -- profiler attribution -----------------------------------------------------


def test_callback_frames_keep_their_lane_and_nesting():
    from repro.obs.telemetry import Telemetry
    env = Environment()
    telemetry = Telemetry(env, forensics=True)
    switch = EthernetSwitch(env)
    disk = Disk(env, telemetry=telemetry)
    bitmap = BlockBitmap(image_sectors=8 * BLOCK_SECTORS)
    bitmap.try_claim(0)
    start, count = bitmap.block_range(0)
    disk.contents.set_range(start, count, "img0")
    bitmap.commit_fill(0)
    nic = Nic(env, switch, "server", telemetry=telemetry)
    PeerChunkService(env, nic, disk, bitmap, PeerDirectory(),
                     telemetry=telemetry).start()
    client = Nic(env, switch, "client")
    command = AoeCommand(7, "read", 0, 16)

    def ask():
        yield from client.send("server", command, command.frame_bytes())

    env.process(ask())
    env.run(until=1.0)
    profiler = telemetry.profiler
    frames = {(component, name): (lane, start, end, depth, self_time)
              for lane, component, name, start, end, depth, self_time
              in profiler.frames}
    assert {lane for lane, *_ in frames.values()} == {"aoe-serve-7"}
    serve = frames[("peer-fabric", "serve-read")]
    read = frames[("disk", "read")]
    tx = frames[("nic", "tx")]
    assert (serve[3], read[3], tx[3]) == (0, 1, 1)
    assert serve[1] <= read[1] < read[2] <= tx[1] < tx[2] <= serve[2]
    # The serve's self time excludes its children's spans.
    children = (read[2] - read[1]) + (tx[2] - tx[1])
    assert serve[4] == pytest.approx(serve[2] - serve[1] - children)
    assert set(profiler.folded) == {"peer-fabric:serve-read",
                                    "peer-fabric:serve-read;disk:read",
                                    "peer-fabric:serve-read;nic:tx"}

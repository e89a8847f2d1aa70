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
per lock request, a hop before each re-request, the forwarding-latency
timer and the two done hops), so the fuzz also checks the bulk locks
taken and re-requested in place, the arrival timers not planned and
the done callbacks.

An AoE read reply runs as a frame train (``repro.net.train``).  The
train fuzz runs it against the per-fragment loop it replaced
(:func:`loop_train`) with frames, bulk streams, other trains and fluid
flows asking for its ports on its own instants and between them, and
pins the seeds whose instants differ (``TRAIN_FUZZ_DEVIATIONS``, each
with its reason).  A bulk reply runs through the same machine on the
128 KiB chunk grid; it is checked against the stepped reply it
replaced (a gap timer, then a bulk stream) with a frame, a train, a
bulk stream and a fluid flow asking for either port at each of its
own instants and between them (a same-instant tie a hand-over orders
otherwise is pinned in ``BULK_HAND_OVER_DEVIATIONS``), and the switch
tie fuzz runs its bulk streams as bulk replies too
(``REPLY_FUZZ_DEVIATIONS``).

An AoE exchange's command is planned as well: a one-frame train whose
sender's ``done`` runs late.  It is checked against the command sent
as a frame with the same contenders at its own instants
(``COMMAND_HAND_OVER_DEVIATIONS``), and the switch tie fuzz sends
exchanges, a command and once a store read's timer has fired its
reply, among its streams and trains (``EXCHANGE_FUZZ_DEVIATIONS``).
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
from repro.net.nic import Nic
from repro.net.train import _FrameTrain
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
        bitmap.commit_fill_run(0, 1)
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
    """Drops the first AoE data fragment put on the wire.

    It declares a loss probability, as any lossy model does, so replies
    take the per-frame path, which asks it about every frame.
    """

    def __init__(self):
        super().__init__(0.5)
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


class HopStream(_BulkStream):
    """A bulk stream taking every hop it used to: a zero-delay event
    before each re-request of a lock, one between the last chunk
    leaving the sender and the forwarding-latency timer, that timer
    even where the delivery is sure to come later, and one between the
    delivery and ``done``."""

    def _sent(self):
        env = self.env

        def crossed(_event):
            env.timeout(self.switch.forward_latency).callbacks.append(
                self._landed)

        env.event().succeed().callbacks.append(crossed)

    def _deliver(self):
        # ``done`` also waits for the hop after the delivery.
        self.pending += 1
        super()._deliver()
        self.env.event().succeed().callbacks.append(self._landed)


class HopBulkSwitch(EthernetSwitch):
    """A switch whose bulk streams take every hop they used to: a grant
    event per lock request, and the hops of :class:`HopStream`."""

    def attach(self, name, nic):
        super().attach(name, nic)
        self._tx_locks[name] = HopLock(self.env, self)
        self._rx_locks[name] = HopLock(self.env, self)

    def start_bulk_transfer(self, src, dst, *transfer):
        self._check_ports(src, dst)
        HopStream(self, src, dst, *transfer)


class ReferenceSwitch(HopBulkSwitch):
    """A switch whose receive leg is the process it used to be."""

    def _forward(self, frame):
        self.env.process(self._reference_forward(frame),
                         name="switch-forward")

    def _reference_forward(self, frame):
        env = self.env
        yield env.timeout(self.forward_latency)
        with self._rx_locks[frame.dst].request() as grant:
            yield grant
            yield env.timeout(
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
        self.env.timeout(self.forward_latency,
                         frame).callbacks.append(self._on_rx_arrived)


class CountingLock(_PortLock):
    """Counts the bulk-stream requests granted in place."""

    def take(self, request=None):
        granted = super().take(request)
        if granted is not None and type(granted) is _Request:
            self.switch.bulk_taken += 1
        return granted


class CountingStream(_BulkStream):
    """Counts the arrival timers not planned."""

    def _sent(self):
        super()._sent()
        # The arrival is counted as come when no timer was planned for
        # it (the delivery is still to come).
        self.switch.unplanned += self.pending == 1


class CountingSwitch(EthernetSwitch):
    """Counts the hops its frames skipped: sending ports taken in place
    (a grant event each), and receiving ports booked and kept to the
    delivery (a latency timer and a grant event each); and the events
    its bulk streams skipped: grants taken in place and arrival timers
    not planned."""

    def __init__(self, env):
        super().__init__(env)
        self.taken = self.kept = self.bulk_taken = self.unplanned = 0

    def start_bulk_transfer(self, src, dst, *transfer):
        self._check_ports(src, dst)
        CountingStream(self, src, dst, *transfer)

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


def fuzz_run(switch_class, ports, trains, bulks, callbacks=False,
             replies=None, exchanges=(), planned=False):
    """Run a fuzz scenario; trains are sent by generator processes, or
    with ``callbacks`` by chains of ``Nic.start_send``.  With
    ``replies`` (``Nic.start_train``'s arguments after the NIC) the
    bulk streams are bulk replies sent by it.  ``exchanges`` (see
    :func:`exchange_scenario`) send a command, and where it is
    delivered a reply by ``replies`` once a store read's timer fires;
    with ``planned`` the command is sent by ``Nic.start_command``."""
    env = Environment()
    switch = switch_class(env)
    instants = {}
    served = {label: spec for label, *spec in exchanges}

    class RecordingNic(Nic):
        def deliver(self, frame):
            instants["arrived:" + frame.payload] = env.now
            super().deliver(frame)
            if frame.payload in served:
                serve(frame.payload, *served.pop(frame.payload))

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
        if replies is None:
            yield from bulk_transfer(switch, src, dst, label, size, PER_FRAME)
        else:
            done = env.event()
            replies(nics[src], dst, [label], [size], "aoe", GAP,
                    lambda _count: None, done.succeed, None, PER_FRAME)
            yield done
        instants["sent:" + label] = env.now

    def command(label, client, server, start, *_reply):
        def done(_delivered=None):
            instants["sent:" + label] = env.now if train[0] is None \
                else train[0].ends[0]

        def go(_timer):
            nic = nics[client]
            send = nic.start_command if planned else nic.start_send
            train.append(send(server, label, 64, "aoe", done))
        train = []
        env.timeout(start).callbacks.append(go)

    def serve(label, client, server, _start, read, shape):
        if isinstance(shape, int):
            reply = ([label + ".r"], [shape], "aoe", GAP,
                     lambda _count: None, record(label), None, PER_FRAME)
        else:
            reply = ([f"{label}.r{k}" for k in range(len(shape))], shape,
                     "aoe", GAP, lambda _count: None, record(label), None)
        env.timeout(read).callbacks.append(
            lambda _timer: replies(nics[server], client, *reply))

    def record(label):
        def done():
            instants["replied:" + label] = env.now
        return done

    for op in trains:
        if callbacks:
            callback_train(*op)
        else:
            env.process(train(*op))
    for op in bulks:
        env.process(bulk(*op))
    for op in exchanges:
        command(*op)
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
        # streams skip one per lock taken in place and per arrival timer
        # not planned, and their two done hops.
        frames = sum(len(sizes) for _, _, _, _, sizes in scenario[1])
        assert events == (reference_events - 2 * frames - 2 * switch.kept
                          - switch.bulk_taken - switch.unplanned
                          - 2 * len(scenario[2]))
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
                          - switch.unplanned - 2 * len(scenario[2]))
    assert tuple(deviating) == HOP_FUZZ_DEVIATIONS


#: Fuzz seeds whose instants differ from the references' where the
#: bulk streams are bulk replies, with the generator-sent trains
#: against ``ReferenceSwitch`` and the callback-sent ones against
#: ``HopSwitch``.
REPLY_FUZZ_DEVIATIONS = {"reference": (), "hop": ()}


@pytest.mark.parametrize("reference_switch", ["reference", "hop"])
def test_tie_fuzz_with_bulk_replies(reference_switch):
    callbacks = reference_switch == "hop"
    reference_class = HopSwitch if callbacks else ReferenceSwitch
    deviating = []
    planned_seeds = 0
    for seed in FUZZ_SEEDS:
        scenario = fuzz_scenario(seed)
        planned = []

        def reply(nic, *args):
            planned.append(_FrameTrain(nic.switch, nic, *args).planned)

        got, events, switch = fuzz_run(CountingSwitch, *scenario,
                                       callbacks=callbacks, replies=reply)
        reference, reference_events, _ = fuzz_run(
            reference_class, *scenario, callbacks=callbacks,
            replies=loop_train)
        if got != reference:
            deviating.append(seed)
        if any(planned):
            planned_seeds += 1
            assert events < reference_events
            continue
        # Stepped replies are bulk streams behind their gap timers.
        frames = 0 if callbacks else sum(
            len(sizes) for _, _, _, _, sizes in scenario[1])
        taken = switch.taken if callbacks else 0
        assert events == (reference_events - 2 * frames - taken
                          - 2 * switch.kept - switch.bulk_taken
                          - switch.unplanned - 2 * len(scenario[2]))
    assert tuple(deviating) == REPLY_FUZZ_DEVIATIONS[reference_switch]
    assert planned_seeds > len(FUZZ_SEEDS) // 4


def exchange_scenario(seed):
    """A fuzz scenario and 1-3 exchanges ``(label, client, server,
    start, read, shape)``: a command from client to server, started on
    the grid, and once it is delivered a reply of ``shape`` (fragment
    sizes, or a bulk payload's bytes) after a store read of ``read``
    seconds (a whole number of grid steps, or none)."""
    import random
    ports, trains, bulks = fuzz_scenario(seed)
    rng = random.Random(-1 - seed)
    exchanges = []
    for index in range(rng.randint(1, 3)):
        client, server = rng.sample(ports, 2)
        shape = rng.choice(([PER_FRAME] * rng.randint(1, 4) + [64],
                            rng.choice((MB // 4, MB // 2))))
        exchanges.append((f"q{index}", client, server,
                          rng.randint(0, 12) * GRID,
                          rng.choice((0.0, GRID, 3 * GRID, 150e-6)), shape))
    return ports, trains, bulks, exchanges


#: Fuzz seeds whose exchanges' instants differ from the references'.
EXCHANGE_FUZZ_DEVIATIONS = {"reference": (), "hop": ()}


@pytest.mark.parametrize("reference_switch", ["reference", "hop"])
def test_tie_fuzz_with_exchanges(reference_switch, monkeypatch):
    # Commands sent late and planned replies against commands sent
    # frame by frame and replies sent by the loop, every hop taken.
    callbacks = reference_switch == "hop"
    reference_class = HopSwitch if callbacks else ReferenceSwitch
    deviating = []
    commands = []
    start_command = Nic.start_command

    def counting_command(nic, *args):
        train = start_command(nic, *args)
        commands.append(train is not None)
        return train

    monkeypatch.setattr(Nic, "start_command", counting_command)
    for seed in FUZZ_SEEDS:
        *scenario, exchanges = exchange_scenario(seed)

        def reply(nic, *args):
            _FrameTrain(nic.switch, nic, *args)

        got, events, switch = fuzz_run(
            CountingSwitch, *scenario, callbacks=callbacks, replies=reply,
            exchanges=exchanges, planned=True)
        reference, reference_events, _ = fuzz_run(
            reference_class, *scenario, callbacks=callbacks,
            replies=loop_train, exchanges=exchanges)
        if got != reference:
            deviating.append(seed)
        assert events <= reference_events
        # Every exchange's command left and its reply was sent.
        assert {f"{kind}:{label}" for label, *_ in exchanges
                for kind in ("sent", "replied")} <= set(got)
    assert tuple(deviating) == EXCHANGE_FUZZ_DEVIATIONS[reference_switch]
    # Many commands start planned, and some cannot.
    assert len(commands) > len(FUZZ_SEEDS)
    assert 0 < commands.count(False) and commands.count(True) > 100


# -- frame trains -------------------------------------------------------------


def loop_train(nic, dst, payloads, sizes, protocol, gap, sent, done,
               parent=None, per_frame_payload=None):
    """A reply run as the per-fragment loop it used to be: a gap timer,
    the frame sent by ``Nic.start_send``, and the next gap once the
    frame has left the sender.  A bulk reply (``per_frame_payload``)
    runs as it used to: one gap timer of every frame's CPU time, then
    a bulk stream (``EthernetSwitch.start_bulk_transfer``)."""
    env = nic.env
    if per_frame_payload is not None:
        frames = max(1, -(-sizes[0] // per_frame_payload))

        def streamed():
            sent(1)
            done()

        env.timeout(frames * gap).callbacks.append(
            lambda _timer: nic.switch.start_bulk_transfer(
                nic.name, dst, payloads[0], sizes[0], per_frame_payload,
                protocol, streamed))
        return

    def next_fragment(index):
        if index == len(payloads):
            done()
            return
        env.timeout(gap).callbacks.append(
            lambda _timer: nic.start_send(
                dst, payloads[index], sizes[index], protocol,
                lambda _delivered: fragment_sent(index), parent))

    def fragment_sent(index):
        sent(1)
        next_fragment(index + 1)

    next_fragment(0)


class WatchedTrain(_FrameTrain):
    """Records where each train was when it handed over: its sending
    side in a gap or on a frame, on one of its own instants or between
    them, and the state each frame past the sender took on the
    receiving side."""

    def _hand_over(self):
        if self.per_frame_payload is not None:
            self._watch_chunks()
            super()._hand_over()
            return
        k = self._passed()
        phase = "done"
        if k < len(self.sizes):
            phase = "frame" if self._past(self._start(k), self.gap) \
                else "gap"
        latency = self.switch.forward_latency
        planned = [self._start(j) for j in range(len(self.sizes))] \
            + self.ends + self.deliveries \
            + [end + latency for end in self.ends]
        tie = "tie" if self.env.now in planned else "inside"
        self.switch.hand_overs.append((phase, tie))
        for j in range(self.delivered, k):
            arrived = self._past(self.ends[j] + latency, latency)
            if j == self.delivered and (arrived or self.booked[j]):
                state = "crossing" if arrived else "booked"
            else:
                state = "queued" if arrived else "flying"
            self.switch.rx_states.add(state)
        super()._hand_over()

    def _watch_chunks(self):
        """Record a bulk reply's hand-over: where its sender and its
        receiver were, on one of its own instants or between them."""
        now = self.env.now
        began = self._start(0)
        ends, deliveries = self.ends, self.deliveries
        if not self._past(began, self.gap):
            phase = "gap"
        elif now == began:
            phase = "granting"
        elif self._past(ends[-1], ends[-1] - began):
            phase = "sent"
        else:
            phase = "sending"
        receiver = "idle"
        if phase in ("sending", "sent"):
            receiver = "waiting"
            if self._past(ends[0], ends[0] - began):
                receiver = "rejoining" if now == ends[0] else "holding"
        tie = "tie" if now in [began, *ends, *deliveries] else "inside"
        self.switch.hand_overs.append((phase, receiver, tie))


class WatchedSwitch(EthernetSwitch):
    """Runs replies as :class:`WatchedTrain`, and commands as late
    frames: counts those started planned, and records the replies'
    hand-overs."""

    #: Commands are sent by ``Nic.start_command``.
    late = True

    def __init__(self, env, **kwargs):
        super().__init__(env, **kwargs)
        self.planned = self.commands = 0
        self.hand_overs = []
        self.rx_states = set()

    def start_train(self, nic, *reply, per_frame_payload=None):
        train = WatchedTrain(self, nic, *reply, None, per_frame_payload)
        self.planned += train.planned


class LoopTrainSwitch(EthernetSwitch):
    """Runs replies as the per-fragment loop (:func:`loop_train`), and
    commands as frames."""

    late = False

    @staticmethod
    def start_train(nic, *reply, per_frame_payload=None):
        loop_train(nic, *reply, None, per_frame_payload)


GAP = AoeServer.PER_FRAME_CPU_SECONDS
LATENCY = params.SWITCH_LATENCY_SECONDS


def ser(size):
    return (size + params.ETH_FRAME_OVERHEAD) * 8.0 \
        / params.GBE_BITS_PER_SECOND


def landing(target, *steps):
    """An instant from which adding ``steps`` in turn, as the simulator
    does, lands exactly on ``target`` (None before 0)."""
    import math
    start = target - sum(steps)
    for _ in range(16):
        at = start
        for step in steps:
            at = at + step
        if at == target:
            break
        start = math.nextafter(start, math.inf if at < target else -math.inf)
    return start if start >= 0.0 else None


def train_run(switch_class, trains, ops=(), loss=None, locks=False,
              lead=None):
    """Trains ``(label, src, dst, start, sizes)`` sent by the switch
    class's ``start_train`` (a frame train or the loop; a bulk reply of
    ``sizes`` bytes where that is an int) and contenders ``(kind,
    label, src, dst, start, size)`` of kind ``frame``, ``command`` (a
    frame sent as the switch class's commands are: ``late`` or not),
    ``bulk`` or ``fluid``, each started at its instant by a timer.  A
    command's ``sent`` instant is its send end: its ``done`` may run
    later.  Returns the observable instants and counters, the event
    count and the switch.  With ``locks`` the instants also hold the
    state of s's sending and c's receiving lock right after each
    contender starts (:func:`lock_state`).  With ``lead`` each
    contender's timer is made only ``lead`` seconds before its instant,
    after the events planned for that instant earlier."""
    env = Environment()
    switch = switch_class(env, loss=loss) if loss else switch_class(env)
    instants = {}

    class RecordingNic(Nic):
        def deliver(self, frame):
            instants["arrived:" + str(frame.payload)] = env.now
            super().deliver(frame)

    nics = {name: RecordingNic(env, switch, name, rx_ring_size=4096)
            for name in "scxy"}
    sent = {}

    def record(label):
        def done(_delivered=None):
            instants["sent:" + label] = env.now
        return done

    def train(label, src, dst, start, sizes):
        def counted(count):
            sent[label] = sent.get(label, 0) + count

        def go(_timer):
            if isinstance(sizes, int):
                # A bulk reply of ``sizes`` bytes.
                switch.start_train(nics[src], dst, [label], [sizes], "aoe",
                                   GAP, counted, record(label),
                                   per_frame_payload=PER_FRAME)
                return
            switch.start_train(
                nics[src], dst, [f"{label}.{k}" for k in range(len(sizes))],
                sizes, "aoe", GAP, counted, record(label))
        env.timeout_at(start).callbacks.append(go)

    def command(label, src, dst, size):
        train = []

        def done(_delivered=None):
            end = env.now if train[0] is None else train[0].ends[0]
            assert env.now >= end
            instants["sent:" + label] = end
        nic = nics[src]
        send = nic.start_command if switch_class.late else nic.start_send
        train.append(send(dst, label, size, "aoe", done))
        if train[0] is not None:
            switch.commands += 1

    def op(kind, label, src, dst, start, size):
        def go(_timer):
            if kind == "frame":
                nics[src].start_send(dst, label, size, "aoe", record(label))
            elif kind == "command":
                command(label, src, dst, size)
            else:
                begin = switch.start_bulk_transfer if kind == "bulk" \
                    else switch.start_fluid_transfer
                begin(src, dst, label, size, PER_FRAME, "aoe",
                      record(label))
            if locks and kind != "command":
                instants["locks:" + label] = (
                    lock_state(switch._tx_locks["s"]),
                    lock_state(switch._rx_locks["c"]))
        if lead is None:
            env.timeout_at(start).callbacks.append(go)
        else:
            env.timeout_at(start - lead).callbacks.append(
                lambda _timer: env.timeout_at(start).callbacks.append(go))

    for spec in trains:
        train(*spec)
    for spec in ops:
        op(*spec)
    env.run()
    instants["sent"] = sent
    instants["switch"] = (switch.frames_forwarded, switch.bytes_forwarded,
                          dict(switch.bytes_by_protocol))
    instants["nics"] = {name: (nic.tx_frames, nic.tx_bytes, nic.rx_frames,
                               nic.rx_bytes, nic.fluid_tx_bytes)
                        for name, nic in nics.items()}
    return instants, env.events_processed, switch


def lock_state(lock):
    """What a port lock holds: its grants, waiters, sides about to ask
    again, the kind of its holder and whether a frame has booked it."""
    holder = lock.holder
    return (len(lock.users), len(lock.queue), lock.rejoining,
            None if holder is None else type(holder).__name__,
            lock.booking is not None)


#: Seeds of the train fuzz.
TRAIN_SEEDS = range(400)


def train_scenario(seed):
    """A train of 1-8 fragments from s to c, and 1-3 contenders whose
    first request on s's sending or c's receiving port lands on one of
    the train's own instants, or inside its gaps and frames."""
    import random
    rng = random.Random(seed)
    count = rng.randint(1, 8)
    sizes = [PER_FRAME] * (count - 1) \
        + [rng.choice((64, 1060, 4132, PER_FRAME))]
    # Late starts let a bulk stream's receiver, which asks one chunk
    # after its start, land on the train's first frames.
    start = rng.choice((0.0, 1e-4, 3 * GRID, 1.2e-3, 2e-3))
    trains = [("t", "s", "c", start, sizes)]
    reference, _, _ = train_run(LoopTrainSwitch, trains)
    # The train's own instants: gap ends, send ends and arrivals by the
    # loop's additions, deliveries from the loop's run.
    sends, gaps = [], []
    at = start
    for size in sizes:
        gaps.append(at + GAP)
        at = at + GAP + ser(size)
        sends.append(at)
    arrivals = [end + LATENCY for end in sends]
    deliveries = [reference[f"arrived:t.{k}"] for k in range(count)]
    marks = gaps + sends + arrivals + deliveries
    inside = [gap + ser(size) / 2 for gap, size in zip(gaps, sizes)] \
        + [end + GAP / 2 for end in sends] \
        + [done + 1e-6 for done in deliveries]
    ops, extra = [], []
    for index in range(rng.randint(1, 3)):
        label = f"o{index}"
        target = rng.choice(marks if rng.random() < 0.6 else inside)
        kind = rng.choice(("frame", "frame", "bulk", "train", "fluid"))
        on_tx = rng.random() < 0.5
        size = rng.choice((64, 1500, FRAME_BYTES))
        if kind == "fluid":
            src, dst = ("s", "y") if on_tx else ("x", "c")
            if rng.random() < 0.25:
                src, dst = "x", "y"     # a flow network, not on our links
            ops.append(("fluid", label, src, dst, target,
                        rng.choice((MB // 8, MB // 2))))
        elif kind == "frame":
            if on_tx:
                ops.append(("frame", label, "s", "y", target, size))
            else:
                begin = landing(target, ser(size))
                if begin is not None:
                    ops.append(("frame", label, "x", "c", begin, size))
        elif kind == "bulk":
            payload = rng.choice((MB // 8, MB // 4))
            if on_tx:
                ops.append(("bulk", label, "s", "y", target, payload))
            else:
                frames = -(-payload // PER_FRAME)
                chunks = -(-payload // BULK_CHUNK_BYTES)
                per_chunk = (payload + frames * params.ETH_FRAME_OVERHEAD) \
                    * 8.0 / params.GBE_BITS_PER_SECOND / chunks
                begin = landing(target, per_chunk)
                if begin is not None:
                    ops.append(("bulk", label, "x", "c", begin, payload))
        else:
            more = [rng.choice((64, 1060, PER_FRAME))
                    for _ in range(rng.randint(1, 3))]
            if on_tx:
                begin = landing(target, GAP)
                route = ("s", "y")
            else:
                begin = landing(target, GAP, ser(more[0]))
                route = ("x", "c")
            if begin is not None:
                extra.append((label, *route, begin, more))
    return trains + extra, ops


#: Why a hand-over can order a same-instant tie otherwise than the loop.
#: The asker's request and the loop's event were scheduled at one
#: instant, and the loop ran its own first (the train takes the loop's
#: event second there).
SAME_SCHEDULING_INSTANT = "asker and loop event scheduled at one instant"
#: The train's send-end or delivery event was scheduled at the train's
#: previous event, before the asker's; the loop scheduled its timer
#: later, after the asker's, and so ran it second.
EARLIER_TRAIN_EVENT = "train event due with the asker, scheduled earlier"
#: The gap timer due at the hand-over instant is made there, after
#: another train's gap timer already due then; the loop had it first.
TIMER_MADE_AT_HAND_OVER = "gap timer made at the hand-over instant"

#: Train fuzz seeds whose instants differ from the loop's, and why.
#: Each is a tie at the hand-over instant; counters never differ.
TRAIN_FUZZ_DEVIATIONS = {
    57: TIMER_MADE_AT_HAND_OVER, 89: SAME_SCHEDULING_INSTANT,
    94: SAME_SCHEDULING_INSTANT, 154: SAME_SCHEDULING_INSTANT,
    168: EARLIER_TRAIN_EVENT, 269: SAME_SCHEDULING_INSTANT,
    276: SAME_SCHEDULING_INSTANT, 375: SAME_SCHEDULING_INSTANT,
}


def test_train_fuzz_matches_fragment_loop():
    deviating = []
    hand_overs = set()
    rx_states = set()
    planned = 0
    for seed in TRAIN_SEEDS:
        trains, ops = train_scenario(seed)
        got, events, switch = train_run(WatchedSwitch, trains, ops)
        reference, reference_events, _ = train_run(LoopTrainSwitch, trains,
                                                   ops)
        for key in ("sent", "switch", "nics"):
            assert got.pop(key) == reference.pop(key), seed
        if got != reference:
            deviating.append(seed)
        planned += switch.planned
        hand_overs.update(switch.hand_overs)
        rx_states |= switch.rx_states
        if not switch.planned:
            assert events == reference_events
    assert tuple(deviating) == tuple(TRAIN_FUZZ_DEVIATIONS)
    # The fuzz reaches every kind of hand-over.
    assert planned > len(TRAIN_SEEDS)
    assert hand_overs >= {(phase, tie) for phase in ("gap", "frame")
                          for tie in ("tie", "inside")}
    assert rx_states == {"booked", "crossing", "queued", "flying"}


def test_lone_train_costs_one_event_per_frame_and_one_more():
    sizes = [PER_FRAME] * 6 + [1060]
    trains = [("t", "s", "c", 0.0, sizes)]
    got, events, switch = train_run(WatchedSwitch, trains)
    reference, reference_events, _ = train_run(LoopTrainSwitch, trains)
    assert got == reference
    assert switch.planned == 1 and switch.hand_overs == []
    # A start timer and a ring put per frame each; the loop's 5N - 2
    # events against the train's N + 1.
    count = len(sizes)
    assert reference_events == 1 + count + 5 * count - 2
    assert events == 1 + count + count + 1


@pytest.mark.parametrize("busy", ["sending", "booked", "receiving"])
def test_train_finding_its_port_taken_is_the_loop(busy):
    # A frame holds s's sending port, has booked c's receiving port, or
    # a bulk stream crosses it, when the reply starts.
    ops = {"sending": [("frame", "f", "s", "y", 0.0, FRAME_BYTES)],
           "booked": [("frame", "f", "x", "c", 0.0, FRAME_BYTES)],
           "receiving": [("bulk", "b", "x", "c", 0.0, MB // 4)]}[busy]
    start = {"sending": 1e-6, "booked": ser(FRAME_BYTES) + 1e-6,
             "receiving": 1.5e-3}[busy]
    trains = [("t", "s", "c", start, [PER_FRAME] * 3 + [64])]
    got, events, switch = train_run(WatchedSwitch, trains, ops)
    reference, reference_events, _ = train_run(LoopTrainSwitch, trains, ops)
    assert got == reference
    assert switch.planned == 0
    assert events == reference_events


def test_lossy_switch_sends_replies_frame_by_frame():
    trains = [("t", "s", "c", 0.0, [PER_FRAME] * 8),
              ("u", "x", "c", 2e-4, [PER_FRAME] * 4 + [64])]
    got, events, switch = train_run(WatchedSwitch, trains,
                                    loss=LossModel(0.2, seed=7))
    reference, reference_events, _ = train_run(
        LoopTrainSwitch, trains, loss=LossModel(0.2, seed=7))
    assert got == reference
    assert got["switch"][0] < 8 + 5    # some frames were lost
    assert switch.planned == 0
    assert events == reference_events


# -- bulk replies -------------------------------------------------------------


def bulk_instants(start, size):
    """A bulk reply's gap end, chunk send ends, delivery and chunk time,
    by the stream's own additions."""
    frames = -(-size // PER_FRAME)
    chunks = -(-size // BULK_CHUNK_BYTES)
    per_chunk = (size + frames * params.ETH_FRAME_OVERHEAD) * 8.0 \
        / params.GBE_BITS_PER_SECOND / chunks
    began = start + frames * GAP
    ends = []
    at = began
    for _ in range(chunks):
        at = at + per_chunk
        ends.append(at)
    return began, ends, ends[-1] + per_chunk, per_chunk


#: Where a contender asks for one of a bulk reply's ports.
BULK_POINTS = ("gap", "gap-end", "first-chunk", "first-send-end",
               "mid-chunk", "boundary", "last-send-end", "delivery")
REPLY_START = 2e-3
REPLY_BYTES = MB // 2


def bulk_point(point):
    began, ends, delivery, per_chunk = bulk_instants(REPLY_START,
                                                     REPLY_BYTES)
    return {"gap": (REPLY_START + began) / 2, "gap-end": began,
            "first-chunk": began + per_chunk / 2, "first-send-end": ends[0],
            "mid-chunk": ends[0] + per_chunk / 2, "boundary": ends[1],
            "last-send-end": ends[-1], "delivery": delivery}[point]


def contender(kind, port, at):
    """``(trains, ops)`` for one contender whose first request on s's
    sending (``tx``) or c's receiving (``rx``) port, or whose fluid flow
    on that link, comes at ``at``."""
    if kind == "frame":
        if port == "tx":
            return [], [("frame", "f", "s", "y", at, FRAME_BYTES)]
        return [], [("frame", "f", "x", "c", landing(at, ser(FRAME_BYTES)),
                     FRAME_BYTES)]
    if kind == "train":
        sizes = [PER_FRAME, 64]
        if port == "tx":
            return [("u", "s", "y", landing(at, GAP), sizes)], []
        return [("u", "x", "c", landing(at, GAP, ser(PER_FRAME)), sizes)], []
    if kind == "fluid":
        # A fluid flow starting on either link re-prices the chunks.
        src, dst = ("s", "y") if port == "tx" else ("x", "c")
        return [], [("fluid", "v", src, dst, at, MB // 8)]
    if port == "tx":
        return [], [("bulk", "b", "s", "y", at, MB // 4)]
    per_chunk = bulk_instants(0.0, MB // 4)[3]
    return [], [("bulk", "b", "x", "c", landing(at, per_chunk), MB // 4)]


#: Hand-over cases whose instants differ from the stepped reply's, and
#: why.  A bulk stream starting on the reply's gap end, timed late,
#: schedules its receiver's wake-up for the reply's first send end in
#: the same instant as the reply's own: the stepped reply's came first,
#: the hand-over takes it second.
BULK_HAND_OVER_DEVIATIONS = {
    ("bulk", "rx", "first-send-end", "late"): SAME_SCHEDULING_INSTANT,
}


@pytest.mark.parametrize("lead", [None, 1e-6], ids=["early", "late"])
@pytest.mark.parametrize("point", BULK_POINTS)
@pytest.mark.parametrize("port", ["tx", "rx"])
@pytest.mark.parametrize("kind", ["frame", "train", "bulk", "fluid"])
def test_bulk_reply_hand_over_is_the_stepped_reply(kind, port, point, lead):
    # Where the contender asks as it starts (on the sending port, or a
    # fluid flow), the locks it leaves behind are compared too: the
    # hand-over built the stepped reply's state.  A contender timed
    # ``late`` comes after the stepped reply's events due at its
    # instant, so it finds a grant or a re-request still to come.
    extra, ops = contender(kind, port, bulk_point(point))
    trains = [("r", "s", "c", REPLY_START, REPLY_BYTES), *extra]
    locks = port == "tx" or kind == "fluid"
    got, events, switch = train_run(WatchedSwitch, trains, ops, locks=locks,
                                    lead=lead)
    reference, reference_events, _ = train_run(LoopTrainSwitch, trains, ops,
                                               locks=locks, lead=lead)
    for key in ("sent", "switch", "nics"):
        assert got.pop(key) == reference.pop(key)
    case = (kind, port, point, "late" if lead else "early")
    if case in BULK_HAND_OVER_DEVIATIONS:
        # The port goes to the other waiter first: one chunk earlier
        # for it, one later for the reply.
        per_chunk = bulk_instants(0.0, REPLY_BYTES)[3]
        moved = {label: got[label] - reference[label] for label in got
                 if got[label] != reference[label]}
        assert moved and all(abs(abs(shift) - per_chunk) < 1e-12
                             for shift in moved.values())
    else:
        assert got == reference
    assert switch.planned == 1
    assert len(switch.hand_overs) <= 1
    assert events <= reference_events


def test_bulk_reply_hand_overs_reach_every_state():
    seen = set()
    for kind in ("frame", "train", "bulk"):
        for port in ("tx", "rx"):
            for point in BULK_POINTS:
                extra, ops = contender(kind, port, bulk_point(point))
                trains = [("r", "s", "c", REPLY_START, REPLY_BYTES), *extra]
                seen.update(train_run(WatchedSwitch, trains, ops)[2]
                            .hand_overs)
    assert {(phase, receiver) for phase, receiver, _ in seen} == {
        ("gap", "idle"), ("granting", "idle"), ("sending", "waiting"),
        ("sending", "rejoining"), ("sending", "holding"),
        ("sent", "holding")}
    assert {tie for *_, tie in seen} == {"tie", "inside"}


def test_lone_bulk_reply_costs_one_event():
    trains = [("r", "s", "c", 0.0, MB)]
    got, events, switch = train_run(WatchedSwitch, trains)
    reference, reference_events, _ = train_run(LoopTrainSwitch, trains)
    assert got == reference
    assert switch.planned == 1 and switch.hand_overs == []
    # The start timer and the ring put; the stepped reply's gap timer,
    # sending hold, the receiver's wake-up, its hop and its hold against
    # one.
    assert reference_events == 2 + 5
    assert events == 2 + 1


@pytest.mark.parametrize("busy", ["sending", "receiving", "lossy", "fluid"])
def test_bulk_reply_that_cannot_plan_is_the_stepped_reply(busy):
    # A frame holds s's sending port or a bulk stream c's receiving port
    # when the reply starts; or the switch draws loss; or a fluid flow
    # network exists (its flow on other ports).
    ops = {"sending": [("frame", "f", "s", "y", 0.0, FRAME_BYTES)],
           "receiving": [("bulk", "b", "x", "c", 0.0, MB // 4)],
           "lossy": [],
           "fluid": [("fluid", "v", "x", "y", 0.0, MB // 8)]}[busy]
    start = {"sending": 1e-6, "receiving": 1.5e-3}.get(busy, 1e-4)
    loss = LossModel(0.2, seed=7) if busy == "lossy" else None
    trains = [("r", "s", "c", start, MB // 2)]
    got, events, switch = train_run(WatchedSwitch, trains, ops, loss=loss)
    reference, reference_events, _ = train_run(LoopTrainSwitch, trains, ops,
                                               loss=loss)
    assert got == reference
    assert switch.planned == 0
    assert events == reference_events


# -- commands -----------------------------------------------------------------


#: A command frame's instants: its start, mid-frame, its send end,
#: inside the forwarding latency, and its delivery.
COMMAND_POINTS = ("start", "mid-frame", "send-end", "latency", "delivery")
COMMAND_BYTES = 64


def command_point(point):
    end = REPLY_START + ser(COMMAND_BYTES)
    return {"start": REPLY_START,
            "mid-frame": REPLY_START + ser(COMMAND_BYTES) / 2,
            "send-end": end, "latency": end + LATENCY / 2,
            "delivery": end + LATENCY + ser(COMMAND_BYTES)}[point]


#: Command cases whose instants differ from the stepped frame's.
COMMAND_HAND_OVER_DEVIATIONS = {}


@pytest.mark.parametrize("lead", [None, 1e-6], ids=["early", "late"])
@pytest.mark.parametrize("point", COMMAND_POINTS)
@pytest.mark.parametrize("port", ["tx", "rx"])
@pytest.mark.parametrize("kind", ["frame", "train", "bulk", "fluid"])
def test_command_hand_over_is_the_stepped_frame(kind, port, point, lead):
    # A late command holds s's sending and c's receiving port from its
    # start to its delivery; its send end is the stepped frame's, and
    # whoever asks for either port meanwhile finds the stepped frame's
    # state there.
    extra, ops = contender(kind, port, command_point(point))
    ops = [("command", "q", "s", "c", REPLY_START, COMMAND_BYTES), *ops]
    locks = port == "tx" or kind == "fluid"
    got, events, switch = train_run(WatchedSwitch, extra, ops, locks=locks,
                                    lead=lead)
    reference, reference_events, _ = train_run(LoopTrainSwitch, extra, ops,
                                               locks=locks, lead=lead)
    case = (kind, port, point, "late" if lead else "early")
    assert (got == reference) != (case in COMMAND_HAND_OVER_DEVIATIONS)
    # A contender due at the command's start leaves it unsettled, and a
    # train to c, planned before the command starts, holds c's receiving
    # port: the frame is then sent as it is without a plan.
    assert switch.commands == (point != "start"
                               and (kind, port) != ("train", "rx"))
    assert events <= reference_events


def test_lone_command_costs_one_event():
    # A command, a bulk reply and a frame reply: one event each (the
    # delivery; the frame reply one more, its last send end), against
    # the stepped frame's two.
    ops = [("command", "q", "s", "c", 0.0, COMMAND_BYTES)]
    trains = [("r", "s", "c", 1e-3, MB),
              ("u", "x", "y", 1e-3, [PER_FRAME, 64])]
    got, events, switch = train_run(WatchedSwitch, trains, ops)
    reference, reference_events, _ = train_run(LoopTrainSwitch, trains,
                                               ops)
    assert got == reference
    assert switch.planned == 2 and switch.commands == 1
    assert switch.hand_overs == []
    # Three start timers and four ring puts; the stepped frame's send
    # end and delivery, the stepped bulk reply's five and the
    # two-fragment loop's eight against 1 + 1 + 3.
    assert reference_events == 3 + 4 + 2 + 5 + 8
    assert events == 3 + 4 + 1 + 1 + 3


@pytest.mark.parametrize("busy", ["unsettled", "sending", "receiving",
                                  "lossy", "fluid"])
def test_command_that_cannot_plan_is_the_stepped_frame(busy):
    # Another event is due at the command's instant, a frame holds s's
    # sending port, a bulk stream c's receiving port, the switch draws
    # loss or a fluid flow network exists: the command is sent as a
    # frame, in place where the port is free.
    ops = {"unsettled": [("frame", "f", "x", "y", 1e-4, FRAME_BYTES)],
           "sending": [("frame", "f", "s", "y", 0.0, FRAME_BYTES)],
           "receiving": [("bulk", "b", "x", "c", 0.0, MB // 4)],
           "lossy": [],
           "fluid": [("fluid", "v", "x", "y", 0.0, MB // 8)]}[busy]
    start = {"sending": 1e-6, "receiving": 1.5e-3}.get(busy, 1e-4)
    ops = [*ops, ("command", "q", "s", "c", start, COMMAND_BYTES)]

    def loss():
        return LossModel(0.2, seed=7) if busy == "lossy" else None
    got, events, switch = train_run(WatchedSwitch, [], ops, loss=loss())
    reference, reference_events, _ = train_run(LoopTrainSwitch, [], ops,
                                               loss=loss())
    assert got == reference
    assert switch.commands == 0
    assert events == reference_events


class LoopNic(Nic):
    """A NIC whose replies run as the per-fragment loop."""

    def start_train(self, *reply):
        loop_train(self, *reply)


def aoe_reads(server_nic, forensics=False):
    """Overlapping multi-fragment AoE reads (and a bulk one) from two
    clients to a two-worker server, so replies start as trains and
    hand over.  Returns the replay digest, the client-side instants,
    and, with ``forensics``, the ``nic:tx`` slices and self times."""
    from repro.analysis.replay import ReplayRecorder
    from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
    env = Environment()
    telemetry = Telemetry(env, forensics=True) if forensics \
        else NULL_TELEMETRY
    recorder = ReplayRecorder().attach(env)
    switch = EthernetSwitch(env)
    contents = IntervalMap()
    contents.set_range(0, 1 << 16, "img")
    store = ImageStore(env, contents, 1 << 16, cache_hit_ratio=0.5)
    server = AoeServer(env, server_nic(env, switch, "server",
                                       telemetry=telemetry),
                       store, workers=2, telemetry=telemetry)
    server.start()
    clients = [AoeInitiator(env, Nic(env, switch, name), "server",
                            poll_interval=100e-6) for name in ("c0", "c1")]
    instants = {}

    def read(label, client, start, lba, sectors, bulk=False):
        yield env.timeout(start)
        runs = yield from client.read_blocks(lba, sectors, bulk=bulk)
        assert runs == [(lba, lba + sectors, "img")]
        instants[label] = env.now

    for label, client, start, lba, sectors, *bulk in [
            ("r0", 0, 0.0, 0, 2048), ("r1", 1, 4e-3, 4096, 128),
            ("r2", 0, 12e-3, 8192, 256, True), ("r3", 1, 12.5e-3, 100, 64),
            ("r4", 1, 30e-3, 20000, 512), ("r5", 0, 31e-3, 30000, 17)]:
        env.process(read(label, clients[client], start, lba, sectors, *bulk))
    env.run()
    instants["fragments"] = server.fragments_sent
    slices = self_times = None
    if forensics:
        tracer = telemetry.tracer
        slices = sorted((span.lane, span.start, span.end)
                        for span in tracer.spans if span.component == "nic")
        self_times = (tracer.component_self, tracer.folded)
    return recorder.digest(), instants, slices, self_times


def test_trains_replay_identically_with_forensics():
    digest, instants, _, _ = aoe_reads(Nic)
    assert aoe_reads(Nic, forensics=True)[:2] == (digest, instants)


def test_trains_keep_the_loops_tx_slices_and_self_times():
    _, instants, slices, (component_self, folded) = aoe_reads(
        Nic, forensics=True)
    _, loop_instants, loop_slices, (loop_self, loop_folded) = aoe_reads(
        LoopNic, forensics=True)
    assert instants == loop_instants
    # One slice per frame; the bulk reply counts a fragment, no frame.
    assert len(slices) == instants["fragments"] - 1
    assert slices == loop_slices
    assert (component_self, folded) == (loop_self, loop_folded)


# -- component-span attribution ----------------------------------------------


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
    bitmap.commit_fill_run(0, 1)
    nic = Nic(env, switch, "server", telemetry=telemetry)
    PeerChunkService(env, nic, disk, bitmap, PeerDirectory(),
                     telemetry=telemetry).start()
    client = Nic(env, switch, "client")
    command = AoeCommand(7, "read", 0, 16)

    def ask():
        yield from client.send("server", command, command.frame_bytes())

    env.process(ask())
    env.run(until=1.0)
    tracer = telemetry.tracer

    def depth(span):
        return 0 if span.parent is None else 1 + depth(span.parent)

    frames = {(span.component, span.name):
              (span.lane, span.start, span.end, depth(span),
               span.end - span.start - span.child_time)
              for span in tracer.spans}
    assert {lane for lane, *_ in frames.values()} == {"aoe-serve-7"}
    serve = frames[("peer-fabric", "serve-read")]
    read = frames[("disk", "read")]
    tx = frames[("nic", "tx")]
    assert (serve[3], read[3], tx[3]) == (0, 1, 1)
    assert serve[1] <= read[1] < read[2] <= tx[1] < tx[2] <= serve[2]
    # The serve's self time excludes its children's spans.
    children = (read[2] - read[1]) + (tx[2] - tx[1])
    assert serve[4] == pytest.approx(serve[2] - serve[1] - children)
    assert set(tracer.folded) == {"peer-fabric:serve-read",
                                  "peer-fabric:serve-read;disk:read",
                                  "peer-fabric:serve-read;nic:tx"}

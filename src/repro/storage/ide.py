"""IDE (parallel ATA) host controller model with bus-master DMA.

Registers follow the real primary-channel layout (taskfile at 0x1F0-0x1F7,
bus-master registers in I/O space) so that the IDE device mediator can
perform genuine device-interface-level interpretation: it decodes command,
LBA, and sector count from the same register writes a real driver emits,
and distinguishes command / status / data phases exactly as the paper's
1,472-LOC mediator does.
"""

from __future__ import annotations

from repro.sim import Environment
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.storage.controller import DiskController
from repro.storage.disk import Disk

# -- port layout (primary channel) -------------------------------------------

IDE_BASE = 0x1F0
REG_DATA = IDE_BASE + 0          # PIO data window
REG_FEATURES = IDE_BASE + 1      # write: features / read: error
REG_SECTOR_COUNT = IDE_BASE + 2
REG_LBA_LOW = IDE_BASE + 3
REG_LBA_MID = IDE_BASE + 4
REG_LBA_HIGH = IDE_BASE + 5
REG_DEVICE = IDE_BASE + 6        # drive select + LBA bits 24-27
REG_COMMAND = IDE_BASE + 7       # write: command / read: status

TASKFILE_PORTS = tuple(range(IDE_BASE, IDE_BASE + 8))

#: Bus-master (BMIDE) register block base.
BM_BASE = 0xC000
BM_COMMAND = BM_BASE + 0         # bit 0: start, bit 3: write-to-memory
BM_STATUS = BM_BASE + 2          # bit 0: active, bit 2: interrupt
BM_PRDT = BM_BASE + 4            # PRD table physical address

BUSMASTER_PORTS = (BM_COMMAND, BM_STATUS, BM_PRDT)

ALL_PORTS = TASKFILE_PORTS + BUSMASTER_PORTS

# -- status bits ----------------------------------------------------------------

STATUS_ERR = 0x01
STATUS_DRQ = 0x08
STATUS_DRDY = 0x40
STATUS_BSY = 0x80

BM_CMD_START = 0x01
BM_CMD_WRITE_TO_MEMORY = 0x08
BM_STATUS_ACTIVE = 0x01
BM_STATUS_IRQ = 0x04

# -- ATA commands -----------------------------------------------------------------

CMD_READ_DMA = 0xC8
CMD_WRITE_DMA = 0xCA
CMD_READ_DMA_EXT = 0x25
CMD_WRITE_DMA_EXT = 0x35
CMD_IDENTIFY = 0xEC
CMD_FLUSH_CACHE = 0xE7

DMA_READ_COMMANDS = (CMD_READ_DMA, CMD_READ_DMA_EXT)
DMA_WRITE_COMMANDS = (CMD_WRITE_DMA, CMD_WRITE_DMA_EXT)
DMA_COMMANDS = DMA_READ_COMMANDS + DMA_WRITE_COMMANDS
EXT_COMMANDS = (CMD_READ_DMA_EXT, CMD_WRITE_DMA_EXT)

#: Default interrupt line of the primary IDE channel.
IDE_IRQ = 14


class Taskfile:
    """Shadowable taskfile register state with LBA48 hop ("hob") values.

    Writing a taskfile register pushes the previous value into the "hob"
    slot, which is how LBA48 commands carry 48-bit addresses and 16-bit
    sector counts through 8-bit registers.  Both the controller and the
    device mediator (its shadow copy) use this class, so interpretation
    and hardware decode identical state.
    """

    _SHIFTING = (REG_SECTOR_COUNT, REG_LBA_LOW, REG_LBA_MID, REG_LBA_HIGH)

    def __init__(self):
        self.current: dict[int, int] = {port: 0 for port in TASKFILE_PORTS}
        self.hob: dict[int, int] = {port: 0 for port in self._SHIFTING}

    def write(self, port: int, value: int) -> None:
        if port in self._SHIFTING:
            self.hob[port] = self.current[port]
        self.current[port] = value & 0xFF

    def read(self, port: int) -> int:
        return self.current[port]

    def decode_lba(self, ext: bool) -> int:
        low = self.current[REG_LBA_LOW]
        mid = self.current[REG_LBA_MID]
        high = self.current[REG_LBA_HIGH]
        if ext:
            return (self.hob[REG_LBA_HIGH] << 40
                    | self.hob[REG_LBA_MID] << 32
                    | self.hob[REG_LBA_LOW] << 24
                    | high << 16 | mid << 8 | low)
        device_bits = self.current[REG_DEVICE] & 0x0F
        return device_bits << 24 | high << 16 | mid << 8 | low

    def decode_sector_count(self, ext: bool) -> int:
        count = self.current[REG_SECTOR_COUNT]
        if ext:
            count16 = self.hob[REG_SECTOR_COUNT] << 8 | count
            return count16 if count16 != 0 else 65536
        return count if count != 0 else 256

    def load(self, lba: int, sector_count: int, ext: bool) -> None:
        """Program this taskfile for a DMA command (driver/mediator side)."""
        if ext:
            if not 1 <= sector_count <= 65536:
                raise ValueError("LBA48 sector count out of range")
            count = sector_count if sector_count < 65536 else 0
            self.write(REG_SECTOR_COUNT, (count >> 8) & 0xFF)
            self.write(REG_SECTOR_COUNT, count & 0xFF)
            self.write(REG_LBA_LOW, (lba >> 24) & 0xFF)
            self.write(REG_LBA_LOW, lba & 0xFF)
            self.write(REG_LBA_MID, (lba >> 32) & 0xFF)
            self.write(REG_LBA_MID, (lba >> 8) & 0xFF)
            self.write(REG_LBA_HIGH, (lba >> 40) & 0xFF)
            self.write(REG_LBA_HIGH, (lba >> 16) & 0xFF)
            self.write(REG_DEVICE, 0x40)  # LBA mode
        else:
            if not 1 <= sector_count <= 256:
                raise ValueError("LBA28 sector count out of range")
            if lba >= 1 << 28:
                raise ValueError("LBA28 address out of range")
            self.write(REG_SECTOR_COUNT, sector_count & 0xFF)
            self.write(REG_LBA_LOW, lba & 0xFF)
            self.write(REG_LBA_MID, (lba >> 8) & 0xFF)
            self.write(REG_LBA_HIGH, (lba >> 16) & 0xFF)
            self.write(REG_DEVICE, 0xE0 | ((lba >> 24) & 0x0F))


def decode_request(taskfile: Taskfile, command: int) -> BlockRequest | None:
    """Decode a DMA command + taskfile into a block request.

    This is the heart of *I/O interpretation*: given only register state,
    recover (operation, LBA, sector count).  Returns ``None`` for
    non-data-transfer commands.
    """
    if command not in DMA_COMMANDS:
        return None
    ext = command in EXT_COMMANDS
    op = BlockOp.READ if command in DMA_READ_COMMANDS else BlockOp.WRITE
    lba = taskfile.decode_lba(ext)
    count = taskfile.decode_sector_count(ext)
    return BlockRequest(op=op, lba=lba, sector_count=count)


class IdeController(DiskController):
    """The IDE host controller + attached disk, as one device model."""

    kind = "ide"

    def __init__(self, env: Environment, disk: Disk, machine,
                 irq_line: int = IDE_IRQ):
        super().__init__(env, disk, machine, irq_line)
        self.taskfile = Taskfile()
        self.status = STATUS_DRDY
        self.error = 0
        self.bm_command = 0
        self.bm_status = 0
        self.bm_prdt = 0

        self._pending_command: int | None = None

        machine.bus.register_pio(ALL_PORTS, self)

    # -- register interface (device side; instantaneous) ------------------------

    def pio_read(self, port: int) -> int:
        if port == REG_COMMAND:
            return self.status
        if port == REG_FEATURES:
            return self.error
        if port == BM_STATUS:
            return self.bm_status
        if port == BM_COMMAND:
            return self.bm_command
        if port == BM_PRDT:
            return self.bm_prdt
        if port in TASKFILE_PORTS:
            return self.taskfile.read(port)
        raise ValueError(f"IDE: unknown port {port:#x}")

    def pio_write(self, port: int, value: int) -> None:
        if port == REG_COMMAND:
            self._start_command(value)
        elif port == BM_COMMAND:
            was_started = self.bm_command & BM_CMD_START
            self.bm_command = value
            if value & BM_CMD_START and not was_started:
                self.bm_status |= BM_STATUS_ACTIVE
                self._maybe_execute()
            if not value & BM_CMD_START:
                self.bm_status &= ~BM_STATUS_ACTIVE
        elif port == BM_STATUS:
            # Writing 1 to the IRQ bit clears it (write-1-to-clear).
            if value & BM_STATUS_IRQ:
                self.bm_status &= ~BM_STATUS_IRQ
        elif port == BM_PRDT:
            self.bm_prdt = value
        elif port in TASKFILE_PORTS:
            self.taskfile.write(port, value)
        else:
            raise ValueError(f"IDE: unknown port {port:#x}")

    # -- properties the mediator polls -------------------------------------------

    @property
    def busy(self) -> bool:
        return bool(self.status & STATUS_BSY)

    # -- command execution -----------------------------------------------------------

    def _start_command(self, command: int) -> None:
        if self.busy:
            # Real drives ignore commands while BSY; drivers never do this.
            return
        if command in DMA_COMMANDS:
            self.status = STATUS_BSY | STATUS_DRDY
            self._pending_command = command
            self._maybe_execute()
        elif command == CMD_IDENTIFY:
            self.status = STATUS_BSY | STATUS_DRDY
            self._start_timer(command, 200e-6)
        elif command == CMD_FLUSH_CACHE:
            self.status = STATUS_BSY | STATUS_DRDY
            self._start_timer(command, 2e-3)
        else:
            # Unsupported command: error out immediately.
            self.error = 0x04  # ABRT
            self.status = STATUS_DRDY | STATUS_ERR
            self._signal()

    def _maybe_execute(self) -> None:
        """Start the pending DMA command once the bus master runs."""
        if (self._pending_command is not None
                and self.bm_command & BM_CMD_START):
            command = self._pending_command
            self._pending_command = None
            self._start_dma(command, decode_request(self.taskfile, command),
                            self.bm_prdt, "ide-dma")

    def _retire(self, command: int) -> bool:
        if command in DMA_COMMANDS:
            self.status = STATUS_DRDY
            self.bm_status &= ~BM_STATUS_ACTIVE
            self.bm_status |= BM_STATUS_IRQ
        elif command == CMD_IDENTIFY:
            self.status = STATUS_DRDY | STATUS_DRQ
        else:
            self.status = STATUS_DRDY
        return True

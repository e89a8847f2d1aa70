"""The I/O bus: PIO/MMIO routing with VMM interception.

This is the seam the whole design hangs on.  Guest drivers issue port and
memory-mapped I/O through the bus.  When the issuing CPU is in VMX
non-root mode and the address is trapped, the access causes a VM exit and
is handed to the installed intercept (the device mediator), which may
observe it, forward it, emulate a reply, or block it.  When virtualization
is off — or the address is not trapped — the access goes straight to the
device model, with **zero** added cost: this is what "de-virtualized means
zero overhead" looks like mechanically.

All bus access methods are generators (``yield from`` them) because an
intercepted access can take time (the exit itself) or even block (a
mediator redirecting a read across the network).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import params
from repro.hw.cpu import Cpu, ExitReason, VmxMode
from repro.sim import Environment


class BusError(Exception):
    """Access to an unmapped port/address, or conflicting registration."""


@dataclass(slots=True)
class IoAccess:
    """One PIO or MMIO access, as seen by an intercept.  One is built
    per trapped access, so it is slotted."""

    kind: str            # "pio" | "mmio"
    is_write: bool
    address: int         # port number or physical address
    value: int | None    # written value (writes only)
    cpu: Cpu | None
    #: Set by the intercept to override what the guest reads.
    reply: int | None = None
    #: If True the access is NOT forwarded to the device by the bus.
    absorb: bool = False


class _MmioRegion:
    def __init__(self, start: int, length: int, device):
        self.start = start
        self.length = length
        self.device = device

    def contains(self, address: int) -> bool:
        return self.start <= address < self.start + self.length


class IoBus:
    """Routes PIO/MMIO to devices, with an interception layer for the VMM."""

    def __init__(self, env: Environment):
        self.env = env
        self._pio_devices: dict[int, object] = {}
        self._mmio_regions: list[_MmioRegion] = []
        # Intercepts: the VMM installs at most one hook per port/region.
        self._pio_intercepts: dict[int, object] = {}
        self._mmio_intercepts: list[tuple[_MmioRegion, object]] = []
        #: ``address -> (device, hook or None)`` for every MMIO address
        #: accessed since the regions or intercepts last changed: one
        #: dict hit per access instead of a scan of each list.
        self._mmio_routes: dict[int, tuple] = {}
        #: Accesses routed through intercepts (metrics).
        self.intercepted_accesses = 0
        #: Accesses that went straight to hardware.
        self.direct_accesses = 0

    # -- device registration ---------------------------------------------------

    def register_pio(self, ports, device) -> None:
        """Claim PIO ``ports`` (iterable of ints) for ``device``.

        The device must expose ``pio_read(port) -> int`` and
        ``pio_write(port, value) -> None``.
        """
        for port in ports:
            if port in self._pio_devices:
                raise BusError(f"port {port:#x} already claimed")
            self._pio_devices[port] = device

    def register_mmio(self, start: int, length: int, device) -> None:
        """Claim MMIO range for ``device`` (``mmio_read``/``mmio_write``)."""
        region = _MmioRegion(start, length, device)
        for existing in self._mmio_regions:
            if (existing.start < region.start + region.length
                    and region.start < existing.start + existing.length):
                raise BusError(
                    f"MMIO range {start:#x}+{length:#x} overlaps existing")
        self._mmio_regions.append(region)
        self._mmio_routes.clear()

    # -- interception (VMM side) -------------------------------------------------

    def intercept_pio(self, ports, hook) -> None:
        """Install ``hook`` on PIO ``ports``.

        ``hook(access)`` is called with an :class:`IoAccess` in VMX root
        mode, after the exit cost has been charged.  It returns None
        when it handled the access in place, or a generator the bus runs
        (``yield from``) when handling takes simulated time.  An access
        handled in place costs the exit's time and, only where another
        event is due first, its timer (``Environment.elapse``).
        """
        for port in ports:
            if port in self._pio_intercepts:
                raise BusError(f"port {port:#x} already intercepted")
            self._pio_intercepts[port] = hook

    def uninstall_pio_intercepts(self, ports) -> None:
        for port in ports:
            self._pio_intercepts.pop(port, None)

    def intercept_mmio(self, start: int, length: int, hook) -> None:
        """Install ``hook`` on an MMIO range (see :meth:`intercept_pio`)."""
        self._mmio_intercepts.append((_MmioRegion(start, length, None), hook))
        self._mmio_routes.clear()

    def uninstall_mmio_intercepts(self, hook) -> None:
        self._mmio_intercepts = [
            (region, existing) for region, existing in self._mmio_intercepts
            if existing is not hook
        ]
        self._mmio_routes.clear()

    def clear_all_intercepts(self) -> None:
        """Rip out every hook (final de-virtualization step)."""
        self._pio_intercepts.clear()
        self._mmio_intercepts.clear()
        self._mmio_routes.clear()

    @property
    def has_intercepts(self) -> bool:
        return bool(self._pio_intercepts or self._mmio_intercepts)

    # -- access paths -------------------------------------------------------------

    def pio_read(self, port: int, cpu: Cpu | None = None):
        """Generator: read one PIO port."""
        device = self._pio_device(port)
        hook = self._pio_intercepts.get(port)
        if hook is not None and _guest_context(cpu):
            access = IoAccess("pio", False, port, None, cpu)
            yield from self._run_intercept(cpu, ExitReason.PIO, hook, access)
            if access.reply is not None:
                return access.reply
            return device.pio_read(port)
        self.direct_accesses += 1
        return device.pio_read(port)

    def pio_write(self, port: int, value: int, cpu: Cpu | None = None):
        """Generator: write one PIO port."""
        device = self._pio_device(port)
        hook = self._pio_intercepts.get(port)
        if hook is not None and _guest_context(cpu):
            access = IoAccess("pio", True, port, value, cpu)
            yield from self._run_intercept(cpu, ExitReason.PIO, hook, access)
            if not access.absorb:
                device.pio_write(port, value)
            return None
        self.direct_accesses += 1
        device.pio_write(port, value)
        return None

    def mmio_read(self, address: int, cpu: Cpu | None = None):
        """Generator: read a 32-bit MMIO register."""
        device, hook = self._mmio_routes.get(address) \
            or self._mmio_route(address)
        if hook is not None and _guest_context(cpu):
            access = IoAccess("mmio", False, address, None, cpu)
            yield from self._run_intercept(cpu, ExitReason.MMIO, hook, access)
            if access.reply is not None:
                return access.reply
            return device.mmio_read(address)
        self.direct_accesses += 1
        return device.mmio_read(address)

    def mmio_write(self, address: int, value: int, cpu: Cpu | None = None):
        """Generator: write a 32-bit MMIO register."""
        device, hook = self._mmio_routes.get(address) \
            or self._mmio_route(address)
        if hook is not None and _guest_context(cpu):
            access = IoAccess("mmio", True, address, value, cpu)
            yield from self._run_intercept(cpu, ExitReason.MMIO, hook, access)
            if not access.absorb:
                device.mmio_write(address, value)
            return None
        self.direct_accesses += 1
        device.mmio_write(address, value)
        return None

    # -- internals ------------------------------------------------------------------

    def _run_intercept(self, cpu: Cpu, reason: ExitReason, hook, access):
        self.intercepted_accesses += 1
        if cpu.mode is VmxMode.NON_ROOT:
            cost = cpu.vmexit(reason)
            timer = self.env.elapse(cost + params.MEDIATOR_HANDLE_SECONDS)
            if timer is not None:
                yield timer
            work = hook(access)
            if work is not None:
                yield from work
            if cpu.mode is VmxMode.ROOT:
                cpu.vmresume()
        else:
            # Another guest context's exit is still being handled on
            # this CPU model (a long-running hook): account a separate
            # exit without a second mode transition.
            cpu.exit_counts[reason] += 1
            cpu.exit_seconds += params.VM_EXIT_SECONDS
            timer = self.env.elapse(params.VM_EXIT_SECONDS
                                    + params.MEDIATOR_HANDLE_SECONDS)
            if timer is not None:
                yield timer
            work = hook(access)
            if work is not None:
                yield from work

    def _pio_device(self, port: int):
        device = self._pio_devices.get(port)
        if device is None:
            raise BusError(f"no device at PIO port {port:#x}")
        return device

    def _mmio_route(self, address: int) -> tuple:
        """Resolve and remember ``address``'s device and hook."""
        for region in self._mmio_regions:
            if region.contains(address):
                break
        else:
            raise BusError(f"no device at MMIO address {address:#x}")
        hook = None
        for hooked, candidate in self._mmio_intercepts:
            if hooked.contains(address):
                hook = candidate
                break
        route = self._mmio_routes[address] = (region.device, hook)
        return route


def _guest_context(cpu: Cpu | None) -> bool:
    """Is the access subject to interception?

    True whenever the CPU is under VMX at all: a guest access racing an
    in-flight exit on the same modelled CPU must still trap — bypassing
    the mediator to raw hardware would be a (serious) isolation bug.
    """
    return cpu is not None and cpu.mode is not VmxMode.OFF

"""Interrupt controller model (IOAPIC-style line delivery).

Guest drivers wait on interrupt lines; device models raise them.  Device
mediators never virtualize this controller (paper 3.2 rejects that for
portability) — instead they *mask* a device's line while the VMM owns the
device for a multiplexed request and detect completion by polling, then
clear any pending state before unmasking so the guest never observes the
VMM's interrupts.
"""

from __future__ import annotations

from repro.sim import Environment, Event


#: Latency from a device raising a line to the handler observing it.
IRQ_DELIVERY_SECONDS = 4e-6


class InterruptController:
    """Delivers device interrupts to registered waiters, with masking."""

    def __init__(self, env: Environment, lines: int = 24):
        self.env = env
        self.lines = lines
        self._waiters: dict[int, list[Event]] = {n: [] for n in range(lines)}
        self._masked: set[int] = set()
        self._pending: set[int] = set()
        #: Per-line delivered-interrupt counters (metrics/tests).
        self.delivered: dict[int, int] = {n: 0 for n in range(lines)}
        #: Interrupts suppressed while masked.
        self.suppressed: dict[int, int] = {n: 0 for n in range(lines)}

    def _check_line(self, line: int) -> None:
        # Masking tests ``line in self._waiters`` first: no call per use.
        if not 0 <= line < self.lines:
            raise ValueError(f"no such interrupt line: {line}")

    # -- waiting --------------------------------------------------------------

    def wait(self, line: int) -> Event:
        """Event that fires on the next delivery on ``line``.

        If an interrupt is already pending (raised while nobody waited and
        the line unmasked), it is consumed immediately.
        """
        self._check_line(line)
        event = self.env.event()
        if line in self._pending and line not in self._masked:
            self._pending.discard(line)
            self.delivered[line] += 1
            event.succeed(line)
        else:
            self._waiters[line].append(event)
        return event

    # -- raising --------------------------------------------------------------

    def raise_irq(self, line: int) -> None:
        """A device asserts ``line``."""
        self._check_line(line)
        if line in self._masked:
            self.suppressed[line] += 1
            self._pending.add(line)
            return
        self._deliver(line)

    def _deliver(self, line: int) -> None:
        waiters = self._waiters[line]
        if not waiters:
            self._pending.add(line)
            return
        self._pending.discard(line)
        self.delivered[line] += 1
        # Deliver to every waiter (shared line); each decides relevance.
        self._waiters[line] = []
        for event in waiters:
            # Small delivery latency so handlers run after the raising
            # device finishes its state update: one event per waiter,
            # its own, scheduled at the delivery instant.
            event.succeed(line, delay=IRQ_DELIVERY_SECONDS)

    # -- masking (used by device mediators) -----------------------------------

    def mask(self, line: int) -> None:
        if line not in self._waiters:
            self._check_line(line)
        self._masked.add(line)

    def unmask(self, line: int) -> None:
        """Unmask; a pending interrupt (if not cleared) is then delivered."""
        if line not in self._waiters:
            self._check_line(line)
        self._masked.discard(line)
        if line in self._pending and self._waiters[line]:
            self._deliver(line)

    def clear_pending(self, line: int) -> None:
        """Drop any pending assertion (mediator acked the device itself)."""
        if line not in self._waiters:
            self._check_line(line)
        self._pending.discard(line)

    def is_pending(self, line: int) -> bool:
        return line in self._pending


"""De-virtualization (paper 3.4): the VMM removes itself.

Steps, in order:

1. Wait for a *consistent hardware state*: every mediator passthrough,
   no queued guest commands, no VMM I/O in flight.
2. Per-CPU nested-paging teardown.  Because the guest-physical map is
   identity for the VMM's whole lifetime, CPUs may flush their TLBs and
   disable nested paging at independent times — no IPI-based TLB
   shootdown is needed (the VMM cannot send IPIs anyway, as it never
   owned the interrupt controllers).
3. Remove all I/O intercepts (the bus routes everything directly).
4. VMXOFF on every CPU — or, in ``resident`` mode, keep a dormant VMM
   that only hides the management NIC's PCI config space (paper 4.3's
   alternative when the NIC must stay invisible).
"""

from __future__ import annotations

from repro.hw.cpu import VmxMode
from repro.sim import Environment


#: Per-CPU cost of INVEPT + disabling nested paging.
PER_CPU_TEARDOWN_SECONDS = 20e-6


class Devirtualizer:
    """Executes the de-virtualization phase for one machine."""

    def __init__(self, env: Environment, machine, mediators,
                 vmxoff_mode: str = "full",
                 management_nic_slot: int | None = None):
        if vmxoff_mode not in ("full", "module-assisted", "resident"):
            raise ValueError(f"unknown vmxoff mode {vmxoff_mode!r}")
        self.env = env
        self.machine = machine
        self.mediators = list(mediators)
        self.vmxoff_mode = vmxoff_mode
        self.management_nic_slot = management_nic_slot
        self.completed_at: float | None = None
        #: No-argument callables invoked the instant de-virtualization
        #: finishes — the point of no return, and hence the natural spot
        #: for end-of-mediation invariant checks (repro.analysis).
        self.completion_listeners: list = []

    def run(self, poll_interval: float = 1e-3):
        """Generator: perform de-virtualization; returns elapsed seconds."""
        start = self.env.now

        # 1. Consistent hardware state.
        while not all(mediator.quiescent for mediator in self.mediators):
            yield self.env.timeout(poll_interval)

        # 2. Asynchronous per-CPU nested paging teardown.
        for cpu in self.machine.cpus:
            cpu.npt.disable()
            timer = self.env.elapse(PER_CPU_TEARDOWN_SECONDS)
            if timer is not None:
                yield timer

        # 3. Remove intercepts: all I/O now flows directly.
        for mediator in self.mediators:
            mediator.uninstall()

        # 4. Terminate virtualization.
        if self.vmxoff_mode == "resident":
            # The VMM stays dormant to keep the management NIC hidden;
            # only CPUID still exits, which is negligible (paper 5.5.2).
            if self.management_nic_slot is not None:
                self.machine.pci.hide(self.management_nic_slot)
        else:
            # "full": VMXOFF issued from a trampoline without guest help
            # (future-work path in the paper); "module-assisted": with a
            # guest kernel module.  Mechanically identical from here.
            for cpu in self.machine.cpus:
                if cpu.mode is not VmxMode.OFF:
                    cpu.vmxoff()

        self.completed_at = self.env.now
        for listener in self.completion_listeners:
            listener()
        return self.env.now - start

    @property
    def residual_vmx(self) -> bool:
        """True if CPUs are still in VMX mode after de-virtualization."""
        return any(cpu.mode is not VmxMode.OFF for cpu in self.machine.cpus)


def reset_virtualization(machine, management_nic_slot: int | None = None):
    """Return a machine's virtualization state to cold bare metal.

    The reclaim path (repro.ctl) re-takes control of a node once its
    guest epoch ends.  A ``resident``-mode node still carries the
    dormant VMM: its CPUs sit in VMX with the management NIC hidden, so
    re-virtualization is just re-arming what never left — VMXOFF the
    CPUs so the next deployment's VMM can VMXON afresh, un-hide the
    NIC, and leave nested paging disabled.  A fully de-virtualized node
    is already in this state; the call is then a no-op.  Mirrors step 4
    of :class:`Devirtualizer`, but driven from outside a running VMM.
    """
    for cpu in machine.cpus:
        if cpu.mode is not VmxMode.OFF:
            cpu.vmxoff()
        cpu.npt.disable()
    if management_nic_slot is not None \
            and machine.pci.is_hidden(management_nic_slot):
        machine.pci.unhide(management_nic_slot)

"""Background-copy moderation policy (paper 3.3, evaluated in 5.6).

Three configurable parameters govern the copier's write pacing:

* **guest I/O frequency threshold** — above it, the guest is considered
  busy and the copier suspends;
* **VMM-write interval** — the gap between block writes when the guest
  is quiet;
* **VMM-write suspend interval** — how long to back off when busy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import params
from repro.vmm.deploy import DeploymentContext


@dataclass(frozen=True)
class ModerationPolicy:
    """The paper's three-parameter pacing policy."""

    guest_io_threshold: float = params.MODERATION_GUEST_IO_THRESHOLD
    write_interval: float = params.MODERATION_WRITE_INTERVAL_SECONDS
    suspend_interval: float = params.MODERATION_SUSPEND_INTERVAL_SECONDS

    def is_suspended(self, deployment: DeploymentContext) -> bool:
        return deployment.guest_io_frequency() > self.guest_io_threshold


#: Full-speed policy (the right end of Figure 14's sweep): no pacing.
FULL_SPEED = ModerationPolicy(guest_io_threshold=float("inf"),
                              write_interval=0.0,
                              suspend_interval=0.0)


def interval_sweep_policy(write_interval: float) -> ModerationPolicy:
    """A policy for Figure 14: fixed write interval, no suspension."""
    return ModerationPolicy(guest_io_threshold=float("inf"),
                            write_interval=write_interval,
                            suspend_interval=0.0)

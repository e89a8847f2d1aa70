"""The one sanctioned door to pseudo-randomness in simulation code.

Every stochastic model in the simulator (frame loss, boot traces,
workload generators) must draw from an explicitly seeded generator so
that a run is a pure function of its inputs — same seeds, same event
stream, same numbers.  simcheck's rule SIM003 enforces this by
rejecting ``import random`` everywhere except this module; use
:func:`make_rng` instead and thread the instance through.

The module-level ``random.*`` functions (and unseeded ``Random()``)
are banned outright: they share hidden global state across otherwise
independent components, so adding one draw anywhere perturbs every
number downstream of it.
"""

from __future__ import annotations

import random


def make_rng(seed: int) -> random.Random:
    """A dedicated, explicitly seeded pseudo-random generator.

    Thin by design — the point is the choke point, not the wrapper.
    Callers keep their own instance; nothing here is shared.
    """
    if seed is None:
        raise ValueError("simulation RNGs must be explicitly seeded")
    return random.Random(seed)

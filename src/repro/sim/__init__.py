"""Discrete-event simulation engine underlying the BMcast reproduction.

Public surface::

    from repro.sim import Environment, Interrupt, Store

    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "done"

    p = env.process(proc(env))
    env.run(until=p)   # -> "done"
"""

from repro.sim.engine import Environment, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Notifier,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Notifier",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]

"""Tracing changes nothing: on a shrunken instance of each workload the
replay digest, the event count, the counters and the ``model.*``
figures are identical with the traced run's hook and profiler on and
off.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest
perfbench``.
"""

import pytest

from child import _traced_drive
from repro.analysis.replay import ReplayRecorder
from run import DEFAULT_SEED
from workloads import EVENT_COMPONENTS, SHRUNK, WORKLOADS, build


def _replay(name, traced):
    run = build(name, DEFAULT_SEED, SHRUNK[name])
    recorder = ReplayRecorder().attach(run.env)
    extra = None
    if traced:
        _, events, poll_timeouts, _ = _traced_drive(run, EVENT_COMPONENTS,
                                                    None)
        extra = (events, poll_timeouts)
    else:
        run.drive()
    result = run.collect()
    assert result["failures"] == []
    return (recorder.digest(), recorder.events, result["counters"],
            result["model"]), extra


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_the_run_unchanged(name):
    plain, _ = _replay(name, traced=False)
    traced, (events, poll_timeouts) = _replay(name, traced=True)
    assert traced == plain
    # The hook saw the run: every workload has a background copier.
    assert events["sim.events.copier"] > 0
    if name == "paper-deploy":
        assert poll_timeouts > 0

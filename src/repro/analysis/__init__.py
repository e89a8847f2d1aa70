"""repro.analysis — correctness tooling for the simulator.

Two layers:

* **simcheck** (:mod:`repro.analysis.simcheck`) — the static analyzer.
  It parses ``src/repro`` once, runs the per-module SIM rules
  (:mod:`repro.analysis.rules`: wall clock, unseeded randomness,
  mutable defaults, layering, blocking primitives) on each module's
  parse, and the whole-program passes over the project model:
  call-graph determinism taint, process discipline, shared-state race
  candidates, FSM model extraction, and import cycles.  Run it as
  ``repro check`` or ``python -m repro.analysis``.
* **runtime sanitizers** (:mod:`repro.analysis.sanitizers` and
  friends) — opt-in checkers attached to a live deployment:
  the disk write-race detector, the bitmap↔disk consistency checker,
  the AoE conformance validator, and the replay-divergence checker.
  Attach a :class:`SanitizerSuite` via
  ``provisioner.deploy(..., sanitizers=suite)`` or the CLI's
  ``repro deploy --sanitize``.

See ``docs/analysis.md`` for the rule catalog and extension guide.
"""

from repro.analysis.aoe_conformance import AoeConformanceValidator
from repro.analysis.consistency import BitmapDiskChecker
from repro.analysis.lint import Finding
from repro.analysis.replay import (
    ReplayRecorder,
    ReplayReport,
    check_replay,
    deployment_scenario,
)
from repro.analysis.sanitizers import (
    Sanitizer,
    SanitizerError,
    SanitizerSuite,
    Violation,
)
from repro.analysis.simcheck import (
    CheckReport,
    ProjectModel,
    build_model,
    run_check,
)
from repro.analysis.write_race import WriteRaceDetector

__all__ = [
    "AoeConformanceValidator",
    "BitmapDiskChecker",
    "CheckReport",
    "Finding",
    "ProjectModel",
    "build_model",
    "run_check",
    "ReplayRecorder",
    "ReplayReport",
    "Sanitizer",
    "SanitizerError",
    "SanitizerSuite",
    "Violation",
    "WriteRaceDetector",
    "check_replay",
    "deployment_scenario",
]

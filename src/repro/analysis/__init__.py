"""repro.analysis — correctness tooling for the simulator.

Three layers:

* **simlint** (:mod:`repro.analysis.lint` + ``rules``) — a static
  AST pass over ``src/repro`` enforcing determinism and architecture
  rules, one module at a time.  Run it as ``repro lint`` or
  ``python -m repro.analysis``.
* **simcheck** (:mod:`repro.analysis.simcheck`) — whole-program
  static analysis layered above simlint: call-graph determinism
  taint, process discipline, shared-state race candidates, FSM model
  extraction, and import cycles.  Run it as ``repro check`` or
  ``python -m repro.analysis --check``.
* **runtime sanitizers** (:mod:`repro.analysis.sanitizers` and
  friends) — opt-in checkers attached to a live deployment:
  the disk write-race detector, the bitmap↔disk consistency checker,
  the AoE conformance validator, and the replay-divergence checker.
  Attach a :class:`SanitizerSuite` via
  ``provisioner.deploy(..., sanitizers=suite)`` or the CLI's
  ``repro deploy --sanitize``.

See ``docs/analysis.md`` for the rule catalogs and extension guide.
"""

from repro.analysis.aoe_conformance import AoeConformanceValidator
from repro.analysis.consistency import BitmapDiskChecker
from repro.analysis.lint import (
    Finding,
    lint_paths,
    lint_source,
)
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
    "lint_paths",
    "lint_source",
]

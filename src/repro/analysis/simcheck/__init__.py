"""simcheck: whole-program static analysis for the simulator.

simcheck parses the entire tree once into a
:class:`~repro.analysis.simcheck.model.ProjectModel` — call graph,
process-function closure, attribute-type tables — running the
per-module SIM rules (:mod:`repro.analysis.rules`) on each module's
parse, and runs five interprocedural passes over the model:
determinism taint, process discipline, shared-state race candidates,
FSM model extraction, and import cycles.  ``repro check`` is the CLI.
"""

from repro.analysis.simcheck.baseline import Baseline, BaselineEntry
from repro.analysis.simcheck.engine import (
    CATALOG,
    CheckReport,
    main,
    run_check,
)
from repro.analysis.simcheck.fsm import check_fsms
from repro.analysis.simcheck.imports import import_graph, imports_pass
from repro.analysis.simcheck.model import (
    ModuleSummary,
    ProjectModel,
    build_model,
    summarize_source,
)
from repro.analysis.simcheck.passes import (
    determinism_pass,
    discipline_pass,
    shared_state_pass,
)
from repro.analysis.simcheck.sarif import sarif_document, write_sarif

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CATALOG",
    "CheckReport",
    "ModuleSummary",
    "ProjectModel",
    "build_model",
    "check_fsms",
    "determinism_pass",
    "discipline_pass",
    "import_graph",
    "imports_pass",
    "main",
    "run_check",
    "sarif_document",
    "shared_state_pass",
    "summarize_source",
    "write_sarif",
]

"""The simcheck engine: pass orchestration, ranking, CLI.

``repro check [paths]`` (or ``python -m repro.analysis [paths]``)
parses every file once into the project model, running the SIM rules
on each module's parse, runs the five whole-program passes, and
reports ranked findings.  ``CATALOG`` below lists every SIM and CHECK
code in report order (``--list-checks`` prints it).

A line opts out with ``# simcheck: ignore[CODE] -- why`` (or
``ignore-next-line``; :mod:`repro.analysis.lint` has the grammar);
pre-existing findings are grandfathered via the committed baseline
file (see :mod:`repro.analysis.simcheck.baseline`).  Exit status is
non-zero iff an error-severity finding survives both filters.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.analysis.lint import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    module_name_for,
    parse_suppressions,
)
from repro.analysis.simcheck.baseline import Baseline
from repro.analysis.simcheck.fsm import check_fsms
from repro.analysis.simcheck.imports import imports_pass
from repro.analysis.simcheck.model import (
    ProjectModel,
    load_sources,
    summarize_source,
)
from repro.analysis.simcheck.passes import (
    determinism_pass,
    discipline_pass,
    shared_state_pass,
)
from repro.analysis.simcheck.sarif import write_sarif

TOOL_VERSION = "1.0.0"

#: code -> (rank, severity, summary).  Rank orders the report: the
#: closer a class of finding sits to silent replay divergence or data
#: loss, the earlier it prints.
CATALOG: dict = {
    "SIM001": (1, SEVERITY_ERROR,
               "no wall-clock time sources — simulated time comes from "
               "env.now"),
    "SIM002": (2, SEVERITY_ERROR,
               "no unseeded or module-global random draws — every RNG "
               "must be a seeded instance"),
    "SIM003": (3, SEVERITY_ERROR,
               "``import random`` only inside repro.util.rng — "
               "everything else takes a seeded instance"),
    "CHECK001": (4, SEVERITY_ERROR,
                 "set-iteration order can reach event scheduling"),
    "CHECK030": (5, SEVERITY_ERROR,
                 "declared FSM transition missing from the code"),
    "CHECK031": (6, SEVERITY_ERROR,
                 "implementation transition the FSM spec does not "
                 "declare"),
    "CHECK032": (7, SEVERITY_ERROR, "unreachable or dead FSM state"),
    "CHECK033": (8, SEVERITY_ERROR,
                 "busy FSM state without a recovery edge"),
    "CHECK034": (9, SEVERITY_ERROR,
                 "FSM spec malformed or extraction failed"),
    "CHECK010": (10, SEVERITY_ERROR,
                 "generator or event constructed and discarded"),
    "CHECK011": (11, SEVERITY_ERROR,
                 "process generator yields a plain constant"),
    "SIM006": (12, SEVERITY_ERROR,
               "no blocking primitives — handlers must yield to the "
               "engine, never sleep or spawn OS threads"),
    "SIM004": (13, SEVERITY_ERROR, "no mutable default arguments"),
    "CHECK050": (14, SEVERITY_ERROR,
                 "import cycle among project modules"),
    "SIM005": (15, SEVERITY_ERROR,
               "architecture layering: a package may import only its "
               "own layer or lower"),
    "CHECK020": (16, SEVERITY_WARNING,
                 "shared attribute written by 2+ process functions "
                 "without claim protocol"),
    "CHECK012": (17, SEVERITY_WARNING,
                 "broad except-pass swallows Interrupt in a process "
                 "generator"),
    "CHECK051": (18, SEVERITY_WARNING,
                 "package missing from SIM005's layering rank table"),
    "CHECK000": (19, SEVERITY_ERROR, "file fails to parse"),
}

DEFAULT_BASELINE = "simcheck.baseline.json"


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    findings: list = field(default_factory=list)
    baselined: list = field(default_factory=list)
    stale_baseline: list = field(default_factory=list)
    suppressed: int = 0
    fsm_reports: list = field(default_factory=list)
    modules: int = 0

    @property
    def errors(self) -> list:
        return [finding for finding in self.findings
                if finding.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list:
        return [finding for finding in self.findings
                if finding.severity == SEVERITY_WARNING]

    @property
    def fsm_fully_covered(self) -> bool:
        return all(report["covered"] == report["total"]
                   for report in self.fsm_reports)

    def describe(self) -> str:
        lines = [
            f"simcheck: {self.modules} module(s), "
            f"{len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.baselined)} baselined, "
            f"{self.suppressed} suppressed, "
            f"{len(self.stale_baseline)} stale baseline entr"
            f"{'y' if len(self.stale_baseline) == 1 else 'ies'}"
        ]
        for report in self.fsm_reports:
            share = (report["covered"] / report["total"]
                     if report["total"] else 1.0)
            lines.append(
                f"FSM {report['name']}: {report['covered']}/"
                f"{report['total']} spec transitions covered "
                f"({share:.0%}), {report['extracted']} extracted")
        return "\n".join(lines)


# -- orchestration ------------------------------------------------------------

def _rank(finding: Finding) -> tuple:
    rank = CATALOG.get(finding.rule, (99,))[0]
    return (rank, finding.path, finding.line, finding.col, finding.rule)


def run_check(paths, baseline_path=None,
              write_baseline: bool = False) -> CheckReport:
    """Build the model, run the SIM rules and all five passes, apply
    filters."""
    report = CheckReport()
    entries = []
    raw: list[Finding] = []
    for path, text in load_sources(paths):
        try:
            summary = summarize_source(text, module_name_for(path),
                                       path=str(path))
        except SyntaxError as error:
            raw.append(Finding(
                str(path), error.lineno or 1, error.offset or 0,
                "CHECK000", SEVERITY_ERROR,
                f"syntax error: {error.msg}"))
            continue
        entries.append((summary, text))
        raw.extend(summary.findings)
    model = ProjectModel(entries)
    report.modules = len(entries)

    raw.extend(determinism_pass(model))
    raw.extend(discipline_pass(model))
    raw.extend(shared_state_pass(model))
    fsm_findings, report.fsm_reports = check_fsms(model)
    raw.extend(fsm_findings)
    raw.extend(imports_pass(model))

    # Inline suppressions.
    tables: dict[str, dict] = {}
    active: list[Finding] = []
    for finding in raw:
        table = tables.get(finding.path)
        if table is None:
            table = parse_suppressions(model.sources.get(finding.path, ""))
            tables[finding.path] = table
        rules = table.get(finding.line, ())
        if "*" in rules or finding.rule in rules:
            report.suppressed += 1
            continue
        active.append(finding)

    # Baseline grandfathering.
    def context_of(finding: Finding) -> str:
        return model.source_line(finding.path, finding.line)

    baseline = Baseline.load(baseline_path) if baseline_path else \
        Baseline()
    if write_baseline and baseline_path:
        baseline.write(baseline_path, active, context_of)
        baseline = Baseline.load(baseline_path)
    for finding in active:
        if baseline.matches(finding, context_of(finding)):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.stale_baseline = baseline.stale_entries()
    report.findings.sort(key=_rank)
    return report


# -- CLI ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcheck",
        description="Static analysis for the BMcast simulator: the "
        "SIM determinism and layering rules, determinism taint, "
        "process discipline, race candidates, FSM spec checking, "
        "import cycles.")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help="grandfathered-findings file (default: "
                        f"{DEFAULT_BASELINE}; absent file = empty)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--write-baseline", action="store_true",
                        help="regenerate the baseline from this run "
                        "(keeps justifications, expires stale entries)")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too, not just "
                        "errors")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the SIM/CHECK code catalog and "
                        "exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        ordered = sorted(CATALOG.items(), key=lambda kv: kv[1][0])
        for code, (_, severity, summary) in ordered:
            print(f"{code}  [{severity}]  {summary}")
        return 0

    try:
        report = run_check(
            args.paths or ["src/repro"],
            baseline_path=None if args.no_baseline else args.baseline,
            write_baseline=args.write_baseline
            and not args.no_baseline)
    except FileNotFoundError as error:
        print(f"simcheck: {error}", file=sys.stderr)
        return 2

    for finding in report.findings:
        print(finding.format())
    for entry in report.stale_baseline:
        print(f"simcheck: stale baseline entry {entry.code} at "
              f"{entry.path} ({entry.context!r}) — finding no longer "
              f"exists; rerun with --write-baseline to expire it")
    print(report.describe())
    if args.sarif:
        write_sarif(args.sarif, report.findings, CATALOG, TOOL_VERSION)
        print(f"SARIF written to {args.sarif} "
              f"({len(report.findings)} result(s))")
    if report.errors or (args.strict and report.findings):
        return 1
    return 0

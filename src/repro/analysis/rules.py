"""The SIM rules: simcheck's per-module pass.

``summarize_source`` (:mod:`repro.analysis.simcheck.model`) runs
:func:`check_module` on the :class:`~repro.analysis.lint.LintContext`
it builds for every module, so the rules see the module's one parse.
Their findings take simcheck's ranking, suppression, baseline and
SARIF output like every CHECK code; their summaries are in the
engine's ``CATALOG``.  See ``docs/analysis.md`` for how to add a rule.

| id     | what it forbids                                        |
|--------|--------------------------------------------------------|
| SIM001 | wall-clock reads (time.time, datetime.now, ...)        |
| SIM002 | unseeded / module-global random draws                  |
| SIM003 | ``import random`` outside ``repro.util.rng``           |
| SIM004 | mutable default arguments                              |
| SIM005 | imports that climb the architecture layering           |
| SIM006 | blocking primitives (time.sleep, threading, ...)       |
"""

from __future__ import annotations

import ast

from repro.analysis.lint import SEVERITY_ERROR, Finding, LintContext

#: SIM001: ``time.<name>()`` and ``datetime...<name>()`` read the host.
TIME_FUNCS = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns",
    "process_time_ns", "clock",
})
DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: SIM002: the module-level functions that draw from random's hidden
#: global generator.
GLOBAL_DRAWS = frozenset({
    "random", "randrange", "randint", "randbytes", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "vonmisesvariate", "gammavariate", "betavariate",
    "paretovariate", "weibullvariate", "getrandbits", "seed",
})

#: SIM003: the one module that may import ``random``.
RANDOM_MODULES = frozenset({"repro.util.rng"})

#: SIM004: default values shared, and mutable, across calls.
MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

#: SIM005: repro.<package> -> rank.  An import is legal iff the
#: imported package's rank is <= the importer's.  Derived from the
#: intended dependency order: the engine (sim) stands alone; device
#: models (net/hw/storage) build on it; the AoE protocol rides the net;
#: guest and dist ride AoE; the VMM composes all of them (its fetch
#: path routes through repro.dist); orchestration (cloud, baselines,
#: apps) composes VMMs; the elastic control plane (ctl) drives
#: deployments and reclamations, so it sits above cloud — and nothing
#: below it may ever import it back; tooling (cli, analysis) sees
#: everything.
LAYER_RANKS = {
    "params": 0, "util": 0,
    "sim": 1,
    "obs": 2,
    # net includes the fluid-flow solver (repro.net.flow), which
    # must stay at device-model rank: it may import sim/obs/params
    # only, never the AoE or VMM layers that drive it.
    "net": 3, "hw": 3, "storage": 3,
    "aoe": 4,
    "guest": 5, "dist": 5,
    "vmm": 6,
    "cloud": 7, "baselines": 7, "apps": 7,
    "ctl": 8,
    # The sweep runner (perf) fans whole scenarios — ctl loops,
    # wave deployments — across worker processes, so it sits with
    # the tooling layer: it may import anything, nothing imports it
    # back except the CLI.
    "perf": 9,
    "cli": 9, "analysis": 9, "__main__": 9,
    # The package root re-exports the public API; it sees everything.
    "repro": 9,
}

#: SIM006: modules whose import means OS threads, processes or I/O
#: waits in simulation code.
BLOCKING_MODULES = frozenset({
    "threading", "multiprocessing", "subprocess", "socket",
    "select", "selectors",
})


def check_module(context: LintContext) -> list[Finding]:
    """Every SIM finding in one module, from one walk of its tree."""
    findings: list[Finding] = []

    def report(rule: str, node: ast.AST, message: str) -> None:
        findings.append(Finding(context.path, node.lineno, node.col_offset,
                                rule, SEVERITY_ERROR, message))

    layer = _layer_of(context.module)
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            name = context.resolve_call(node.func)
            if name is not None:
                _check_call(name, node, report)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            _check_import(node, context.module, layer, report)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_defaults(node, report)
    return findings


def _check_call(name: str, node: ast.Call, report) -> None:
    """SIM001, SIM002 and SIM006's ``time.sleep``."""
    parts = name.split(".")
    if (parts[0] == "time" and len(parts) == 2
            and parts[1] in TIME_FUNCS) \
            or (parts[0] == "datetime" and parts[-1] in DATETIME_FUNCS):
        report("SIM001", node, f"wall-clock call {name}() — use env.now")
    elif name.startswith("random."):
        attribute = name.split(".", 1)[1]
        if attribute in GLOBAL_DRAWS:
            report("SIM002", node,
                   f"{name}() draws from the shared global RNG — "
                   f"use repro.util.rng.make_rng(seed)")
        elif attribute == "Random" and not node.args \
                and not node.keywords:
            report("SIM002", node,
                   "random.Random() without a seed is "
                   "nondeterministic — pass an explicit seed")
        elif attribute == "SystemRandom":
            report("SIM002", node,
                   "random.SystemRandom draws OS entropy — "
                   "never reproducible")
    elif name == "time.sleep":
        report("SIM006", node,
               "time.sleep() blocks the host — yield "
               "env.timeout(delay) instead")


def _check_import(node, module: str, layer: str | None, report) -> None:
    """SIM003, SIM005 and SIM006's imports."""
    if isinstance(node, ast.ImportFrom):
        if node.level or not node.module:
            return
        names = [node.module]
    else:
        names = [alias.name for alias in node.names]
    if module not in RANDOM_MODULES \
            and any(name == "random" or name.startswith("random.")
                    for name in names):
        report("SIM003", node,
               "import of the random module — use "
               "repro.util.rng.make_rng(seed) instead")
    own_rank = LAYER_RANKS.get(layer) if layer else None
    for target in _imported_repro_packages(node):
        target_rank = LAYER_RANKS.get(target)
        if target_rank is not None \
                and (own_rank is None or target_rank > own_rank):
            report("SIM005", node,
                   f"layering violation: repro.{layer or '?'} "
                   f"(rank {own_rank}) imports repro.{target} "
                   f"(rank {target_rank})")
    for name in names:
        root = name.split(".")[0]
        if root in BLOCKING_MODULES:
            report("SIM006", node,
                   f"import of blocking module {root!r} in "
                   f"simulation code")


def _check_defaults(node, report) -> None:
    """SIM004."""
    defaults = list(node.args.defaults) + [
        default for default in node.args.kw_defaults
        if default is not None]
    for default in defaults:
        if isinstance(default, MUTABLE_LITERALS) \
                or (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in MUTABLE_CALLS):
            report("SIM004", default,
                   f"mutable default argument in {node.name}() — "
                   f"shared across calls; default to None or a tuple")


def _layer_of(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


def _imported_repro_packages(node):
    """The ``repro.<package>`` names an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]
        return
    parts = node.module.split(".")
    if parts[0] != "repro":
        return
    if len(parts) > 1:
        yield parts[1]
    else:
        # "from repro import vmm" names packages directly.
        for alias in node.names:
            yield alias.name

"""The simlint rule catalog.

Each rule is a class with ``id``, ``severity``, ``summary`` and a
``check(context)`` generator yielding
:class:`~repro.analysis.lint.Finding` objects; decorating it with
:func:`~repro.analysis.lint.register_rule` puts it in the default
catalog.  See ``docs/analysis.md`` for the how-to-add-a-rule recipe.

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

from repro.analysis.lint import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    LintContext,
    register_rule,
)


class Rule:
    """Base class; subclasses set the metadata and implement check()."""

    id = "SIM000"
    severity = SEVERITY_ERROR
    summary = ""

    def check(self, context: LintContext):
        raise NotImplementedError

    def finding(self, context: LintContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(context.path, node.lineno, node.col_offset,
                       self.id, self.severity, message)


@register_rule
class WallClockRule(Rule):
    id = "SIM001"
    severity = SEVERITY_ERROR
    summary = ("no wall-clock time sources — simulated time comes from "
               "env.now")

    TIME_FUNCS = frozenset({
        "time", "monotonic", "perf_counter", "process_time",
        "time_ns", "monotonic_ns", "perf_counter_ns",
        "process_time_ns", "clock",
    })
    DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, context: LintContext):
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = context.resolve_call(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "time" and len(parts) == 2 \
                    and parts[1] in self.TIME_FUNCS:
                yield self.finding(
                    context, node,
                    f"wall-clock call {name}() — use env.now")
            elif parts[0] == "datetime" \
                    and parts[-1] in self.DATETIME_FUNCS:
                yield self.finding(
                    context, node,
                    f"wall-clock call {name}() — use env.now")


@register_rule
class UnseededRandomRule(Rule):
    id = "SIM002"
    severity = SEVERITY_ERROR
    summary = ("no unseeded or module-global random draws — every RNG "
               "must be a seeded instance")

    #: The module-level functions that draw from random's hidden
    #: global generator.
    GLOBAL_DRAWS = frozenset({
        "random", "randrange", "randint", "randbytes", "choice",
        "choices", "shuffle", "sample", "uniform", "triangular",
        "gauss", "normalvariate", "lognormvariate", "expovariate",
        "vonmisesvariate", "gammavariate", "betavariate",
        "paretovariate", "weibullvariate", "getrandbits", "seed",
    })

    def check(self, context: LintContext):
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = context.resolve_call(node.func)
            if name is None or not name.startswith("random."):
                continue
            attribute = name.split(".", 1)[1]
            if attribute in self.GLOBAL_DRAWS:
                yield self.finding(
                    context, node,
                    f"{name}() draws from the shared global RNG — "
                    f"use repro.util.rng.make_rng(seed)")
            elif attribute == "Random" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    context, node,
                    "random.Random() without a seed is "
                    "nondeterministic — pass an explicit seed")
            elif attribute == "SystemRandom":
                yield self.finding(
                    context, node,
                    "random.SystemRandom draws OS entropy — "
                    "never reproducible")


@register_rule
class RandomImportRule(Rule):
    id = "SIM003"
    severity = SEVERITY_ERROR
    summary = ("``import random`` only inside repro.util.rng — "
               "everything else takes a seeded instance")

    ALLOWED_MODULES = frozenset({"repro.util.rng"})

    def check(self, context: LintContext):
        if context.module in self.ALLOWED_MODULES:
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name == "random" or name.startswith("random."):
                    yield self.finding(
                        context, node,
                        "import of the random module — use "
                        "repro.util.rng.make_rng(seed) instead")
                    break


@register_rule
class MutableDefaultRule(Rule):
    id = "SIM004"
    severity = SEVERITY_ERROR
    summary = "no mutable default arguments"

    LITERALS = (ast.List, ast.Dict, ast.Set,
                ast.ListComp, ast.DictComp, ast.SetComp)
    CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, context: LintContext):
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults
                if default is not None]
            for default in defaults:
                if self._mutable(default):
                    yield self.finding(
                        context, default,
                        f"mutable default argument in {node.name}() — "
                        f"shared across calls; default to None or a "
                        f"tuple")

    def _mutable(self, node: ast.expr) -> bool:
        if isinstance(node, self.LITERALS):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.CALLS)


@register_rule
class LayeringRule(Rule):
    id = "SIM005"
    severity = SEVERITY_ERROR
    summary = ("architecture layering: a package may import only its "
               "own layer or lower")

    #: repro.<package> -> rank.  An import is legal iff the imported
    #: package's rank is <= the importer's.  Derived from the intended
    #: dependency order: the engine (sim) stands alone; device models
    #: (net/hw/storage) build on it; the AoE protocol rides the net;
    #: guest and dist ride AoE; the VMM composes all of them (its
    #: fetch path routes through repro.dist); orchestration (cloud,
    #: baselines, apps) composes VMMs; the elastic control plane (ctl)
    #: drives deployments and reclamations, so it sits above cloud —
    #: and nothing below it may ever import it back; tooling (cli,
    #: analysis) sees everything.
    RANKS = {
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

    def check(self, context: LintContext):
        own = self._layer_of(context.module)
        own_rank = self.RANKS.get(own) if own else None
        for node in ast.walk(context.tree):
            for target, site in self._imported_repro_packages(node):
                target_rank = self.RANKS.get(target)
                if target_rank is None:
                    continue
                if own_rank is None or target_rank > own_rank:
                    yield self.finding(
                        context, site,
                        f"layering violation: repro.{own or '?'} "
                        f"(rank {own_rank}) imports repro.{target} "
                        f"(rank {target_rank})")

    @staticmethod
    def _layer_of(module: str) -> str | None:
        parts = module.split(".")
        if parts[0] != "repro":
            return None
        return parts[1] if len(parts) > 1 else "repro"

    @staticmethod
    def _imported_repro_packages(node: ast.AST):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1], node
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            parts = node.module.split(".")
            if parts[0] != "repro":
                return
            if len(parts) > 1:
                yield parts[1], node
            else:
                # "from repro import vmm" names packages directly.
                for alias in node.names:
                    yield alias.name, node


@register_rule
class BlockingCallRule(Rule):
    id = "SIM006"
    severity = SEVERITY_ERROR
    summary = ("no blocking primitives — handlers must yield to the "
               "engine, never sleep or spawn OS threads")

    BLOCKING_MODULES = frozenset({
        "threading", "multiprocessing", "subprocess", "socket",
        "select", "selectors",
    })

    def check(self, context: LintContext):
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                name = context.resolve_call(node.func)
                if name == "time.sleep":
                    yield self.finding(
                        context, node,
                        "time.sleep() blocks the host — yield "
                        "env.timeout(delay) instead")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BLOCKING_MODULES:
                        yield self.finding(
                            context, node,
                            f"import of blocking module {root!r} in "
                            f"simulation code")
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                root = node.module.split(".")[0]
                if root in self.BLOCKING_MODULES:
                    yield self.finding(
                        context, node,
                        f"import of blocking module {root!r} in "
                        f"simulation code")

"""The simcheck project model: one parse of the whole tree, plain data.

The SIM rules (:mod:`repro.analysis.rules`) look at one module at a
time; every other simcheck pass needs the *whole program* — which
generators are actually spawned as simulation processes, which calls
can reach the event queue, which classes share attributes across
processes.  This module parses each source file once, runs the SIM
rules on that parse, and turns it into a :class:`ModuleSummary` of
plain data (no AST references); :class:`ProjectModel` assembles the
summaries into the global tables the passes consume: the call graph,
the process-function closure, the scheduler-reachability set, and the
set-typed attribute table.

Resolution is name-based and deliberately conservative: a call written
``obj.fetch(...)`` is linked to *every* project function named
``fetch``.  That over-approximates the call graph, which is the right
direction for the determinism and discipline passes (they may report a
candidate that needs a baseline entry, but they do not silently miss a
path).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint import LintContext, iter_python_files, \
    module_name_for
from repro.analysis.rules import check_module

#: Calls that put something onto the event queue directly.  Everything
#: else reaches the queue only transitively, through the call graph.
PRIMITIVE_SINKS = frozenset({
    "schedule", "process", "timeout", "timeout_at", "elapse", "succeed",
    "interrupt", "all_of", "any_of",
})

#: Event constructors whose result is useless unless yielded/stored.
#: ``elapse`` counts: when it returns a timer, dropping it drops the
#: delay.
EVENT_CONSTRUCTORS = frozenset({
    "timeout", "timeout_at", "elapse", "event", "all_of", "any_of",
})

#: Call tails that satisfy the claim protocol / mutual exclusion for
#: the shared-state race pass.  Exact names for the engine's own
#: protocol; see :func:`is_claim_call` for the naming-idiom widening.
CLAIM_TAILS = frozenset({
    "try_claim", "commit_fill_run", "release_claim", "release_run",
    "request", "acquire", "release",
})

#: Name tokens that mark a helper as mutual-exclusion machinery — the
#: device mediators serialize re-entrant hooks through
#: ``_claim_blocked``, and any lock/acquire-style helper counts the
#: same way.  Matched on whole underscore-separated words
#: so ``reclaim`` (returning a node to the pool) does not qualify.
CLAIM_MARKERS = frozenset({"claim", "acquire", "lock"})


def is_claim_call(tail: str) -> bool:
    return tail in CLAIM_TAILS \
        or not CLAIM_MARKERS.isdisjoint(tail.lower().split("_"))

#: Reductions whose result does not depend on iteration order; a set
#: passed straight into one of these is deterministic.
ORDER_INSENSITIVE = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset",
})


@dataclass
class CallSite:
    """One call expression: the resolved dotted name and its tail."""

    name: str
    tail: str
    lineno: int
    col: int


@dataclass
class SetIteration:
    """A ``for``/comprehension iterating directly over a set."""

    lineno: int
    col: int
    describe: str
    #: The loop body (or comprehension element) contains a call or a
    #: yield, so the iteration order can propagate outward.
    body_acts: bool
    #: When the iterated expression is ``obj.<attr>`` and the type is
    #: not decidable inside this module, the attribute name: the
    #: determinism pass resolves it against the whole-program
    #: attribute-type table.  ``None`` for definite set iterations.
    attr: str | None = None


@dataclass
class FunctionInfo:
    """Everything the passes need to know about one function."""

    qualname: str
    name: str
    cls: str | None
    lineno: int
    is_generator: bool = False
    calls: list = field(default_factory=list)
    #: Tails of generators handed to ``env.process(...)``.
    spawn_targets: list = field(default_factory=list)
    #: Tails of callees driven via ``yield from f(...)``.
    delegate_targets: list = field(default_factory=list)
    #: Bare-statement calls whose result is discarded.
    discarded_calls: list = field(default_factory=list)
    #: ``yield <constant>`` sites: (lineno, col, repr).
    const_yields: list = field(default_factory=list)
    #: Broad ``except: pass`` sites inside a generator: (lineno, col).
    swallowed_excepts: list = field(default_factory=list)
    set_iterations: list = field(default_factory=list)
    #: ``self.<attr> = ...`` writes: (attr, lineno, col).
    attr_writes: list = field(default_factory=list)
    #: ``self.<attr>.<method>(...)`` calls: (attr, method) pairs.
    attr_calls: list = field(default_factory=list)
    has_raise: bool = False
    claims: bool = False


@dataclass
class ClassInfo:
    name: str
    lineno: int
    methods: list = field(default_factory=list)
    #: Attribute names assigned a set-typed value somewhere in the class.
    set_attrs: list = field(default_factory=list)
    #: Attribute names assigned a definitely-not-set value (disambiguates
    #: the global attribute-type table).
    other_attrs: list = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Plain-data digest of one source file."""

    module: str
    path: str
    #: Imported repro-internal modules: (dotted name, lineno).
    repro_imports: list = field(default_factory=list)
    functions: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    #: Resolved ``SIMCHECK_FSM`` declaration, if the module has one.
    fsm_spec: dict | None = None
    fsm_spec_line: int = 0
    #: Module-level name -> resolved literal (strings/tuples/dicts).
    constants: dict = field(default_factory=dict)
    #: The SIM rules' findings (:func:`repro.analysis.rules.check_module`).
    findings: list = field(default_factory=list)


# -- per-module extraction ----------------------------------------------------

def summarize_source(source: str, module: str,
                     path: str = "<memory>") -> ModuleSummary:
    """Extract one module's summary (raises SyntaxError on bad input)."""
    tree = ast.parse(source, filename=path)
    context = LintContext(path, module, source, tree)
    summary = ModuleSummary(module=module, path=path,
                            findings=check_module(context))
    _scan_imports(tree, summary)
    constants = _module_constants(tree)
    summary.constants = constants
    _scan_fsm_spec(tree, summary, constants)
    # Classes first: attribute types inferred here (from class-body
    # annotations and ``self.<attr> = set()`` in any method) are
    # visible while the method bodies are extracted below.
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            _declare_class(node, summary)
    for node in tree.body:
        _scan_toplevel(node, summary, context, constants)
    return summary


def _scan_imports(tree: ast.Module, summary: ModuleSummary) -> None:
    """Module-level repro-internal imports only.

    Imports deferred into function bodies are the deliberate
    cycle-breaking idiom, and ``if TYPE_CHECKING:`` blocks never
    execute — neither creates a real import-time edge.
    """
    for node in _toplevel_statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    summary.repro_imports.append((alias.name,
                                                  node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            if node.module == "repro":
                for alias in node.names:
                    summary.repro_imports.append(
                        (f"repro.{alias.name}", node.lineno))
            elif node.module.startswith("repro."):
                # Per alias: ``from repro.analysis import rules`` edges
                # to repro.analysis.rules (longest-prefix resolution
                # falls back to the package when the alias is a symbol).
                for alias in node.names:
                    summary.repro_imports.append(
                        (f"{node.module}.{alias.name}", node.lineno))


def _toplevel_statements(tree: ast.Module):
    """Module-body statements, looking through top-level If/Try bodies
    (version guards) but not into defs, classes, or TYPE_CHECKING."""
    stack = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.If):
            test = node.test
            name = test.attr if isinstance(test, ast.Attribute) \
                else test.id if isinstance(test, ast.Name) else None
            if name == "TYPE_CHECKING":
                stack.extend(node.orelse)
                continue
            stack.extend(node.body + node.orelse)
            continue
        if isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)
            continue
        yield node


def _module_constants(tree: ast.Module) -> dict:
    """Module-level ``NAME = <literal>`` table, resolved recursively."""
    constants: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value = resolve_literal(node.value, constants)
            if value is not _UNRESOLVED:
                constants[node.targets[0].id] = value
    return constants


class _Unresolved:
    def __repr__(self):
        return "<unresolved>"


_UNRESOLVED = _Unresolved()


def resolve_literal(node: ast.expr, constants: dict):
    """Evaluate a literal expression, resolving Names via ``constants``.

    Supports the subset FSM declarations need: constants, names bound
    to earlier literals, tuples/lists, and dicts.  Returns the
    ``_UNRESOLVED`` sentinel for anything else.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id, _UNRESOLVED)
    if isinstance(node, (ast.Tuple, ast.List)):
        values = [resolve_literal(item, constants) for item in node.elts]
        if any(value is _UNRESOLVED for value in values):
            return _UNRESOLVED
        return tuple(values)
    if isinstance(node, ast.Dict):
        result = {}
        for key_node, value_node in zip(node.keys, node.values):
            if key_node is None:
                return _UNRESOLVED
            key = resolve_literal(key_node, constants)
            value = resolve_literal(value_node, constants)
            if key is _UNRESOLVED or value is _UNRESOLVED:
                return _UNRESOLVED
            result[key] = value
        return result
    return _UNRESOLVED


def _scan_fsm_spec(tree: ast.Module, summary: ModuleSummary,
                   constants: dict) -> None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "SIMCHECK_FSM":
            spec = resolve_literal(node.value, constants)
            summary.fsm_spec = None if spec is _UNRESOLVED else spec
            summary.fsm_spec_line = node.lineno


def _declare_class(node: ast.ClassDef, summary: ModuleSummary) -> None:
    """Create the ClassInfo and infer its attribute types.

    An attribute is set-typed when a class-body annotation says so or
    when any method assigns it a syntactically set-valued expression
    (``self._copying = set()``); an attribute assigned anything else
    lands in ``other_attrs``, which disqualifies it from the global
    attribute-type table.
    """
    info = ClassInfo(name=node.name, lineno=node.lineno)
    summary.classes[node.name] = info

    def record(name: str, is_set: bool) -> None:
        bucket = info.set_attrs if is_set else info.other_attrs
        if name not in bucket:
            bucket.append(name)

    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods.append(item.name)
            for child in ast.walk(item):
                if isinstance(child, ast.Assign):
                    for target in child.targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            record(target.attr,
                                   _is_set_expr_shallow(child.value))
                elif isinstance(child, ast.AnnAssign) \
                        and isinstance(child.target, ast.Attribute) \
                        and isinstance(child.target.value, ast.Name) \
                        and child.target.value.id == "self" \
                        and _is_set_annotation(child.annotation):
                    record(child.target.attr, True)
        elif isinstance(item, ast.AnnAssign) \
                and isinstance(item.target, ast.Name):
            if _is_set_annotation(item.annotation):
                record(item.target.id, True)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    record(target.id, _is_set_expr_shallow(item.value))


def _scan_toplevel(node: ast.stmt, summary: ModuleSummary,
                   context: LintContext, constants: dict) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        _extract_function(node, summary, context, cls=None,
                          prefix=summary.module)
    elif isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _extract_function(
                    item, summary, context, cls=node.name,
                    prefix=f"{summary.module}:{node.name}")


def _is_set_annotation(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("set", "frozenset")


def _is_set_expr_shallow(node: ast.expr) -> bool:
    """Syntactically set-valued, with no local-name inference."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
        # dataclasses: field(default_factory=set)
        if node.func.id == "field":
            for keyword in node.keywords:
                if keyword.arg == "default_factory" \
                        and isinstance(keyword.value, ast.Name) \
                        and keyword.value.id in ("set", "frozenset"):
                    return True
    return False


class _FunctionExtractor(ast.NodeVisitor):
    """Walks one function body (stopping at nested defs)."""

    def __init__(self, info: FunctionInfo, summary: ModuleSummary,
                 context: LintContext, cls: str | None):
        self.info = info
        self.summary = summary
        self.context = context
        self.cls = cls
        #: Local names assigned a set-typed expression in this body.
        self.set_locals: set[str] = set()
        self.depth = 0

    # -- structure ----------------------------------------------------------

    def visit_FunctionDef(self, node):
        # The body of a nested def belongs to the nested function; it
        # is extracted separately by _extract_function.
        if self.depth:
            return
        self.depth += 1
        # Parameters annotated as sets are set-typed locals.
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None \
                    and _is_set_annotation(arg.annotation):
                self.set_locals.add(arg.arg)
        self._prescan_locals(node)
        for statement in node.body:
            self.visit(statement)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def _prescan_locals(self, node) -> None:
        """Names assigned set-typed values anywhere in the body.

        Flow-insensitive on purpose: ``pool = set(x)`` marks ``pool``
        set-typed for the whole function.
        """
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                if self._is_set_expr(child.value, prescan=True):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            self.set_locals.add(target.id)
            elif isinstance(child, ast.AnnAssign) \
                    and isinstance(child.target, ast.Name) \
                    and _is_set_annotation(child.annotation):
                self.set_locals.add(child.target.id)

    # -- calls --------------------------------------------------------------

    def visit_Call(self, node: ast.Call):
        resolved = self.context.resolve_call(node.func) or ""
        tail = resolved.rsplit(".", 1)[-1] if resolved else ""
        if isinstance(node.func, ast.Attribute):
            tail = node.func.attr
            resolved = resolved or tail
        elif isinstance(node.func, ast.Name):
            tail = tail or node.func.id
        if tail:
            self.info.calls.append(CallSite(resolved or tail, tail,
                                            node.lineno,
                                            node.col_offset))
            if is_claim_call(tail):
                self.info.claims = True
        # env.process(self.foo(...)) / env.process(foo())
        if tail == "process" and node.args:
            spawned = node.args[0]
            if isinstance(spawned, ast.Call):
                spawn_tail = _call_tail(spawned)
                if spawn_tail:
                    self.info.spawn_targets.append(spawn_tail)
        # self.<attr>.<method>(...)
        if isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Attribute) \
                    and isinstance(owner.value, ast.Name) \
                    and owner.value.id == "self":
                self.info.attr_calls.append((owner.attr, node.func.attr))
        self.generic_visit(node)

    # -- statements of interest ---------------------------------------------

    def visit_Expr(self, node: ast.Expr):
        if isinstance(node.value, ast.Call):
            call = node.value
            resolved = self.context.resolve_call(call.func) or ""
            tail = _call_tail(call) or ""
            if tail:
                self.info.discarded_calls.append(
                    (tail, resolved or tail, node.lineno,
                     node.col_offset))
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield):
        self.info.is_generator = True
        if isinstance(node.value, ast.Constant) \
                and node.value.value is not None:
            self.info.const_yields.append(
                (node.lineno, node.col_offset, repr(node.value.value)))
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom):
        self.info.is_generator = True
        if isinstance(node.value, ast.Call):
            tail = _call_tail(node.value)
            if tail:
                self.info.delegate_targets.append(tail)
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try):
        for handler in node.handlers:
            if _is_broad_handler(handler) \
                    and all(isinstance(s, (ast.Pass, ast.Continue))
                            for s in handler.body):
                self.info.swallowed_excepts.append(
                    (handler.lineno, handler.col_offset))
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise):
        self.info.has_raise = True
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign):
        for target in node.targets:
            self._record_attr_write(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        self._record_attr_write(node.target, node)
        self.generic_visit(node)

    def _record_attr_write(self, target: ast.expr, node) -> None:
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            self.info.attr_writes.append(
                (target.attr, node.lineno, node.col_offset))

    # -- set iteration -------------------------------------------------------

    def visit_For(self, node: ast.For):
        record = self._iteration_of(node.iter)
        if record is not None:
            acts = any(
                isinstance(child, (ast.Call, ast.Yield, ast.YieldFrom))
                for statement in node.body
                for child in ast.walk(statement))
            self.info.set_iterations.append(SetIteration(
                node.lineno, node.col_offset,
                _describe(node.iter), acts, attr=record[0]))
        self.generic_visit(node)

    def _iteration_of(self, node: ast.expr):
        """``(None,)`` for a definite set iteration, ``(attr,)`` for an
        attribute whose type only the whole-program table can decide,
        ``None`` when the iteration is not set-typed."""
        if self._is_set_expr(node):
            return (None,)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and self.cls:
                info = self.summary.classes.get(self.cls)
                if info is not None and node.attr in info.other_attrs:
                    return None  # locally known to not be a set
            return (node.attr,)
        return None

    def visit_ListComp(self, node: ast.ListComp):
        self._comprehension(node, node.elt)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp):
        self._comprehension(node, node.elt)
        self.generic_visit(node)

    def _comprehension(self, node, element: ast.expr) -> None:
        for comp in node.generators:
            record = self._iteration_of(comp.iter)
            if record is not None:
                acts = any(isinstance(child, ast.Call)
                           for child in ast.walk(element))
                self.info.set_iterations.append(SetIteration(
                    node.lineno, node.col_offset,
                    _describe(comp.iter), acts, attr=record[0]))

    def _is_set_expr(self, node: ast.expr, prescan: bool = False) -> bool:
        """Is this expression set-typed, as far as syntax can tell?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) \
                    and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                    "difference", "union", "intersection",
                    "symmetric_difference"):
                return self._is_set_expr(func.value, prescan)
            return False
        if isinstance(node, ast.BinOp) \
                and isinstance(node.op, (ast.BitAnd, ast.BitOr,
                                         ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left, prescan) \
                or self._is_set_expr(node.right, prescan)
        if isinstance(node, ast.Name):
            if node.id in self.set_locals:
                return True
            value = self.summary.constants.get(node.id)
            return isinstance(value, (set, frozenset))
        if isinstance(node, ast.Attribute) and not prescan:
            attr = node.attr
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and self.cls:
                info = self.summary.classes.get(self.cls)
                if info is not None and attr in info.set_attrs:
                    return True
            return False
        return False


def _call_tail(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    return isinstance(handler.type, ast.Name) \
        and handler.type.id in ("Exception", "BaseException")


def _describe(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<set expression>"


def _extract_function(node, summary: ModuleSummary,
                      context: LintContext, cls: str | None,
                      prefix: str) -> None:
    qualname = f"{prefix}.{node.name}"
    info = FunctionInfo(qualname=qualname, name=node.name, cls=cls,
                        lineno=node.lineno,
                        claims=is_claim_call(node.name))
    extractor = _FunctionExtractor(info, summary, context, cls)
    extractor.visit(node)
    summary.functions[qualname] = info
    # Nested defs become their own functions (they can be spawned as
    # processes — cloud.cluster does exactly that).
    for nested in _nested_defs(node):
        _extract_function(nested, summary, context, cls,
                          prefix=qualname)


def _nested_defs(node):
    """Defs whose *nearest* enclosing def is ``node``."""
    stack = list(node.body)
    while stack:
        statement = stack.pop(0)
        if isinstance(statement, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
            yield statement
            continue  # anything deeper belongs to the nested def
        stack.extend(ast.iter_child_nodes(statement))


# -- the whole-program model --------------------------------------------------

class ProjectModel:
    """Summaries of every module plus the derived global tables."""

    def __init__(self, entries):
        #: (summary, source text) in deterministic path order.
        self.entries = list(entries)
        self.summaries = [summary for summary, _ in self.entries]
        self.sources = {summary.path: text
                        for summary, text in self.entries}
        self.functions: dict[str, FunctionInfo] = {}
        self.module_of: dict[str, str] = {}
        for summary in self.summaries:
            for qualname, info in summary.functions.items():
                self.functions[qualname] = info
                self.module_of[qualname] = summary.module
        self.by_tail: dict[str, list[str]] = {}
        for qualname, info in sorted(self.functions.items()):
            self.by_tail.setdefault(info.name, []).append(qualname)
        self._edges = self._build_edges()
        self.process_functions = self._process_closure()
        self.sink_reaching = self._sink_closure()
        self.set_attr_table = self._attribute_types()

    # -- call graph ---------------------------------------------------------

    def _build_edges(self) -> dict[str, list[str]]:
        edges: dict[str, list[str]] = {}
        for qualname, info in sorted(self.functions.items()):
            targets: list[str] = []
            for call in info.calls:
                targets.extend(self.resolve_tail(call.tail))
            for tail in info.spawn_targets + info.delegate_targets:
                targets.extend(self.resolve_tail(tail))
            edges[qualname] = sorted(set(targets))
        return edges

    def resolve_tail(self, tail: str) -> list[str]:
        """Every project function a call tail might refer to."""
        return self.by_tail.get(tail, [])

    def callees(self, qualname: str) -> list[str]:
        return self._edges.get(qualname, [])

    # -- closures -----------------------------------------------------------

    def _process_closure(self) -> set[str]:
        """Functions that run as (or inside) simulation processes.

        Roots are generators spawned via ``env.process``; membership
        extends through ``yield from`` delegation and through spawns
        made *by* process functions.
        """
        roots: list[str] = []
        for info in self.functions.values():
            for tail in info.spawn_targets:
                for target in self.resolve_tail(tail):
                    if self.functions[target].is_generator:
                        roots.append(target)
        closure: set[str] = set()
        frontier = sorted(set(roots))
        while frontier:
            qualname = frontier.pop()
            if qualname in closure:
                continue
            closure.add(qualname)
            info = self.functions[qualname]
            for tail in info.delegate_targets + info.spawn_targets:
                for target in self.resolve_tail(tail):
                    if self.functions[target].is_generator \
                            and target not in closure:
                        frontier.append(target)
        return closure

    def _sink_closure(self) -> set[str]:
        """Functions from which the event queue is reachable.

        A function reaches the queue if it calls a primitive scheduling
        API (``env.schedule``/``process``/``timeout``/...), if it *is*
        a process function, or if any callee reaches it.  Computed as a
        reverse closure over the call graph.
        """
        direct = set(self.process_functions)
        for qualname, info in self.functions.items():
            if any(call.tail in PRIMITIVE_SINKS for call in info.calls):
                direct.add(qualname)
        callers: dict[str, list[str]] = {}
        for qualname, targets in self._edges.items():
            for target in targets:
                callers.setdefault(target, []).append(qualname)
        closure: set[str] = set()
        frontier = sorted(direct)
        while frontier:
            qualname = frontier.pop()
            if qualname in closure:
                continue
            closure.add(qualname)
            frontier.extend(caller for caller
                            in callers.get(qualname, [])
                            if caller not in closure)
        return closure

    # -- attribute types ----------------------------------------------------

    def _attribute_types(self) -> dict[str, bool]:
        """Attr name -> True when *every* declaring class makes it a set.

        Used to type ``obj.attr`` iteration across class boundaries;
        an attribute that is a set in one class and something else in
        another stays untyped (no finding).
        """
        table: dict[str, bool] = {}
        for summary in self.summaries:
            for info in summary.classes.values():
                for attr in info.set_attrs:
                    table[attr] = table.get(attr, True)
                for attr in info.other_attrs:
                    table[attr] = False
        return {attr: is_set for attr, is_set in table.items() if is_set}

    # -- lookups ------------------------------------------------------------

    def summary_for(self, module: str) -> ModuleSummary | None:
        for summary in self.summaries:
            if summary.module == module:
                return summary
        return None

    def source_line(self, path: str, lineno: int) -> str:
        text = self.sources.get(path)
        if text is None:
            return ""
        lines = text.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""


def load_sources(paths) -> list[tuple[Path, str]]:
    """(path, text) for every python file under ``paths``, sorted."""
    return [(path, path.read_text(encoding="utf-8"))
            for path in iter_python_files(paths)]


def build_model(paths) -> ProjectModel:
    """Parse every file and assemble the project model."""
    return ProjectModel(
        (summarize_source(text, module_name_for(path), path=str(path)),
         text)
        for path, text in load_sources(paths))

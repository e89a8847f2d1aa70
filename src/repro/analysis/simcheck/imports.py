"""Import-graph cycle and rank-table checks (CHECK050-051).

The SIM005 rule enforces the layering on each import statement,
deferred and ``TYPE_CHECKING`` imports included; this pass rebuilds the
*whole-program* module graph for what no single statement shows:

* **CHECK050** — an import cycle among project modules.  Python
  tolerates many cycles at runtime (late imports), so nothing else
  catches these until a refactor reorders module bodies and the build
  breaks; reported once per strongly connected component.
* **CHECK051** — a ``repro.<package>`` that SIM005's rank table does
  not know about.  A new package slots into the layering explicitly or
  not at all (otherwise SIM005 silently skips every edge touching it).
"""

from __future__ import annotations

from repro.analysis.lint import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)
from repro.analysis.rules import LAYER_RANKS
from repro.analysis.simcheck.model import ProjectModel

CHECK_CYCLE = "CHECK050"
CHECK_UNRANKED = "CHECK051"


def _package_of(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro":
        return parts[0]
    return parts[1] if len(parts) > 1 else "repro"


def _resolve_module(name: str, known: dict) -> str | None:
    """Longest prefix of ``name`` that is a module in the model."""
    parts = name.split(".")
    while parts:
        candidate = ".".join(parts)
        if candidate in known:
            return candidate
        parts.pop()
    return None


def import_graph(model: ProjectModel):
    """module -> sorted list of (imported module, lineno) edges."""
    known = {summary.module: summary for summary in model.summaries}
    graph: dict[str, list] = {}
    for summary in model.summaries:
        edges = {}
        for name, lineno in summary.repro_imports:
            target = _resolve_module(name, known)
            if target is not None and target != summary.module:
                edges.setdefault(target, lineno)
        graph[summary.module] = sorted(edges.items())
    return graph


def imports_pass(model: ProjectModel):
    graph = import_graph(model)
    yield from _cycles(model, graph)
    yield from _unranked(model)


def _cycles(model: ProjectModel, graph: dict):
    """One finding per non-trivial strongly connected component."""
    for component in _sccs(graph):
        if len(component) < 2:
            module = component[0]
            if not any(target == module
                       for target, _ in graph.get(module, ())):
                continue  # trivial SCC without a self-loop
        anchor = min(component)
        summary = model.summary_for(anchor)
        lineno = 1
        for target, line in graph.get(anchor, ()):
            if target in component:
                lineno = line
                break
        cycle = " -> ".join([*sorted(component), anchor])
        yield Finding(
            summary.path, lineno, 0, CHECK_CYCLE, SEVERITY_ERROR,
            f"import cycle among project modules: {cycle}")


def _sccs(graph: dict) -> list[list[str]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    def targets_of(node: str) -> list[str]:
        return [target for target, _ in graph.get(node, ())]

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(targets_of(root)))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, iterator = work[-1]
            advanced = False
            for target in iterator:
                if target not in index:
                    index[target] = lowlink[target] = counter[0]
                    counter[0] += 1
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(targets_of(target))))
                    advanced = True
                    break
                if on_stack.get(target):
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def _unranked(model: ProjectModel):
    seen: dict[str, str] = {}
    for summary in model.summaries:
        if not summary.module.startswith("repro"):
            continue
        package = _package_of(summary.module)
        seen.setdefault(package, summary.path)
    for package in sorted(seen):
        if package not in LAYER_RANKS:
            yield Finding(
                seen[package], 1, 0, CHECK_UNRANKED, SEVERITY_WARNING,
                f"package repro.{package} has no rank in SIM005's "
                f"layering table — add it to "
                f"repro.analysis.rules.LAYER_RANKS")

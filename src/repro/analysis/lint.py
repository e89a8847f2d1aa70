"""The pieces of simcheck every pass shares, one module at a time.

A deterministic discrete-event simulation has correctness rules no
general-purpose linter knows about; simcheck
(:mod:`repro.analysis.simcheck`) checks them.  This module holds what
its passes share: the :class:`Finding` record, the per-module
:class:`LintContext` the SIM rules (:mod:`repro.analysis.rules`) and
the model extractor read, the suppression grammar, and file discovery.

Findings print as ``path:line:col: RULE severity: message``.  A line
can opt out with a trailing comment::

    stamp = time.time()  # simcheck: ignore[SIM001] -- host-side only

``ignore`` with no rule list suppresses every rule on that line; the
``-- justification`` tail is free text (and encouraged).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# simcheck: ignore``, ``# simcheck: ignore[SIM001, CHECK020]``
#: (multiple ids), and the ``ignore-next-line`` forms of both, which
#: suppress the line *below* the comment — for findings on lines too
#: long to carry a trailing marker.
_SUPPRESSION = re.compile(
    r"#\s*simcheck:\s*ignore(?P<next>-next-line)?"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")


class LintContext:
    """Everything a rule needs to examine one module."""

    def __init__(self, path: str, module: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.module = module
        self.source = source
        self.tree = tree
        #: local alias -> imported module name ("t" -> "time").
        self.module_aliases: dict[str, str] = {}
        #: local alias -> (module, attribute) for from-imports.
        self.from_imports: dict[str, tuple[str, str]] = {}
        self._scan_imports()

    def _scan_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # "import a.b" binds "a"; "import a.b as c" binds
                    # the full dotted path to "c".
                    target = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = (node.module, alias.name)

    def resolve_call(self, func: ast.expr) -> str | None:
        """Normalize a call target to a real dotted name, or ``None``.

        ``t.monotonic()`` with ``import time as t`` resolves to
        ``"time.monotonic"``; ``now()`` after ``from time import time
        as now`` resolves to ``"time.time"``.
        """
        chain = _dotted_chain(func)
        if not chain:
            return None
        head, rest = chain[0], chain[1:]
        if head in self.module_aliases:
            return ".".join([self.module_aliases[head], *rest])
        if head in self.from_imports:
            module, attribute = self.from_imports[head]
            return ".".join([module, attribute, *rest])
        return ".".join(chain)


def _dotted_chain(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Suppressed line -> rule-id set (``"*"`` = every rule).

    ``ignore-next-line`` anchors the suppression one line down; both
    forms accept a bracketed multi-id list.  A same-line and a
    next-line marker landing on the same line merge their rule sets.
    """
    table: dict[int, set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        listed = match.group("rules")
        if listed is None:
            rules = {"*"}
        else:
            rules = {rule.strip().upper()
                     for rule in listed.split(",")
                     if rule.strip()}
            if not rules:
                rules = {"*"}
        target = number + 1 if match.group("next") else number
        table.setdefault(target, set()).update(rules)
    return table


# -- files --------------------------------------------------------------------

def module_name_for(path: Path | str) -> str:
    """Dotted module name, anchored at the ``repro`` package root."""
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["repro"]
    return ".".join(parts)


def iter_python_files(paths) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        elif root.suffix == ".py":
            files.append(root)
        else:
            raise FileNotFoundError(f"not a python file or tree: {root}")
    return files

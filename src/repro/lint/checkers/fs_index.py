"""Checker 10: directory entries change only through their two writers.

:class:`~repro.sim.filesystem.DirectoryNode` keeps a case-fold index
(``lowered name -> keys of entries in insertion order``) next to its
``entries`` dict, and keeps it current in :meth:`link` and
:meth:`unlink`.  A raw write to ``entries`` anywhere else leaves the
index stale: a case-insensitive lookup then misses a file that exists or
resolves a name that is gone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    Checker,
    Finding,
    Project,
    SourceFile,
    register_checker,
)

#: The one module that may write ``entries`` directly.
_OWNER = "repro/sim/filesystem.py"

#: dict methods that mutate in place.
_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault"}


def _is_entries(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "entries"


class _EntriesWriteVisitor(ast.NodeVisitor):
    def __init__(self, checker: "FsIndexChecker", source: SourceFile) -> None:
        self.checker = checker
        self.source = source
        self.findings: list[Finding] = []

    def _emit(self, what: str, node: ast.AST) -> None:
        self.findings.append(
            self.checker.finding(
                "FS-ENTRIES-WRITE",
                f"{what} writes DirectoryNode.entries directly and leaves "
                "its case-fold index stale; use DirectoryNode.link/unlink",
                path=self.source.rel,
                line=node.lineno,
            )
        )

    def _check_targets(self, targets: list[ast.expr], verb: str) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_targets(target.elts, verb)
            elif isinstance(target, ast.Subscript) and _is_entries(target.value):
                self._emit(f"{verb} .entries[...]", target)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node.targets, "assignment to")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets([node.target], "assignment to")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_targets([node.target], "assignment to")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_targets(node.targets, "del")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and _is_entries(func.value)
        ):
            self._emit(f".entries.{func.attr}()", node)
        self.generic_visit(node)


@register_checker
class FsIndexChecker(Checker):
    name = "fs-index"
    title = "directory entries change only through DirectoryNode.link/unlink"
    rationale = (
        "Windows personalities resolve paths case-insensitively, and at\n"
        "the paper's 5000-case cap the files that test values leak pile\n"
        "up in one directory.  DirectoryNode therefore keeps a case-fold\n"
        "index next to its entries dict instead of scanning every entry\n"
        "per lookup, and keeps it current in link() and unlink(), the\n"
        "only writers of entries.  A raw write anywhere else --\n"
        "\n"
        "    parent.entries[name] = node    # FS-ENTRIES-WRITE\n"
        "    del parent.entries[name]       # FS-ENTRIES-WRITE\n"
        "    parent.entries.pop(name)       # FS-ENTRIES-WRITE\n"
        "    parent.link(name, node)        # sanctioned\n"
        "\n"
        "-- leaves the index stale: CreateFile on a differently cased\n"
        "name misses a file that exists, or finds one that is gone, and\n"
        "the MuT's outcome stops depending only on the simulated state.\n"
        "Only repro/sim/filesystem.py, which owns the index, may write\n"
        "entries directly."
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.source_files():
            if source.rel == _OWNER:
                continue
            visitor = _EntriesWriteVisitor(self, source)
            visitor.visit(source.tree)
            yield from visitor.findings

"""Per-file concurrency rules: process-global interpreter state.

The cyclic garbage collector's switch and thresholds are one setting for
every thread of the process.  ``repro.service.routes._gc_paused`` is the
one place allowed to change them: it holds the collector off for one
request decode under ownership rules that keep concurrent requests from
pinning it off.  A second toggle anywhere else would break those rules,
so CC003 confines the calls to that guard.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Rule, Violation, register

#: ``gc`` functions that change collector state for the whole process.
_GC_STATE_CHANGES = frozenset({"disable", "enable", "freeze", "unfreeze", "set_threshold"})

#: The one function allowed to call them: (module, function name).
_GC_GUARD = ("repro.service.routes", "_gc_paused")


@register
class GcStateChangeRule(Rule):
    id = "CC003"
    family = "concurrency"
    summary = "garbage-collector state changed outside the decode guard"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.module is None or not ctx.module.startswith("repro."):
            return
        aliases = {"gc"} | {
            alias.asname
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "gc" and alias.asname
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = sorted(a.name for a in node.names if a.name in _GC_STATE_CHANGES)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in _GC_STATE_CHANGES
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                names = [node.attr]
            else:
                continue
            if names and (ctx.module, self._function_of(ctx, node)) != _GC_GUARD:
                yield ctx.violation(
                    self,
                    node,
                    f"gc.{names[0]} changes collector state for every thread; "
                    "only repro.service.routes._gc_paused may do that",
                )

    @staticmethod
    def _function_of(ctx: FileContext, node: ast.AST) -> str | None:
        parent = ctx.parent(node)
        while parent is not None:
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return parent.name
            parent = ctx.parent(parent)
        return None

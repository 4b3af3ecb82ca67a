"""Interprocedural budget coverage: every hot loop answers to a deadline.

A per-file check can only see one function at a time, so every loop
whose budget discipline lives in its *callers* would need an audited
suppression.  This analysis is a whole-program proof instead of a
module allowlist.  A loop reachable from the deadline-bearing
entry points (``assess_risk``, the ``ServiceCore`` routes, the solver)
is **covered** when any of three facts holds:

``direct``
    the loop body itself touches a budget (a ``*budget*`` name or a
    ``checkpoint``/``poll``/``tick``/``sweep_tick`` call);

``callee``
    the loop body calls a function that transitively polls a budget —
    each iteration crosses a poll point even though the loop cannot
    see it;

``amortized``
    every call path from an entry point to the loop's function passes
    through budget-aware code: each reachable caller either carries
    budget evidence in its own body or is itself amortized-covered.
    This is the greatest fixpoint of "all my reachable callers are
    budget-aware", seeded pessimistically at the entry points — so a
    call chain that never threads a budget at all (the bug this family
    exists to catch) breaks the proof for everything below it.

Uncovered loops are FS005 violations; the per-criterion counts land in
``BENCH_lint.json`` so the proof's shape is itself snapshotted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.flow.callgraph import CallGraph, body_statements

__all__ = ["LoopFinding", "BudgetCoverage", "DEFAULT_ENTRY_POINTS"]

#: Suffix-matched entry points: code whose loops must answer to a
#: request deadline.  Resolved against the call graph, so absent names
#: (a trimmed tree, a test project) simply contribute nothing.
DEFAULT_ENTRY_POINTS = (
    "repro.recipe.assess.assess_risk",
    "repro.service.routes.ServiceCore.dispatch",
    "repro.service.engine.AssessmentEngine.assess_many",
    "repro.attack.solver.core.ConsistencySolver.bootstrap",
    "repro.attack.solver.core.ConsistencySolver.ingest",
)

_BUDGET_CALL_NAMES = frozenset({"checkpoint", "poll", "tick", "sweep_tick"})


def _budget_evidence(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """The ``direct`` criterion over a whole function body (sans nested defs)."""
    for child in body_statements(node):
        if _node_touches_budget(child):
            return True
    return False


def _node_touches_budget(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and "budget" in node.id.lower():
        return True
    if isinstance(node, ast.Attribute) and "budget" in node.attr.lower():
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _BUDGET_CALL_NAMES
    ):
        return True
    return False


def _loop_nodes(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.While | ast.For]:
    for child in body_statements(node):
        if isinstance(child, ast.While):
            yield child
        elif isinstance(child, ast.For) and _is_shifted_range(child.iter):
            yield child


def _is_shifted_range(iterator: ast.expr) -> bool:
    if not (
        isinstance(iterator, ast.Call)
        and isinstance(iterator.func, ast.Name)
        and iterator.func.id == "range"
    ):
        return False
    return any(
        isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.LShift)
        for argument in iterator.args
        for inner in ast.walk(argument)
    )


@dataclass
class LoopFinding:
    """One reachable loop and how (or whether) it is covered."""

    function: str
    node: ast.While | ast.For
    coverage: str | None  # "direct" | "callee" | "amortized" | None
    entry_chain: tuple[str, ...]

    @property
    def covered(self) -> bool:
        return self.coverage is not None


class BudgetCoverage:
    """Classify every entry-reachable loop; uncovered ones are findings."""

    def __init__(
        self,
        graph: CallGraph,
        entry_points: Sequence[str] = DEFAULT_ENTRY_POINTS,
    ) -> None:
        self.graph = graph
        self.entries = [name for name in entry_points if name in graph.functions]
        self._evidence = {
            qualname: _budget_evidence(info.node)
            for qualname, info in graph.functions.items()
        }
        self._reachable, self._chains = self._reach()
        self._polling = self._transitive_polling()
        self._amortized = self._amortized_set()

    # -- reachability with witness chains ---------------------------------

    def _reach(self) -> tuple[set[str], dict[str, tuple[str, ...]]]:
        chains: dict[str, tuple[str, ...]] = {}
        queue = list(self.entries)
        for entry in self.entries:
            chains.setdefault(entry, (entry,))
        index = 0
        while index < len(queue):
            current = queue[index]
            index += 1
            for callee in sorted(self.graph.callees(current)):
                if callee in chains or callee not in self.graph.functions:
                    continue
                chains[callee] = chains[current] + (callee,)
                queue.append(callee)
        return set(chains), chains

    # -- transitively polling functions -----------------------------------

    def _transitive_polling(self) -> set[str]:
        polling = {name for name, flag in self._evidence.items() if flag}
        changed = True
        while changed:
            changed = False
            for caller, callees in self.graph.edges.items():
                if caller in polling:
                    continue
                if callees & polling:
                    polling.add(caller)
                    changed = True
        return polling

    # -- amortized coverage (greatest fixpoint) ---------------------------

    def _amortized_set(self) -> set[str]:
        # Optimistic start: every reachable non-entry function is
        # amortized; repeatedly evict f when some reachable caller is
        # neither budget-aware nor itself (still) amortized.
        candidates = {
            name
            for name in self._reachable
            if name not in self.entries
        }
        callers: dict[str, set[str]] = {name: set() for name in self._reachable}
        for caller in self._reachable:
            for callee in self.graph.callees(caller):
                if callee in callers:
                    callers[callee].add(caller)
        changed = True
        while changed:
            changed = False
            for name in list(candidates):
                for caller in callers.get(name, ()):
                    if self._evidence.get(caller) or caller in candidates:
                        continue
                    candidates.discard(name)
                    changed = True
                    break
        return candidates

    # -- classification ---------------------------------------------------

    def findings(self) -> list[LoopFinding]:
        out: list[LoopFinding] = []
        for qualname in sorted(self._reachable):
            info = self.graph.functions[qualname]
            sites = self.graph.call_sites.get(qualname, [])
            for loop in _loop_nodes(info.node):
                coverage: str | None = None
                if any(_node_touches_budget(n) for n in ast.walk(loop)):
                    coverage = "direct"
                elif self._loop_calls_polling(loop, sites):
                    coverage = "callee"
                elif qualname in self._amortized:
                    coverage = "amortized"
                out.append(
                    LoopFinding(
                        function=qualname,
                        node=loop,
                        coverage=coverage,
                        entry_chain=self._chains[qualname],
                    )
                )
        return out

    def _loop_calls_polling(self, loop: ast.AST, sites) -> bool:
        for site in sites:
            node = site.node
            if node.lineno < loop.lineno or node.lineno > (loop.end_lineno or loop.lineno):
                continue
            if any(callee in self._polling for callee in site.callees):
                return True
        return False

    def stats(self) -> dict[str, int]:
        counts = {"direct": 0, "callee": 0, "amortized": 0, "uncovered": 0}
        for finding in self.findings():
            counts[finding.coverage or "uncovered"] += 1
        counts["entry_points"] = len(self.entries)
        counts["reachable_functions"] = len(self._reachable)
        return counts

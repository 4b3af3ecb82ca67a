"""Eraser-style lockset analysis over the service tier.

For every class in the concurrency scope (``repro.service.*`` plus the
solver the crack sessions share across requests) the detector:

1. finds the *synchronization attributes* (``self._lock =
   threading.Lock()`` and friends in ``__init__``) and the *shared
   fields* — instance attributes written outside ``__init__``;
2. computes, for every field access, the set of locks held: the lexical
   ``with``-stack of the access, unioned with every lock the caller
   chain holds at the call site (propagated along the call graph from
   the thread roots);
3. reports a field when two accesses — at least one a write, from two
   root-reachable call chains — can hold *disjoint* locksets.  The
   classic lockset refinement: a consistent guarding lock makes every
   pairwise intersection non-empty, so an empty intersection is a
   schedule where both threads touch the field at once.

Locks are identified by *name*, not object (``self._lock`` of class C,
a module-level lock, or a local whose name ends in ``lock``/``cond``) —
the standard static approximation: name-equality of locks is assumed,
which under-reports only when two distinct lock objects share a
spelling on purpose (the per-session locks in ``crack.py``, where the
sharing is exactly the point: one session's accesses all go through
that session's lock).

Every finding carries a structured witness: the field, both accesses,
the locks each holds, and the two conflicting call chains from a thread
root — enough to replay the schedule by hand.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo, body_statements
from repro.analysis.lint.engine import FileContext

__all__ = ["FieldAccess", "RaceReport", "LockAnalysis"]

#: Factory names whose product is a synchronization object, or a
#: container that locks every call itself (``repro.memo.BoundedLRU``):
#: not shared *data* — excluded from the shared-field universe.
_SYNC_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "local",
        "BoundedLRU",
    }
)

#: Container methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "discard",
        "add",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "move_to_end",
    }
)

#: Cap on distinct incoming locksets tracked per function; beyond it the
#: contexts are collapsed to their intersection (sound: a smaller held
#: set can only create more reports, never hide one).
_MAX_CONTEXTS = 8


@dataclass(frozen=True)
class FieldAccess:
    """One read or write of a shared field inside a method body."""

    function: str
    path: str
    line: int
    kind: str  # "read" | "write"
    lexical_locks: frozenset[str]


@dataclass
class RaceReport:
    """A field with two conflicting, disjointly-locked accesses."""

    field_name: str  # "module.Class.attr"
    ctx: FileContext
    node_line: int
    node_col: int
    first: FieldAccess
    first_locks: frozenset[str]
    first_chain: tuple[str, ...]
    second: FieldAccess
    second_locks: frozenset[str]
    second_chain: tuple[str, ...]

    def witness(self) -> dict:
        def one(access: FieldAccess, locks: frozenset[str], chain: tuple[str, ...]):
            return {
                "function": access.function,
                "path": access.path,
                "line": access.line,
                "kind": access.kind,
                "locks_held": sorted(locks),
                "call_chain": list(chain) + [access.function],
            }

        return {
            "field": self.field_name,
            "accesses": [
                one(self.first, self.first_locks, self.first_chain),
                one(self.second, self.second_locks, self.second_chain),
            ],
        }


def _is_sync_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name in _SYNC_FACTORIES


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassModel:
    """Sync attributes and shared mutable fields of one class."""

    def __init__(self, qualname: str, ctx: FileContext, node: ast.ClassDef):
        self.qualname = qualname
        self.ctx = ctx
        self.node = node
        self.sync_attrs: set[str] = set()
        self.init_only: set[str] = set()
        #: field -> list of (method qualname, access node, kind)
        self.accesses: dict[str, list[tuple[str, ast.expr, str]]] = {}


class LockAnalysis:
    """Run the lockset analysis; iterate :meth:`races` for the reports."""

    def __init__(
        self,
        contexts: Sequence[FileContext],
        graph: CallGraph,
        roots: Sequence[str],
        scope_prefixes: tuple[str, ...],
    ) -> None:
        self.contexts = contexts
        self.graph = graph
        self.roots = list(roots)
        self.scope_prefixes = scope_prefixes
        self._classes: dict[str, _ClassModel] = {}
        self._module_locks: dict[str, set[str]] = {}
        #: function -> {held lockset -> one call chain that produced it}
        self._fn_contexts: dict[str, dict[frozenset[str], tuple[str, ...]]] = {}
        self._collect_classes()
        self._propagate_contexts()

    # -- scope ------------------------------------------------------------

    def _in_scope(self, module: str | None) -> bool:
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope_prefixes
        )

    # -- class + field discovery ------------------------------------------

    def _collect_classes(self) -> None:
        for ctx in self.contexts:
            module = ctx.module or ctx.path
            if not self._in_scope(ctx.module):
                continue
            self._module_locks[module] = {
                target.id
                for stmt in ctx.tree.body
                if isinstance(stmt, ast.Assign) and _is_sync_call(stmt.value)
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    qualname = f"{module}.{stmt.name}"
                    self._classes[qualname] = self._model_class(qualname, ctx, stmt)

    def _model_class(
        self, qualname: str, ctx: FileContext, node: ast.ClassDef
    ) -> _ClassModel:
        model = _ClassModel(qualname, ctx, node)
        writes_outside_init: set[str] = set()
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method_qual = f"{qualname}.{item.name}"
            in_init = item.name == "__init__"
            for stmt in body_statements(item):
                for attr, access_node, kind in self._field_events(stmt):
                    if in_init and kind == "write":
                        if _is_sync_call(getattr(stmt, "value", None)):
                            model.sync_attrs.add(attr)
                        model.init_only.add(attr)
                        continue
                    if kind == "write":
                        writes_outside_init.add(attr)
                    model.accesses.setdefault(attr, []).append(
                        (method_qual, access_node, kind)
                    )
        # Shared = written after construction and not a sync object.
        shared = writes_outside_init - model.sync_attrs
        model.accesses = {
            attr: events for attr, events in model.accesses.items() if attr in shared
        }
        return model

    @staticmethod
    def _field_events(stmt: ast.AST) -> Iterator[tuple[str, ast.expr, str]]:
        """(attr, node, kind) for every ``self.X`` touch in *stmt*."""
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                yield from LockAnalysis._store_events(target)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            yield from LockAnalysis._store_events(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                yield from LockAnalysis._store_events(target)
        elif isinstance(stmt, ast.Call):
            attr = None
            if isinstance(stmt.func, ast.Attribute):
                attr = _self_attr(stmt.func.value)
                if attr is not None and stmt.func.attr in _MUTATORS:
                    yield attr, stmt.func.value, "write"
        elif isinstance(stmt, ast.Attribute) and isinstance(stmt.ctx, ast.Load):
            attr = _self_attr(stmt)
            if attr is not None:
                yield attr, stmt, "read"

    @staticmethod
    def _store_events(target: ast.expr) -> Iterator[tuple[str, ast.expr, str]]:
        attr = _self_attr(target)
        if attr is not None:
            yield attr, target, "write"
        elif isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                yield attr, target.value, "write"
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from LockAnalysis._store_events(element)

    # -- lock tokens ------------------------------------------------------

    def _lock_token(self, expr: ast.expr, info: FunctionInfo) -> str | None:
        """The lock name a ``with`` item holds, or ``None``."""
        attr = _self_attr(expr)
        if attr is not None:
            owner = self._owning_class(info)
            if owner is not None and attr in owner.sync_attrs:
                return f"{owner.qualname}.{attr}"
            if "lock" in attr.lower() or "cond" in attr.lower():
                return f"self.{attr}"
            return None
        if isinstance(expr, ast.Name):
            module_locks = self._module_locks.get(info.module, set())
            if expr.id in module_locks:
                return f"{info.module}.{expr.id}"
            if "lock" in expr.id.lower() or "cond" in expr.id.lower():
                return f"local:{expr.id}"
            return None
        if isinstance(expr, ast.Attribute):
            tail = expr.attr.lower()
            if "lock" in tail or "cond" in tail:
                return f"local:{ast.unparse(expr)}"
        return None

    def _owning_class(self, info: FunctionInfo) -> _ClassModel | None:
        if info.class_name is None:
            return None
        parts = info.qualname.split(".")
        for index in range(len(parts) - 1, 0, -1):
            if parts[index] == info.class_name:
                return self._classes.get(".".join(parts[: index + 1]))
        return None

    def _lexical_locks(self, node: ast.AST, info: FunctionInfo) -> frozenset[str]:
        """Locks held at *node* by enclosing ``with`` statements."""
        held: set[str] = set()
        ctx = info.ctx
        previous: ast.AST = node
        current = ctx.parent(node)
        while current is not None and current is not info.node:
            if isinstance(current, (ast.With, ast.AsyncWith)) and not isinstance(
                previous, ast.withitem
            ):
                for item in current.items:
                    token = self._lock_token(item.context_expr, info)
                    if token is not None:
                        held.add(token)
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # nested function boundary: locks do not transfer
            previous, current = current, ctx.parent(current)
        return frozenset(held)

    # -- interprocedural context propagation ------------------------------

    def _propagate_contexts(self) -> None:
        worklist: list[str] = []
        for root in self.roots:
            if root not in self.graph.functions:
                continue
            contexts = self._fn_contexts.setdefault(root, {})
            if frozenset() not in contexts:
                contexts[frozenset()] = ()
                worklist.append(root)
        while worklist:
            caller = worklist.pop()
            info = self.graph.functions[caller]
            incoming = dict(self._fn_contexts.get(caller, {}))
            for site in self.graph.call_sites.get(caller, ()):
                if not site.callees:
                    continue
                lexical = self._lexical_locks(site.node, info)
                for callee in site.callees:
                    if callee not in self.graph.functions:
                        continue
                    target = self._fn_contexts.setdefault(callee, {})
                    changed = False
                    for held, chain in incoming.items():
                        new_held = held | lexical
                        if new_held not in target:
                            if len(target) >= _MAX_CONTEXTS:
                                collapsed = frozenset.intersection(
                                    new_held, *target.keys()
                                )
                                if collapsed not in target:
                                    target[collapsed] = chain + (caller,)
                                    changed = True
                            else:
                                target[new_held] = chain + (caller,)
                                changed = True
                    if changed:
                        worklist.append(callee)

    # -- the race check ---------------------------------------------------

    def _instances(
        self, model: _ClassModel, events: list[tuple[str, ast.expr, str]]
    ) -> list[tuple[FieldAccess, frozenset[str], tuple[str, ...]]]:
        out = []
        for method_qual, node, kind in events:
            info = self.graph.functions.get(method_qual)
            if info is None:
                continue
            contexts = self._fn_contexts.get(method_qual)
            if not contexts:
                continue  # never reached from a thread root
            lexical = self._lexical_locks(node, info)
            access = FieldAccess(
                function=method_qual,
                path=model.ctx.path,
                line=getattr(node, "lineno", 0),
                kind=kind,
                lexical_locks=lexical,
            )
            for held, chain in contexts.items():
                out.append((access, held | lexical, chain))
        return out

    def races(self) -> Iterator[RaceReport]:
        """One report per shared field with a disjointly-locked pair."""
        for qualname in sorted(self._classes):
            model = self._classes[qualname]
            for attr in sorted(model.accesses):
                events = model.accesses[attr]
                instances = self._instances(model, events)
                report = self._find_race(model, attr, instances)
                if report is not None:
                    yield report

    def _find_race(
        self,
        model: _ClassModel,
        attr: str,
        instances: list[tuple[FieldAccess, frozenset[str], tuple[str, ...]]],
    ) -> RaceReport | None:
        for first, first_locks, first_chain in instances:
            if first.kind != "write":
                continue
            for second, second_locks, second_chain in instances:
                if (first.function, first.line) == (second.function, second.line):
                    continue
                if first_locks & second_locks:
                    continue
                return RaceReport(
                    field_name=f"{model.qualname}.{attr}",
                    ctx=model.ctx,
                    node_line=first.line,
                    node_col=0,
                    first=first,
                    first_locks=first_locks,
                    first_chain=first_chain,
                    second=second,
                    second_locks=second_locks,
                    second_chain=second_chain,
                )
        return None

    # -- module globals ---------------------------------------------------

    def global_races(self) -> Iterator[RaceReport]:
        """Races on module globals written under ``global`` declarations."""
        for ctx in self.contexts:
            module = ctx.module or ctx.path
            if not self._in_scope(ctx.module):
                continue
            written: set[str] = set()
            for info in self.graph.functions.values():
                if info.module != module or info.ctx is not ctx:
                    continue
                declared: set[str] = set()
                for stmt in body_statements(info.node):
                    if isinstance(stmt, ast.Global):
                        declared.update(stmt.names)
                written_here = {
                    target.id
                    for stmt in body_statements(info.node)
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name) and target.id in declared
                }
                written.update(written_here)
            sync_globals = self._module_locks.get(module, set())
            for name in sorted(written - sync_globals):
                instances = self._global_instances(ctx, module, name)
                report = self._find_global_race(ctx, module, name, instances)
                if report is not None:
                    yield report

    def _global_instances(
        self, ctx: FileContext, module: str, name: str
    ) -> list[tuple[FieldAccess, frozenset[str], tuple[str, ...]]]:
        out = []
        for info in self.graph.functions.values():
            if info.module != module or info.ctx is not ctx:
                continue
            contexts = self._fn_contexts.get(info.qualname)
            if not contexts:
                continue
            declared = any(
                isinstance(stmt, ast.Global) and name in stmt.names
                for stmt in body_statements(info.node)
            )
            for stmt in body_statements(info.node):
                if not isinstance(stmt, ast.Name) or stmt.id != name:
                    continue
                kind = (
                    "write"
                    if isinstance(stmt.ctx, (ast.Store, ast.Del)) and declared
                    else "read"
                )
                if isinstance(stmt.ctx, (ast.Store, ast.Del)) and not declared:
                    continue  # a local shadowing the global
                lexical = self._lexical_locks(stmt, info)
                access = FieldAccess(
                    function=info.qualname,
                    path=ctx.path,
                    line=stmt.lineno,
                    kind=kind,
                    lexical_locks=lexical,
                )
                for held, chain in contexts.items():
                    out.append((access, held | lexical, chain))
        return out

    def _find_global_race(
        self,
        ctx: FileContext,
        module: str,
        name: str,
        instances: list[tuple[FieldAccess, frozenset[str], tuple[str, ...]]],
    ) -> RaceReport | None:
        for first, first_locks, first_chain in instances:
            if first.kind != "write":
                continue
            for second, second_locks, second_chain in instances:
                if (first.function, first.line) == (second.function, second.line):
                    continue
                if first_locks & second_locks:
                    continue
                return RaceReport(
                    field_name=f"{module}.{name}",
                    ctx=ctx,
                    node_line=first.line,
                    node_col=0,
                    first=first,
                    first_locks=first_locks,
                    first_chain=first_chain,
                    second=second,
                    second_locks=second_locks,
                    second_chain=second_chain,
                )
        return None

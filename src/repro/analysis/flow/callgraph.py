"""Project-wide call graph over the lint engine's parsed files.

The graph is *name-resolved where it can be, name-matched where it
cannot*: a bare ``f(...)`` resolves to the ``f`` defined or imported in
the calling module; ``self.m(...)`` resolves to method ``m`` of the
enclosing class; ``ClassName(...)`` resolves to ``ClassName.__init__``;
``self.attr.m(...)`` and ``local.m(...)`` resolve precisely when the
receiver's type is known from a ``= ClassName(...)`` assignment; and any
remaining ``obj.m(...)`` over-approximates to *every* project function
named ``m``.  Over-approximation is the right default for the analyses
built on top (reachability, lockset propagation, budget coverage): a
spurious edge can only make them more conservative, a missing edge
would make them wrong.  Two deliberate exceptions keep the fallback
from drowning the graph: dunder names never match by name (or every
``super().__init__()`` would edge to every constructor in the project),
and ubiquitous container/str/lock method names (``get``, ``append``,
``release``…) never match by name when the receiver's type is unknown —
real calls to project methods with those names go through a receiver
the type inference resolves.

Nodes are qualified names ``module.Class.method`` / ``module.func``
(nested functions get their lexical path).  Bodies of nested ``def``s
belong to the nested function, not to the one that defines it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis.lint.engine import FileContext

__all__ = ["FunctionInfo", "CallSite", "CallGraph", "build_call_graph"]

#: Method names so common on builtin containers/strings/locks that an
#: untyped ``obj.m()`` matching them by name would wire, e.g., every
#: ``headers.get(...)`` to ``AssessmentCache.get``.  Calls to *project*
#: methods with these names resolve through the receiver-type inference
#: instead.
_UBIQUITOUS_METHODS = frozenset({
    "get", "put", "append", "extend", "add", "pop", "update", "items",
    "keys", "values", "setdefault", "popitem", "clear", "copy", "read",
    "write", "close", "join", "split", "strip", "encode", "decode",
    "format", "sort", "insert", "remove", "discard", "acquire",
    "release", "wait", "set", "is_set", "start", "cancel", "send",
})


@dataclass
class FunctionInfo:
    """One function or method known to the project."""

    qualname: str
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class CallSite:
    """One call expression inside a function body."""

    caller: str
    node: ast.Call
    callees: tuple[str, ...]

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class CallGraph:
    """Functions, resolved call edges, and thread-spawn targets."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    call_sites: dict[str, list[CallSite]] = field(default_factory=dict)
    #: Qualnames passed as ``target=`` to ``threading.Thread`` (the
    #: statically known extra thread entry points).
    thread_targets: set[str] = field(default_factory=set)
    #: name -> every qualname with that final name (the by-name fallback).
    by_name: dict[str, set[str]] = field(default_factory=dict)
    #: ``module.Class.attr`` -> class qualname, inferred from
    #: ``self.attr = SomeClass(...)`` assignments anywhere in the class.
    attr_types: dict[str, str] = field(default_factory=dict)

    def callees(self, qualname: str) -> set[str]:
        return self.edges.get(qualname, set())

    def callers(self, qualname: str) -> set[str]:
        return {
            caller
            for caller, callees in self.edges.items()
            if qualname in callees
        }

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Every function reachable from *roots* along call edges."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

    def stats(self) -> dict[str, int]:
        return {
            "functions": len(self.functions),
            "edges": sum(len(callees) for callees in self.edges.values()),
            "thread_targets": len(self.thread_targets),
        }


def body_statements(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested function/class bodies."""
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _collect_functions(ctx: FileContext) -> Iterator[FunctionInfo]:
    module = ctx.module or ctx.path

    def visit(nodes: Sequence[ast.stmt], prefix: str, class_name: str | None):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                yield FunctionInfo(
                    qualname=qualname,
                    module=module,
                    name=node.name,
                    class_name=class_name,
                    node=node,
                    ctx=ctx,
                )
                yield from visit(node.body, qualname, class_name)
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}.{node.name}", node.name)

    yield from visit(ctx.tree.body, module, None)


def _import_map(ctx: FileContext) -> dict[str, str]:
    """Local name -> dotted target for ``import``/``from ... import``."""
    mapping: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name
    return mapping


def _enclosing_class_prefix(info: FunctionInfo) -> str | None:
    """``module.Class`` for a method (or a function nested in one)."""
    if info.class_name is None:
        return None
    parts = info.qualname.split(".")
    # .../Class/method[/nested...] -> find the class segment.
    for index in range(len(parts) - 1, 0, -1):
        if parts[index] == info.class_name:
            return ".".join(parts[: index + 1])
    return None


class _Resolver:
    """Resolves one module's call expressions to project qualnames."""

    def __init__(self, graph: CallGraph, ctx: FileContext):
        self.graph = graph
        self.module = ctx.module or ctx.path
        self.imports = _import_map(ctx)
        self._local_types: dict[str, dict[str, str]] = {}

    def _by_name(self, name: str) -> tuple[str, ...]:
        if name.startswith("__") and name.endswith("__"):
            return ()  # super().__init__() must not fan out everywhere
        if name in _UBIQUITOUS_METHODS:
            return ()
        return tuple(sorted(self.graph.by_name.get(name, ())))

    def _as_function_or_init(self, qualname: str) -> str | None:
        if qualname in self.graph.functions:
            return qualname
        init = f"{qualname}.__init__"
        if init in self.graph.functions:
            return init
        return None

    def class_of(self, name: str, caller: FunctionInfo) -> str | None:
        """The class qualname ``name`` denotes in *caller*'s scope."""
        prefix = caller.qualname.rsplit(".", 1)[0]
        for scope in (prefix, self.module):
            if f"{scope}.{name}.__init__" in self.graph.functions:
                return f"{scope}.{name}"
        target = self.imports.get(name)
        if target is not None and f"{target}.__init__" in self.graph.functions:
            return target
        return None

    def _constructed_type(
        self, value: ast.expr, caller: FunctionInfo
    ) -> str | None:
        """Class qualname when *value* is ``SomeClass(...)``."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name):
            return self.class_of(func.id, caller)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = self.imports.get(func.value.id)
            if target is not None:
                qualname = f"{target}.{func.attr}"
                if f"{qualname}.__init__" in self.graph.functions:
                    return qualname
        return None

    def local_types(self, caller: FunctionInfo) -> dict[str, str]:
        """Local name -> class qualname from ``x = SomeClass(...)``."""
        cached = self._local_types.get(caller.qualname)
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        for node in body_statements(caller.node):
            if isinstance(node, ast.Assign):
                inferred = self._constructed_type(node.value, caller)
                if inferred is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = inferred
            elif isinstance(node, ast.withitem):
                inferred = self._constructed_type(node.context_expr, caller)
                if inferred is not None and isinstance(
                    node.optional_vars, ast.Name
                ):
                    types[node.optional_vars.id] = inferred
        self._local_types[caller.qualname] = types
        return types

    def _typed_method(self, type_qualname: str, attr: str) -> tuple[str, ...]:
        candidate = f"{type_qualname}.{attr}"
        if candidate in self.graph.functions:
            return (candidate,)
        return ()  # known type, unknown method (inherited/stdlib): no edge

    def resolve(self, call: ast.Call, caller: FunctionInfo) -> tuple[str, ...]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, caller)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                return self._resolve_self_method(func.attr, caller)
            if isinstance(value, ast.Name):
                # module-alias call (np.foo, threading.Thread), a typed
                # local, or an unknown object; precision in that order.
                target = self.imports.get(value.id)
                if target is not None:
                    resolved = self._as_function_or_init(f"{target}.{func.attr}")
                    if resolved is not None:
                        return (resolved,)
                    return ()
                local_type = self.local_types(caller).get(value.id)
                if local_type is not None:
                    return self._typed_method(local_type, func.attr)
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                class_prefix = _enclosing_class_prefix(caller)
                if class_prefix is not None:
                    attr_type = self.graph.attr_types.get(
                        f"{class_prefix}.{value.attr}"
                    )
                    if attr_type is not None:
                        return self._typed_method(attr_type, func.attr)
            return self._by_name(func.attr)
        return ()

    def _resolve_name(self, name: str, caller: FunctionInfo) -> tuple[str, ...]:
        # A sibling defined lexically above (nested scope first).
        prefix = caller.qualname.rsplit(".", 1)[0]
        for scope in (prefix, self.module):
            resolved = self._as_function_or_init(f"{scope}.{name}")
            if resolved is not None:
                return (resolved,)
        target = self.imports.get(name)
        if target is not None:
            resolved = self._as_function_or_init(target)
            if resolved is not None:
                return (resolved,)
            return ()
        return ()

    def _resolve_self_method(
        self, attr: str, caller: FunctionInfo
    ) -> tuple[str, ...]:
        class_prefix = _enclosing_class_prefix(caller)
        if class_prefix is not None:
            candidate = f"{class_prefix}.{attr}"
            if candidate in self.graph.functions:
                return (candidate,)
        return self._by_name(attr)

    def thread_target(self, call: ast.Call, caller: FunctionInfo) -> tuple[str, ...]:
        """Resolve ``threading.Thread(target=...)``-style spawn targets."""
        func = call.func
        is_thread = (
            isinstance(func, ast.Name) and func.id == "Thread"
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "Thread"
        )
        # ``executor.submit`` is not a spawn site: the tree has no
        # executor ``submit`` call, only ``run_in_executor``.
        is_executor = isinstance(func, ast.Attribute) and func.attr == "run_in_executor"
        targets: list[ast.expr] = []
        if is_thread:
            targets = [kw.value for kw in call.keywords if kw.arg == "target"]
        elif is_executor and len(call.args) >= 2:
            # loop.run_in_executor(None, f, ...) runs f on a thread.
            targets = [call.args[1]]
        resolved: list[str] = []
        for target in targets:
            if isinstance(target, ast.Name):
                resolved.extend(self._resolve_name(target.id, caller))
            elif isinstance(target, ast.Attribute):
                value = target.value
                if isinstance(value, ast.Name) and value.id == "self":
                    resolved.extend(self._resolve_self_method(target.attr, caller))
                else:
                    resolved.extend(self._by_name(target.attr))
        return tuple(resolved)


def build_call_graph(contexts: Sequence[FileContext]) -> CallGraph:
    """Build the project call graph from every parsed file."""
    graph = CallGraph()
    for ctx in contexts:
        for info in _collect_functions(ctx):
            graph.functions[info.qualname] = info
            graph.by_name.setdefault(info.name, set()).add(info.qualname)
    resolvers: list[tuple[FileContext, _Resolver]] = [
        (ctx, _Resolver(graph, ctx)) for ctx in contexts
    ]
    # Receiver-type pass: record ``self.attr = SomeClass(...)`` before
    # resolving calls, so ``self.attr.m()`` edges precisely.
    for ctx, resolver in resolvers:
        for info in graph.functions.values():
            if info.ctx is not ctx:
                continue
            class_prefix = _enclosing_class_prefix(info)
            if class_prefix is None:
                continue
            for node in body_statements(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                inferred = resolver._constructed_type(node.value, info)
                if inferred is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        graph.attr_types[f"{class_prefix}.{target.attr}"] = (
                            inferred
                        )
    for ctx, resolver in resolvers:
        module = ctx.module or ctx.path
        for info in graph.functions.values():
            if info.module != module or info.ctx is not ctx:
                continue
            sites: list[CallSite] = []
            callees: set[str] = set()
            for node in body_statements(info.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolver.resolve(node, info)
                sites.append(CallSite(info.qualname, node, resolved))
                callees.update(resolved)
                graph.thread_targets.update(resolver.thread_target(node, info))
            graph.edges[info.qualname] = callees
            graph.call_sites[info.qualname] = sites
    return graph

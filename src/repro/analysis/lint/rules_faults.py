"""Fault-safety rules: injected crashes must behave like real crashes.

The fault harness (:mod:`repro.service.faults`) derives
``InjectedCrash`` from :class:`BaseException` precisely so ordinary
``except Exception`` recovery code cannot absorb it — a simulated
``kill -9`` has to unwind, or the durability tests prove nothing.  These
rules keep that property: no bare ``except``, no ``except
BaseException`` that fails to re-raise, and no service-layer persistence
that bypasses ``save_json_atomic`` (a plain ``json.dump`` to an open
file is exactly the torn-write the atomic path exists to prevent).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Rule, Violation, register

_BASE_EXC_NAMES = frozenset({"BaseException", "InjectedCrash"})
_WRITE_MODES = frozenset("wax")


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Exception class names a handler catches (flattening tuples)."""
    node = handler.type
    if node is None:
        return set()
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for element in elements:
        if isinstance(element, ast.Name):
            names.add(element.id)
        elif isinstance(element, ast.Attribute):
            names.add(element.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when every path that matters re-raises the caught exception.

    Approximated as: the handler body contains a ``raise`` statement that
    is either bare or raises the bound exception name.  A handler that
    raises a *different* exception still swallows the original type.
    """
    for node in ast.walk(handler):
        if not isinstance(node, ast.Raise):
            continue
        if node.exc is None:
            return True
        if (
            handler.name is not None
            and isinstance(node.exc, ast.Name)
            and node.exc.id == handler.name
        ):
            return True
    return False


@register
class BareExceptRule(Rule):
    id = "FS001"
    family = "fault-safety"
    summary = "bare except clause"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.violation(
                    self,
                    node,
                    "bare 'except:' catches BaseException and can swallow "
                    "InjectedCrash; catch Exception (or narrower) instead",
                )


@register
class SwallowedBaseExceptionRule(Rule):
    id = "FS002"
    family = "fault-safety"
    summary = "except BaseException without a re-raise"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _handler_names(node) & _BASE_EXC_NAMES
            if caught and not _reraises(node):
                name = sorted(caught)[0]
                yield ctx.violation(
                    self,
                    node,
                    f"'except {name}' without re-raise swallows injected "
                    "crashes; re-raise, or suppress with a justification if "
                    "the conversion to a value is the point",
                )


@register
class UnsafePersistenceRule(Rule):
    id = "FS003"
    family = "fault-safety"
    summary = "service-layer write that bypasses save_json_atomic"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.module is None or not ctx.module.startswith("repro.service."):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_json_dump(node):
                yield ctx.violation(
                    self,
                    node,
                    "json.dump to an open file can tear on crash; route "
                    "service persistence through save_json_atomic",
                )
            elif self._is_write_open(node):
                yield ctx.violation(
                    self,
                    node,
                    "open(..., 'w'/'a'/'x') in the service layer; route "
                    "artifact writes through save_json_atomic",
                )
            elif self._is_write_text(node):
                yield ctx.violation(
                    self,
                    node,
                    ".write_text() is not atomic; route service persistence "
                    "through save_json_atomic",
                )

    @staticmethod
    def _is_json_dump(node: ast.Call) -> bool:
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "dump"
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        )

    @staticmethod
    def _is_write_open(node: ast.Call) -> bool:
        if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
            return False
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False  # default mode is 'r'
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and bool(set(mode.value) & _WRITE_MODES)
        )

    @staticmethod
    def _is_write_text(node: ast.Call) -> bool:
        return isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text",
            "write_bytes",
        )

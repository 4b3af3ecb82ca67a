"""Determinism rules: fingerprints and cache artifacts must be replayable.

The service layer's contract (PRs 1-2) is that equal fingerprints mean
byte-identical results, whether a request arrives over HTTP, in a
batch or at another replica.  That breaks the moment the modules in
:data:`~repro.analysis.lint.engine.DETERMINISM_MODULES` read wall-clock
time, draw unseeded randomness, or let a ``set``'s iteration order reach
a serialized payload.  ``time.perf_counter``/``time.monotonic`` stay
legal — durations are metrics, not content.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import (
    DETERMINISM_MODULES,
    FileContext,
    Rule,
    Violation,
    register,
)

__all__ = ["UNSEEDED_RANDOM_FNS", "WALL_CLOCK_CALLS"]

#: ``random``-module functions driven by the hidden global RNG state.
UNSEEDED_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "getrandbits",
        "randbytes",
        "betavariate",
        "expovariate",
        "normalvariate",
    }
)

#: ``(module, attribute)`` calls that read wall clock or OS entropy.
WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)

_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "next"})
_ORDER_SAFE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "bool"}
)


def _applies(ctx: FileContext) -> bool:
    return ctx.module in DETERMINISM_MODULES


def _attr_chain_tail(node: ast.AST) -> tuple[str, str] | None:
    """``("module-ish", "attr")`` for ``a.b`` / ``a.b.c`` call targets."""
    if not isinstance(node, ast.Attribute):
        return None
    if isinstance(node.value, ast.Name):
        return node.value.id, node.attr
    if isinstance(node.value, ast.Attribute):
        return node.value.attr, node.attr
    return None


@register
class UnseededRandomRule(Rule):
    id = "DT001"
    family = "determinism"
    summary = "unseeded global RNG in a determinism-critical module"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not _applies(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = _attr_chain_tail(node.func)
            if tail is None:
                continue
            base, attr = tail
            if base == "random" and attr in UNSEEDED_RANDOM_FNS:
                yield ctx.violation(
                    self,
                    node,
                    f"random.{attr}() uses the hidden global RNG; thread an "
                    "explicit fingerprint-seeded generator instead",
                )
            elif base == "random" and attr == "Random" and not node.args:
                yield ctx.violation(
                    self,
                    node,
                    "random.Random() with no seed is entropy-seeded; derive "
                    "the seed from the request fingerprint",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                yield ctx.violation(
                    self,
                    node,
                    "default_rng() with no seed is entropy-seeded; use "
                    "derived_seed(fingerprint)",
                )
            elif base == "random" and attr in {
                "rand",
                "randn",
                "random_sample",
            }:
                # np.random.<legacy global> — base is the middle attr.
                yield ctx.violation(
                    self,
                    node,
                    f"np.random.{attr}() uses the legacy global numpy RNG",
                )


@register
class WallClockRule(Rule):
    id = "DT002"
    family = "determinism"
    summary = "wall-clock or OS-entropy read in a determinism-critical module"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not _applies(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = _attr_chain_tail(node.func)
            if tail is None:
                continue
            if tail in WALL_CLOCK_CALLS:
                base, attr = tail
                yield ctx.violation(
                    self,
                    node,
                    f"{base}.{attr}() is nondeterministic input; fingerprints "
                    "and artifacts must derive from request content only "
                    "(perf_counter/monotonic are fine for durations)",
                )


@register
class SetIterationRule(Rule):
    id = "DT003"
    family = "determinism"
    summary = "iteration over a set in a determinism-critical module"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not _applies(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not self._is_set_expr(node):
                continue
            consumer = self._ordered_consumer(ctx, node)
            if consumer is not None:
                yield ctx.violation(
                    self,
                    node,
                    f"set iteration order is arbitrary but feeds {consumer}; "
                    "wrap in sorted(...) before it can reach a fingerprint "
                    "or serialized payload",
                )

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _ordered_consumer(self, ctx: FileContext, node: ast.AST) -> str | None:
        parent = ctx.parent(node)
        if isinstance(parent, ast.For) and parent.iter is node:
            return "a for loop"
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return "a comprehension"
        if isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            if isinstance(func, ast.Name):
                if func.id in _ORDER_SENSITIVE_CALLS:
                    return f"{func.id}(...)"
                return None  # sorted()/len()/... are order-safe
            if isinstance(func, ast.Attribute) and func.attr in ("join", "extend"):
                return f".{func.attr}(...)"
        return None

"""Per-function control-flow graphs over raw ``ast`` statements.

A :class:`ControlFlowGraph` is a list of basic blocks (each a run of
statements with no internal branching) plus successor edges.  The
translation handles the structured statements that matter for fixpoint
analyses over this codebase — ``if``/``while``/``for`` (with ``else``
and ``break``/``continue``), ``try``/``except``/``finally`` (edges from
the protected block to every handler), ``with`` (transparent), and
``return``/``raise`` (edges to the exit block).  Match statements and
the rest of the long tail fall back to "straight-line": conservative
for a may-analysis, which is the only kind built on top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["BasicBlock", "ControlFlowGraph", "build_cfg"]


@dataclass
class BasicBlock:
    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: set[int] = field(default_factory=set)


class ControlFlowGraph:
    """Blocks + edges; block 0 is the entry, block 1 the (empty) exit."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.entry = self._new_block()
        self.exit = self._new_block()

    def _new_block(self) -> int:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block.index

    def _edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.add(dst)


class _Builder:
    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        # (break_target, continue_target) stack for loops.
        self._loops: list[tuple[int, int]] = []

    def build(self, body: list[ast.stmt]) -> ControlFlowGraph:
        last = self._sequence(body, self.cfg.entry)
        self.cfg._edge(last, self.cfg.exit)
        return self.cfg

    # Returns the block where control continues after *body*.
    def _sequence(self, body: list[ast.stmt], current: int) -> int:
        for stmt in body:
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, current: int) -> int:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            cfg.blocks[current].statements.append(stmt)
            after = cfg._new_block()
            then_block = cfg._new_block()
            cfg._edge(current, then_block)
            cfg._edge(self._sequence(stmt.body, then_block), after)
            if stmt.orelse:
                else_block = cfg._new_block()
                cfg._edge(current, else_block)
                cfg._edge(self._sequence(stmt.orelse, else_block), after)
            else:
                cfg._edge(current, after)
            return after
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg._new_block()
            cfg.blocks[head].statements.append(stmt)
            cfg._edge(current, head)
            after = cfg._new_block()
            body_block = cfg._new_block()
            cfg._edge(head, body_block)
            cfg._edge(head, after)  # condition false / iterator exhausted
            self._loops.append((after, head))
            cfg._edge(self._sequence(stmt.body, body_block), head)
            self._loops.pop()
            if stmt.orelse:
                else_block = cfg._new_block()
                cfg._edge(head, else_block)
                cfg._edge(self._sequence(stmt.orelse, else_block), after)
            return after
        if isinstance(stmt, ast.Try):
            body_end = self._sequence(stmt.body, current)
            after = cfg._new_block()
            handler_entries: list[int] = []
            for handler in stmt.handlers:
                handler_block = cfg._new_block()
                handler_entries.append(handler_block)
                # Any statement of the protected block may raise into the
                # handler; one edge from the (single merged) body suffices
                # for a may-analysis, plus one from the entry of the try.
                cfg._edge(current, handler_block)
                cfg._edge(body_end, handler_block)
                cfg._edge(self._sequence(handler.body, handler_block), after)
            if stmt.orelse:
                else_block = cfg._new_block()
                cfg._edge(body_end, else_block)
                cfg._edge(self._sequence(stmt.orelse, else_block), after)
            else:
                cfg._edge(body_end, after)
            if stmt.finalbody:
                final_block = cfg._new_block()
                cfg._edge(after, final_block)
                after = cfg._new_block()
                cfg._edge(self._sequence(stmt.finalbody, final_block), after)
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            cfg.blocks[current].statements.append(stmt)
            inner = cfg._new_block()
            cfg._edge(current, inner)
            after = cfg._new_block()
            cfg._edge(self._sequence(stmt.body, inner), after)
            return after
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg.blocks[current].statements.append(stmt)
            cfg._edge(current, cfg.exit)
            return cfg._new_block()  # unreachable continuation
        if isinstance(stmt, ast.Break) and self._loops:
            cfg._edge(current, self._loops[-1][0])
            return cfg._new_block()
        if isinstance(stmt, ast.Continue) and self._loops:
            cfg._edge(current, self._loops[-1][1])
            return cfg._new_block()
        cfg.blocks[current].statements.append(stmt)
        return current


def build_cfg(node: ast.FunctionDef | ast.AsyncFunctionDef) -> ControlFlowGraph:
    """The control-flow graph of one function body."""
    return _Builder().build(node.body)

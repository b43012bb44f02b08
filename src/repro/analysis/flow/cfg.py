"""Per-function control-flow graphs over Python ASTs.

The CFG is the substrate for dynflow's dataflow pass: basic blocks of
simple statements connected by typed edges, with branching blocks
keeping a reference to their test expression so the abstract
interpreter can refine state along ``true``/``false`` edges (the
``ctx.participating()`` refinement that powers DYN503).

The builder handles the shapes that trip up naive walkers:

* ``while``/``for`` with ``else`` — the else body runs on normal loop
  exit only; ``break`` jumps past it;
* ``try``/``except``/``else``/``finally`` — every statement of the try
  body may transfer to each handler; ``return``/``raise``/``break``/
  ``continue`` route *through* the pending ``finally`` blocks before
  leaving;
* nested function definitions and comprehensions stay inside their
  enclosing block (they are values, not control flow; the call graph
  resolves into them separately).

Edge kinds: ``next`` (fallthrough), ``true``/``false`` (branch),
``loop`` (head into body), ``back`` (body to head), ``exit``
(loop head to after/else), ``break``, ``continue``, ``except``,
``finally``, ``return``, ``raise``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Edge", "Block", "CFG", "build_cfg"]


@dataclass(frozen=True)
class Edge:
    dst: int
    kind: str


@dataclass
class Block:
    idx: int
    label: str
    stmts: list = field(default_factory=list)
    succ: list = field(default_factory=list)
    #: test expression when this block ends in a conditional branch
    cond: Optional[ast.expr] = None

    def edge(self, dst: int, kind: str) -> None:
        e = Edge(dst, kind)
        if e not in self.succ:
            self.succ.append(e)


class CFG:
    """Blocks indexed by position; ``entry`` is 0, ``exit`` is 1."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: list[Block] = []
        self.entry = self.new_block("entry").idx
        self.exit = self.new_block("exit").idx
        #: id(ast test node) -> block idx, for taint lookups at branches
        self.cond_blocks: dict[int, int] = {}

    def new_block(self, label: str) -> Block:
        b = Block(len(self.blocks), label)
        self.blocks.append(b)
        return b

    def preds(self, idx: int) -> list:
        return [b.idx for b in self.blocks if any(e.dst == idx for e in b.succ)]

    def reachable(self, start: Optional[int] = None) -> set:
        seen: set = set()
        stack = [self.entry if start is None else start]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(e.dst for e in self.blocks[i].succ)
        return seen

    def edges(self) -> list:
        return [(b.idx, e.dst, e.kind) for b in self.blocks for e in b.succ]

    def block_of_cond(self, test: ast.expr) -> Optional[Block]:
        i = self.cond_blocks.get(id(test))
        return None if i is None else self.blocks[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"CFG({self.name})"]
        for b in self.blocks:
            succ = ", ".join(f"{e.kind}->{e.dst}" for e in b.succ)
            lines.append(f"  [{b.idx}] {b.label} ({len(b.stmts)} stmts) {succ}")
        return "\n".join(lines)


class _LoopCtx:
    def __init__(self, break_to: int, continue_to: int):
        self.break_to = break_to
        self.continue_to = continue_to


class _Builder:
    def __init__(self, name: str):
        self.cfg = CFG(name)
        self.loops: list[_LoopCtx] = []
        #: innermost-first entry blocks of pending finally bodies
        self.finally_stack: list[int] = []
        #: entry blocks of handlers covering the current region
        self.handler_stack: list[list[int]] = []

    # -- plumbing -------------------------------------------------------
    def _leave(self, block: Block, target: int, kind: str) -> None:
        """Route an abrupt exit (return/raise/break/continue) through
        any pending finally bodies before reaching ``target``."""
        if self.finally_stack:
            block.edge(self.finally_stack[-1], "finally")
            # the finally body's own exit edge to ``target`` is added
            # when the try statement is lowered; over-approximating the
            # continuation (finally -> every pending target) is fine
            # for reachability and dataflow.
            self._pending_finally_exits.setdefault(
                self.finally_stack[-1], set()
            ).add((target, kind))
        else:
            block.edge(target, kind)

    _pending_finally_exits: dict

    # -- statement lists ------------------------------------------------
    def build(self, fn) -> CFG:
        self._pending_finally_exits = {}
        body_entry = self.cfg.new_block("body")
        self.cfg.blocks[self.cfg.entry].edge(body_entry.idx, "next")
        last = self.stmts(fn.body, body_entry)
        if last is not None:
            last.edge(self.cfg.exit, "next")
        return self.cfg

    def stmts(self, body: list, cur: Block) -> Optional[Block]:
        """Lower a statement list starting in ``cur``; returns the
        block control falls out of, or None if nothing falls through."""
        for stmt in body:
            if cur is None:
                # unreachable code after return/raise/break — keep it
                # in a fresh orphan block so it still exists in the CFG
                cur = self.cfg.new_block("unreachable")
            cur = self.stmt(stmt, cur)
        return cur

    # -- individual statements ------------------------------------------
    def stmt(self, node, cur: Block) -> Optional[Block]:
        handler = getattr(self, f"_s_{type(node).__name__}", None)
        if handler is not None:
            return handler(node, cur)
        cur.stmts.append(node)
        # any statement inside a try body may raise into the handlers
        if self.handler_stack:
            for h in self.handler_stack[-1]:
                cur.edge(h, "except")
        return cur

    def _s_If(self, node: ast.If, cur: Block) -> Optional[Block]:
        cur.stmts.append(node)
        cur.cond = node.test
        self.cfg.cond_blocks[id(node.test)] = cur.idx
        then_b = self.cfg.new_block("then")
        cur.edge(then_b.idx, "true")
        join = self.cfg.new_block("join")
        then_end = self.stmts(node.body, then_b)
        if then_end is not None:
            then_end.edge(join.idx, "next")
        if node.orelse:
            else_b = self.cfg.new_block("else")
            cur.edge(else_b.idx, "false")
            else_end = self.stmts(node.orelse, else_b)
            if else_end is not None:
                else_end.edge(join.idx, "next")
        else:
            cur.edge(join.idx, "false")
        return join

    def _loop(self, node, cur: Block, label: str) -> Optional[Block]:
        head = self.cfg.new_block(f"{label}-head")
        cur.edge(head.idx, "next")
        head.stmts.append(node)
        test = node.test if isinstance(node, ast.While) else node.iter
        head.cond = test
        self.cfg.cond_blocks[id(test)] = head.idx
        body_b = self.cfg.new_block(f"{label}-body")
        head.edge(body_b.idx, "loop")
        after = self.cfg.new_block(f"{label}-after")
        self.loops.append(_LoopCtx(after.idx, head.idx))
        body_end = self.stmts(node.body, body_b)
        self.loops.pop()
        if body_end is not None:
            body_end.edge(head.idx, "back")
        if node.orelse:
            # else body runs on *normal* exhaustion only; break edges
            # already point straight at ``after``
            else_b = self.cfg.new_block(f"{label}-else")
            head.edge(else_b.idx, "exit")
            else_end = self.stmts(node.orelse, else_b)
            if else_end is not None:
                else_end.edge(after.idx, "next")
        else:
            head.edge(after.idx, "exit")
        return after

    def _s_While(self, node, cur):
        return self._loop(node, cur, "while")

    def _s_For(self, node, cur):
        return self._loop(node, cur, "for")

    _s_AsyncFor = _s_For

    def _s_Break(self, node, cur: Block) -> None:
        cur.stmts.append(node)
        if self.loops:
            self._leave(cur, self.loops[-1].break_to, "break")
        return None

    def _s_Continue(self, node, cur: Block) -> None:
        cur.stmts.append(node)
        if self.loops:
            self._leave(cur, self.loops[-1].continue_to, "continue")
        return None

    def _s_Return(self, node, cur: Block) -> None:
        cur.stmts.append(node)
        self._leave(cur, self.cfg.exit, "return")
        return None

    def _s_Raise(self, node, cur: Block) -> None:
        cur.stmts.append(node)
        if self.handler_stack and self.handler_stack[-1]:
            for h in self.handler_stack[-1]:
                cur.edge(h, "except")
        self._leave(cur, self.cfg.exit, "raise")
        return None

    def _s_Try(self, node: ast.Try, cur: Block) -> Optional[Block]:
        join = self.cfg.new_block("try-join")
        fin_entry = None
        if node.finalbody:
            fin_entry = self.cfg.new_block("finally")
            self.finally_stack.append(fin_entry.idx)

        handler_entries = [
            self.cfg.new_block(f"except-{i}") for i in range(len(node.handlers))
        ]
        try_b = self.cfg.new_block("try")
        cur.edge(try_b.idx, "next")
        self.handler_stack.append([h.idx for h in handler_entries])
        try_end = self.stmts(node.body, try_b)
        self.handler_stack.pop()

        after_body = join.idx if fin_entry is None else fin_entry.idx
        after_kind = "next" if fin_entry is None else "finally"
        if node.orelse:
            else_b = self.cfg.new_block("try-else")
            if try_end is not None:
                try_end.edge(else_b.idx, "next")
            else_end = self.stmts(node.orelse, else_b)
            if else_end is not None:
                else_end.edge(after_body, after_kind)
        elif try_end is not None:
            try_end.edge(after_body, after_kind)

        for h, entry in zip(node.handlers, handler_entries):
            entry.stmts.append(h)
            h_end = self.stmts(h.body, entry)
            if h_end is not None:
                h_end.edge(after_body, after_kind)

        if fin_entry is not None:
            self.finally_stack.pop()
            fin_end = self.stmts(node.finalbody, fin_entry)
            if fin_end is not None:
                fin_end.edge(join.idx, "next")
                for target, kind in self._pending_finally_exits.pop(
                    fin_entry.idx, ()
                ):
                    fin_end.edge(target, kind)
            else:
                self._pending_finally_exits.pop(fin_entry.idx, None)
            if not node.handlers:
                # no handler: an exception in the body still runs the
                # finally body, then propagates
                try_b.edge(fin_entry.idx, "except")
        return join

    _s_TryStar = _s_Try  # 3.11 except* groups: same block structure

    def _s_With(self, node, cur: Block) -> Optional[Block]:
        cur.stmts.append(node)
        return self.stmts(node.body, cur)

    _s_AsyncWith = _s_With

    def _s_Match(self, node, cur: Block) -> Optional[Block]:
        cur.stmts.append(node)
        cur.cond = node.subject
        self.cfg.cond_blocks[id(node.subject)] = cur.idx
        join = self.cfg.new_block("match-join")
        for i, case in enumerate(node.cases):
            case_b = self.cfg.new_block(f"case-{i}")
            cur.edge(case_b.idx, "true")
            end = self.stmts(case.body, case_b)
            if end is not None:
                end.edge(join.idx, "next")
        cur.edge(join.idx, "false")  # no case matched
        return join


def build_cfg(fn) -> CFG:
    """Build the CFG of one ``ast.FunctionDef`` /
    ``ast.AsyncFunctionDef`` (or any object with ``.body``)."""
    name = getattr(fn, "name", "<stmts>")
    return _Builder(name).build(fn)

"""Collective matching and rank-divergence detection (DYN501/502/503/505).

Two cooperating passes per function:

1. **CFG dataflow** — a worklist fixpoint over :mod:`flow.cfg` blocks
   computing, at every statement, the rank-taint environment and the
   *participation state* (``any`` / ``active`` / ``removed``).  Edges
   leaving a branch on ``ctx.participating()`` refine the state, so an
   early ``if not ctx.participating(): return`` correctly leaves the
   fall-through path ``active``, and the body of the removed arm is
   ``removed``.

2. **Trace extraction** — a structured walk of the same function that
   builds the communication trace summary (:mod:`flow.domain`),
   splicing in callee summaries through the call graph.  At each
   branch whose condition is rank-tainted it compares the arms'
   matchable skeletons and reports divergence with the two traces side
   by side; at each loop whose bound is rank-tainted it checks the
   body for collectives; at each emitted event it checks the
   participation state for removed-path send-in.

Interprocedural model: function summaries are memoized per *variant*
(the set of parameters rank-tainted at the call site), so a helper
that branches on a rank argument is only flagged when some caller
actually passes rank-derived data into it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from .callgraph import FuncInfo, Registry
from .domain import (
    ChoiceNode,
    CommEvent,
    LoopNode,
    TaintEnv,
    classify_call,
    events_in,
    expr_text,
    render_trace,
    skeleton,
)
from ..findings import Finding, SideBySide

__all__ = ["Summary", "CollectiveAnalyzer"]

_MAX_DATAFLOW_ROUNDS = 200


@dataclass(frozen=True)
class Summary:
    trace: tuple
    return_tainted: bool


_EMPTY = Summary((), False)


def _part_join(a: str, b: str) -> str:
    return a if a == b else "any"


class CollectiveAnalyzer:
    def __init__(self, registry: Registry):
        self.reg = registry
        self.findings: list[Finding] = []
        self._summaries: dict = {}
        self._stack: set = set()
        self._emitted: set = set()

    # -- public ---------------------------------------------------------
    def run(self) -> list:
        for root in self.reg.roots():
            self.summarize(root, frozenset())
        return self.findings

    # -- findings plumbing ---------------------------------------------
    def _emit(self, finding: Finding) -> None:
        key = (finding.code, finding.path, finding.line, finding.anchor)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(finding)

    # -- summaries ------------------------------------------------------
    def summarize(self, fi: FuncInfo, seeds: frozenset) -> Summary:
        key = (fi.module, fi.qualname, seeds)
        hit = self._summaries.get(key)
        if hit is not None:
            return hit
        guard = (fi.module, fi.qualname)
        if guard in self._stack:
            return _EMPTY  # recursion: opaque
        self._stack.add(guard)
        try:
            summary = self._analyze(fi, seeds)
        finally:
            self._stack.discard(guard)
        self._summaries[key] = summary
        return summary

    def _analyze(self, fi: FuncInfo, seeds: frozenset) -> Summary:
        call_returns: dict = {}
        callees: dict = {}
        for node in ast.walk(fi.node):
            if isinstance(node, ast.Call):
                callee = self.reg.resolve_call(node, fi)
                if callee is not None and callee.node is not fi.node:
                    callees[id(node)] = callee
                    sub = self.summarize(callee, frozenset())
                    call_returns[id(node)] = sub.return_tainted
        states, return_tainted = self._dataflow(fi, seeds, call_returns)
        walker = _TraceWalker(self, fi, states, callees, call_returns)
        trace = walker.walk(fi.node.body)
        return Summary(trace, return_tainted)

    # -- pass 1: CFG dataflow -------------------------------------------
    def _dataflow(self, fi: FuncInfo, seeds: frozenset,
                  call_returns: dict):
        cfg = fi.cfg
        init = TaintEnv(set(seeds), set(), call_returns)
        in_states: dict = {cfg.entry: (init, "any")}
        work = [cfg.entry]
        rounds = 0
        while work and rounds < _MAX_DATAFLOW_ROUNDS * len(cfg.blocks):
            rounds += 1
            b = work.pop()
            env, part = in_states[b]
            block = cfg.blocks[b]
            out = env.copy()
            for stmt in block.stmts:
                _transfer(out, stmt)
            for edge in block.succ:
                epart = part
                if block.cond is not None and edge.kind in (
                    "true", "false", "loop", "exit"
                ):
                    info = out.participation_info(block.cond)
                    if info is not None:
                        refined = (
                            info[0] if edge.kind in ("true", "loop")
                            else info[1]
                        )
                        if refined is not None:
                            epart = refined
                prev = in_states.get(edge.dst)
                if prev is None:
                    in_states[edge.dst] = (out.copy(), epart)
                    work.append(edge.dst)
                else:
                    joined = prev[0].join(out)
                    jpart = _part_join(prev[1], epart)
                    if joined != prev[0] or jpart != prev[1]:
                        in_states[edge.dst] = (joined, jpart)
                        work.append(edge.dst)
        # final replay: per-statement states + return taint
        states: dict = {}
        return_tainted = False
        for block in cfg.blocks:
            if block.idx not in in_states:
                continue
            env, part = in_states[block.idx]
            cur = env.copy()
            for stmt in block.stmts:
                states[id(stmt)] = (cur.copy(), part)
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    if cur.expr_tainted(stmt.value):
                        return_tainted = True
                _transfer(cur, stmt)
        return states, return_tainted


def _transfer(env: TaintEnv, stmt) -> None:
    """Taint transfer for the statement *headers* stored in a block
    (compound bodies live in their own blocks)."""
    if isinstance(stmt, ast.Assign):
        env.assign(stmt.targets, stmt.value)
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            env.assign([stmt.target], stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        if env.expr_tainted(stmt.value) or env.expr_tainted(stmt.target):
            env.assign([stmt.target], stmt.value)
            for n in ast.walk(stmt.target):
                if isinstance(n, ast.Name):
                    env.tainted.add(n.id)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        env.assign([stmt.target], stmt.iter)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                env.assign([item.optional_vars], item.context_expr)
    # walrus targets anywhere in the header
    header = None
    if isinstance(stmt, (ast.If, ast.While)):
        header = stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        header = stmt.iter
    elif not isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Try, ast.Match)
    ):
        header = stmt
    if header is not None:
        for n in ast.walk(header):
            if isinstance(n, ast.NamedExpr):
                env.assign([n.target], n.value)


_DEFAULT_STATE = (TaintEnv(), "any")


class _TraceWalker:
    """Pass 2: structured trace extraction + divergence checks."""

    def __init__(self, analyzer: CollectiveAnalyzer, fi: FuncInfo,
                 states: dict, callees: dict, call_returns: dict):
        self.an = analyzer
        self.fi = fi
        self.states = states
        self.callees = callees
        self.call_returns = call_returns

    def _state(self, stmt):
        return self.states.get(id(stmt), _DEFAULT_STATE)

    # -- statement lists ------------------------------------------------
    def walk(self, stmts: list) -> tuple:
        trace: list = []
        for stmt in stmts:
            env, part = self._state(stmt)
            if isinstance(stmt, ast.If):
                trace.append(self._walk_if(stmt, env, part))
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                trace.append(self._walk_loop(stmt, env, part))
            elif isinstance(stmt, ast.Try):
                trace.extend(self._walk_try(stmt, env, part))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    trace.extend(
                        self._events(item.context_expr, env, part)
                    )
                trace.extend(self.walk(stmt.body))
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # values, not control flow
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                if getattr(stmt, "value", None) is not None:
                    trace.extend(self._events(stmt.value, env, part))
                if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                    trace.extend(self._events(stmt.exc, env, part))
                break
            elif isinstance(stmt, (ast.Break, ast.Continue)):
                break
            else:
                trace.extend(self._events(stmt, env, part))
        return tuple(trace)

    # -- branches -------------------------------------------------------
    def _walk_if(self, node: ast.If, env: TaintEnv, part: str):
        tainted = env.expr_tainted(node.test)
        info = env.participation_info(node.test)
        arm_true = self.walk(node.body)
        arm_false = self.walk(node.orelse)
        cond = expr_text(node.test)
        if tainted:
            if info == ("active", "removed") or info == ("removed", "active"):
                active_first = info[0] == "active"
                active_arm = arm_true if active_first else arm_false
                removed_arm = arm_false if active_first else arm_true
                self._check_arms(
                    node, cond, active_arm, removed_arm,
                    scopes=("world",),
                    labels=("participating ranks", "removed ranks"),
                    participation=True,
                )
            elif info is not None:
                # one arm is active-only (participation is a conjunct):
                # active-scope asymmetry is fine, world-scope must match
                self._check_arms(
                    node, cond, arm_true, arm_false,
                    scopes=("world",),
                    labels=(f"ranks where `{cond}`",
                            f"ranks where not `{cond}`"),
                    participation=True,
                )
            else:
                self._check_arms(
                    node, cond, arm_true, arm_false,
                    scopes=("world", "active"),
                    labels=(f"ranks where `{cond}`",
                            f"ranks where not `{cond}`"),
                )
        return ChoiceNode(
            arms=(arm_true, arm_false), cond=cond, tainted=tainted,
            participation=info is not None, line=node.lineno,
        )

    def _check_arms(self, node, cond, arm_a, arm_b, *, scopes,
                    labels, participation=False) -> None:
        skel_a = skeleton(arm_a, scopes)
        skel_b = skeleton(arm_b, scopes)
        if skel_a == skel_b:
            return
        code = "DYN501"
        what = "collective sequence diverges"
        if (
            len(skel_a) == len(skel_b)
            and all(
                isinstance(a, tuple) and isinstance(b, tuple)
                and len(a) == 4 and len(b) == 4 and a[2] == b[2]
                for a, b in zip(skel_a, skel_b)
            )
        ):
            code = "DYN505"
            what = "collective signatures differ"
        scope_txt = "/".join(scopes)
        hint = (
            "every rank must emit the same collective sequence; move the "
            "collective out of the rank-dependent branch or mirror it on "
            "the other arm"
        )
        if participation:
            hint = (
                "removed ranks still receive send-out (paper 4.4): world-"
                "scope collectives like global_reduce/begin_cycle must be "
                "reachable on the non-participating path too"
            )
        self.an._emit(Finding(
            path=self.fi.path,
            line=node.lineno,
            col=node.col_offset,
            code=code,
            function=self.fi.qualname,
            message=(
                f"{what} across rank-dependent branch `{cond}` "
                f"({scope_txt}-scope events must match on both arms)"
            ),
            anchor=f"{cond}|{skel_a!r}|{skel_b!r}",
            side_by_side=SideBySide(
                left_label=labels[0],
                right_label=labels[1],
                left=tuple(render_trace(arm_a)),
                right=tuple(render_trace(arm_b)),
            ),
            hint=hint,
        ))

    # -- loops ----------------------------------------------------------
    def _walk_loop(self, node, env: TaintEnv, part: str):
        bound_expr = node.test if isinstance(node, ast.While) else node.iter
        tainted = env.expr_tainted(bound_expr)
        body = self.walk(node.body)
        if node.orelse:
            body = body + self.walk(node.orelse)
        bound = expr_text(bound_expr)
        if tainted and skeleton(body):
            colls = events_in(body, kinds=("coll", "cycle"))
            names = ", ".join(
                sorted({e.name for e in colls})
            ) or "collective"
            self.an._emit(Finding(
                path=self.fi.path,
                line=node.lineno,
                col=node.col_offset,
                code="DYN502",
                function=self.fi.qualname,
                message=(
                    f"loop bound `{bound}` is rank-dependent but the body "
                    f"enters {names} — ranks would execute a different "
                    f"number of collectives"
                ),
                anchor=f"{bound}|{names}",
                side_by_side=SideBySide(
                    left_label=f"each iteration of `{bound}`",
                    right_label="ranks with fewer iterations",
                    left=tuple(render_trace(body)),
                    right=("(collective never entered)",),
                ),
                hint=(
                    "hoist the collective out of the loop or derive the "
                    "trip count from rank-uniform data (config values or "
                    "a collective result)"
                ),
            ))
        return LoopNode(
            body=body, bound=bound, tainted=tainted, line=node.lineno
        )

    # -- try ------------------------------------------------------------
    def _walk_try(self, node: ast.Try, env, part) -> list:
        out: list = []
        body = self.walk(node.body) + self.walk(node.orelse)
        arms = [body] + [self.walk(h.body) for h in node.handlers]
        if len(arms) > 1 and any(a != arms[0] for a in arms):
            out.append(ChoiceNode(
                arms=tuple(arms), cond="<exception>", tainted=False,
                line=node.lineno,
            ))
        else:
            out.extend(body)
        out.extend(self.walk(node.finalbody))
        return out

    # -- events ---------------------------------------------------------
    def _events(self, node, env: TaintEnv, part: str) -> list:
        """Collect comm events and callee splices from one statement
        or expression, in approximate evaluation order."""
        out: list = []
        self._scan(node, env, part, out)
        return out

    def _scan(self, node, env: TaintEnv, part: str, out: list) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # bodies run at their call sites, not here
        for child in ast.iter_child_nodes(node):
            self._scan(child, env, part, out)
        if not isinstance(node, ast.Call):
            return
        event = classify_call(node)
        if event is not None:
            out.append(event)
            if part == "removed" and (
                event.scope == "active" or event.kind == "send"
            ):
                self._emit_503(node, event.render(), env)
            return
        callee = self.callees.get(id(node))
        if callee is None:
            return
        seeds = self._callee_seeds(node, callee, env)
        summary = self.an.summarize(callee, seeds)
        out.extend(summary.trace)
        if part == "removed":
            bad = events_in(summary.trace, scopes=("active",)) + [
                e for e in events_in(summary.trace, kinds=("send",))
                if e.scope == "p2p"
            ]
            if bad:
                self._emit_503(
                    node,
                    f"{callee.qualname}() emitting "
                    + ", ".join(sorted({e.name for e in bad})),
                    env,
                )

    def _callee_seeds(self, call: ast.Call, callee: FuncInfo,
                      env: TaintEnv) -> frozenset:
        seeds = set()
        params = callee.params
        for i, arg in enumerate(call.args):
            if i < len(params) and env.expr_tainted(arg):
                seeds.add(params[i])
        for kw in call.keywords:
            if kw.arg and kw.arg in params and env.expr_tainted(kw.value):
                seeds.add(kw.arg)
        return frozenset(seeds)

    def _emit_503(self, node, what: str, env: TaintEnv) -> None:
        self.an._emit(Finding(
            path=self.fi.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            code="DYN503",
            function=self.fi.qualname,
            message=(
                f"send-in on a removed path: {what} is reachable where "
                f"ctx.participating() is statically false"
            ),
            anchor=f"removed|{what}",
            hint=(
                "a removed rank only *receives* (send-out) — paper 4.4; "
                "guard the send/active collective with ctx.participating()"
            ),
        ))

"""The dynperf cost rules (DYN1001–DYN1006).

Rules only fire inside the inferred hot zone (:mod:`.hotzone`), and
most only once the *site heat* — the containing function's heat plus
the local loop-nesting depth at the site — clears a threshold.  That
is the whole design: ``[x] * n`` is idiomatic in setup code and a
regression in ``_try_match``; the rule set is deliberately too noisy
for a whole-tree lint and exactly right for the per-event path.

=========  ========================================================
code       meaning
=========  ========================================================
DYN1001    allocation in a hot loop: list/set/dict/np construction,
           a comprehension, or ``+`` on sequences, repeated per
           event — hoist it or reuse a buffer
DYN1002    linear scan on the per-event path: ``in``/``not in``
           against a list, ``list.remove/index/count``,
           ``pop(0)``/``insert(0, ...)`` — use a set/dict/deque
DYN1003    nested iteration over ranks × rows/ranks — quadratic in
           world size on a path that runs per cycle
DYN1004    loop-invariant work inside a hot loop: a call whose
           arguments don't change across iterations, or a deep
           attribute chain re-resolved every pass — hoist it
DYN1005    exception-based control flow or eager string formatting
           (f-string/.format/%%/logging) on the per-event path
DYN1006    result of an expensive pure call discarded — dead work
           in the hot zone
=========  ========================================================

The one-line summaries live in the rule registry
(:mod:`repro.analysis.rules`).
"""

from __future__ import annotations

import ast
from typing import Optional

from ..findings import Finding
from ..flow.callgraph import FuncInfo, Registry
from ..flow.cfg import loop_depth_map
from .hotzone import HotFunc

__all__ = ["check_function"]

#: site heat (function heat + local loop depth) needed per rule; the
#: per-iteration rules want an actual loop around the site, the scan
#: and dead-work rules bite anywhere hot
_MIN_SITE_HEAT = {
    "DYN1001": 2,
    "DYN1002": 1,
    "DYN1003": 1,
    "DYN1004": 2,
    "DYN1005": 2,
    "DYN1006": 1,
}

_ALLOC_BUILTINS = frozenset({"list", "dict", "set", "tuple"})
_NP_CTORS = frozenset({
    "zeros", "ones", "empty", "full", "array", "arange", "linspace",
    "concatenate", "copy", "stack",
})
_NP_BASES = frozenset({"np", "numpy"})
_PURE_BUILTINS = frozenset({
    "sorted", "sum", "min", "max", "len", "abs", "round", "list",
    "dict", "set", "tuple", "enumerate", "zip", "reversed",
})
_HOISTABLE_BUILTINS = frozenset({"sorted", "sum", "min", "max", "tuple"})
_CHEAP_EXC = frozenset({
    "KeyError", "IndexError", "AttributeError", "ValueError",
    "StopIteration",
})
_LOG_METHODS = frozenset({"debug", "info", "warning", "error", "log"})
_LOG_BASES = frozenset({"logging", "log", "logger"})

#: identifier fragments that say "this iterates over the world"
_RANK_WORDS = ("rank", "size", "world", "nodes", "peers", "group",
               "active", "procs", "members")
#: fragments for the inner dimension of a rank × data nest
_ROW_WORDS = ("row", "bounds", "intervals", "lo", "hi", "shape",
              "srcs", "dsts")

_COMPS = (ast.ListComp, ast.SetComp, ast.DictComp)


def _mentions(node: ast.AST, words) -> bool:
    for n in ast.walk(node):
        ident = ""
        if isinstance(n, ast.Name):
            ident = n.id
        elif isinstance(n, ast.Attribute):
            ident = n.attr
        elif isinstance(n, ast.arg):
            ident = n.arg
        if ident:
            low = ident.lower()
            if any(w in low for w in words):
                return True
    return False


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted text of a pure ``Name.attr.attr...`` chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_text(call: ast.Call) -> str:
    chain = _attr_chain(call.func)
    return f"{chain or '<expr>'}(...)"


class _LoopFrame:
    """One enclosing loop: the names it (re)binds — the invariance
    frontier for DYN1004 — plus per-loop dedup sets."""

    def __init__(self, node: ast.AST):
        self.node = node
        self.bound: set = set()
        self.flagged_chains: set = set()
        self.flagged_calls: set = set()
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for n in ast.walk(node.target):
                if isinstance(n, ast.Name):
                    self.bound.add(n.id)
        body = getattr(node, "body", []) + getattr(node, "orelse", [])
        stack = list(body)
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
                continue
            if isinstance(n, ast.Name) and isinstance(
                n.ctx, (ast.Store, ast.Del)
            ):
                self.bound.add(n.id)
            elif isinstance(n, ast.arg):
                self.bound.add(n.arg)
            stack.extend(ast.iter_child_nodes(n))


class _RuleWalker:
    """Single pass over one hot function's own body (nested defs are
    their own hot-zone entries), tracking enclosing loops, list-typed
    locals, and raise/assert context."""

    def __init__(self, hf: HotFunc, registry: Registry):
        self.hf = hf
        self.fi: FuncInfo = hf.info
        self.registry = registry
        self.depths = loop_depth_map(self.fi.node)
        self.loops: list[_LoopFrame] = []
        self.listy: set = set()       # locals known list-typed
        self.in_raise = 0
        #: inside an if-branch or except-handler: formatting there is
        #: already guarded — the fix DYN1005 would suggest
        self.guarded = 0
        self.findings: list[Finding] = []
        self._anchors: dict = {}

    # -- emission -----------------------------------------------------
    def _emit(self, code: str, node: ast.AST, message: str,
              anchor: str, hint: str = "") -> None:
        line = getattr(node, "lineno", self.fi.node.lineno)
        seq = self._anchors.get((code, anchor), 0)
        self._anchors[(code, anchor)] = seq + 1
        if seq:
            anchor = f"{anchor}#{seq + 1}"
        detail = {
            "heat": self._site_heat(node),
            "zone_kind": self.hf.kind,
            "phase": self.hf.phase,
        }
        if self.hf.via:
            detail["via"] = self.hf.via
        self.findings.append(Finding(
            path=self.fi.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            code=code,
            function=self.fi.qualname,
            message=message,
            anchor=anchor,
            hint=hint,
            detail=detail,
        ))

    def _site_heat(self, node: ast.AST) -> int:
        return self.hf.heat + self.depths.get(id(node), len(self.loops))

    def _hot(self, code: str, node: ast.AST) -> bool:
        return self._site_heat(node) >= _MIN_SITE_HEAT[code]

    def _in_loop(self) -> bool:
        return bool(self.loops)

    # -- type scraps --------------------------------------------------
    def _is_listy(self, node: ast.AST) -> bool:
        """Syntactically a list: literal, list()/sorted() result,
        list comprehension, or a local assigned from one."""
        if isinstance(node, (ast.List, ast.ListComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "sorted")
        if isinstance(node, ast.Name):
            return node.id in self.listy
        return False

    def _note_assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self._is_listy(value):
                self.listy.add(target.id)
            else:
                self.listy.discard(target.id)

    # -- walk ---------------------------------------------------------
    def run(self) -> list:
        for stmt in self.fi.node.body:
            self.visit(stmt)
        return self.findings

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        handler = getattr(self, f"visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
        else:
            self.check_expr(node)
            for child in ast.iter_child_nodes(node):
                self.visit(child)

    def generic_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for t in node.targets:
            self._note_assign(t, node.value)
            self.visit(t)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._note_assign(node.target, node.value)

    def _visit_loop(self, node) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self.visit(node.iter)
            self._check_nested_rank_loop(node)
        else:
            self.visit(node.test)
        frame = _LoopFrame(node)
        self.loops.append(frame)
        for stmt in node.body:
            self.visit(stmt)
        self.loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self.guarded += 1
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self.guarded -= 1

    def visit_Try(self, node: ast.Try) -> None:
        caught = []
        for h in node.handlers:
            types = []
            if isinstance(h.type, ast.Name):
                types = [h.type.id]
            elif isinstance(h.type, ast.Tuple):
                types = [e.id for e in h.type.elts
                         if isinstance(e, ast.Name)]
            caught.extend(t for t in types if t in _CHEAP_EXC)
        if caught and self._in_loop() and self._hot("DYN1005", node):
            self._emit(
                "DYN1005", node,
                f"try/except {'/'.join(sorted(set(caught)))} as control "
                f"flow inside a hot loop (site heat "
                f"{self._site_heat(node)}) — raising is ~100x a dict hit",
                anchor=f"try:{'/'.join(sorted(set(caught)))}",
                hint="use .get()/membership tests on the per-event path",
            )
        for stmt in node.body:
            self.visit(stmt)
        self.guarded += 1  # handler/else bodies are off the happy path
        for h in node.handlers:
            for stmt in h.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self.guarded -= 1
        for stmt in node.finalbody:
            self.visit(stmt)

    def visit_Raise(self, node: ast.Raise) -> None:
        self.in_raise += 1
        self.generic_children(node)
        self.in_raise -= 1

    visit_Assert = visit_Raise

    def visit_Expr(self, node: ast.Expr) -> None:
        # bare-expression statement: DYN1006 discarded results
        v = node.value
        if self._hot("DYN1006", v):
            if isinstance(v, _COMPS + (ast.GeneratorExp,)):
                self._emit(
                    "DYN1006", v,
                    "comprehension built and discarded on the hot path",
                    anchor="comp:discarded",
                    hint="drop it, or keep the result if it was meant",
                )
            elif isinstance(v, ast.Call):
                name = None
                if isinstance(v.func, ast.Name):
                    name = v.func.id
                elif (isinstance(v.func, ast.Attribute)
                      and isinstance(v.func.value, ast.Name)
                      and v.func.value.id in _NP_BASES):
                    name = v.func.attr if v.func.attr in _NP_CTORS else None
                if name in _PURE_BUILTINS or (
                    name in _NP_CTORS
                    and isinstance(v.func, ast.Attribute)
                ):
                    self._emit(
                        "DYN1006", v,
                        f"result of {_call_text(v)} discarded — pure "
                        "work with no effect",
                        anchor=f"discard:{_call_text(v)}",
                        hint="delete the statement or use the value",
                    )
        # still descend: the call's arguments can trip other rules,
        # and DYN1004 must know this call's result is unused
        self.check_expr(v, result_used=False)
        for child in ast.iter_child_nodes(v):
            self.visit(child)

    # -- expression rules ---------------------------------------------
    def check_expr(self, node: ast.AST, result_used: bool = True) -> None:
        if isinstance(node, ast.Call):
            self._check_alloc_call(node)
            self._check_scan_call(node)
            self._check_format_call(node)
            if result_used:
                self._check_invariant_call(node)
        elif isinstance(node, _COMPS):
            self._check_alloc_comp(node)
        elif isinstance(node, ast.Compare):
            self._check_scan_membership(node)
        elif isinstance(node, ast.BinOp):
            self._check_alloc_concat(node)
        elif isinstance(node, ast.JoinedStr):
            self._check_format(node)
        elif isinstance(node, ast.Attribute):
            self._check_deep_chain(node)

    def _check_alloc_call(self, call: ast.Call) -> None:
        if not (self._in_loop() and self._hot("DYN1001", call)):
            return
        name = None
        if isinstance(call.func, ast.Name) and call.args:
            if call.func.id in _ALLOC_BUILTINS:
                name = call.func.id
        elif (isinstance(call.func, ast.Attribute)
              and isinstance(call.func.value, ast.Name)
              and call.func.value.id in _NP_BASES
              and call.func.attr in _NP_CTORS):
            name = f"{call.func.value.id}.{call.func.attr}"
        if name:
            self._emit(
                "DYN1001", call,
                f"{name}(...) allocates per iteration at site heat "
                f"{self._site_heat(call)}",
                anchor=f"alloc:{name}",
                hint="hoist the allocation or reuse a preallocated buffer",
            )

    def _check_alloc_comp(self, comp: ast.AST) -> None:
        if self._in_loop() and self._hot("DYN1001", comp):
            kind = type(comp).__name__.removesuffix("Comp").lower()
            self._emit(
                "DYN1001", comp,
                f"{kind} comprehension rebuilt every iteration at site "
                f"heat {self._site_heat(comp)}",
                anchor=f"alloc:{kind}comp",
                hint="hoist it out of the loop or stream the values",
            )

    def _check_alloc_concat(self, binop: ast.BinOp) -> None:
        if not (isinstance(binop.op, ast.Add) and self._in_loop()
                and self._hot("DYN1001", binop)):
            return
        if any(isinstance(s, (ast.List, ast.Tuple)) or self._is_listy(s)
               for s in (binop.left, binop.right)):
            self._emit(
                "DYN1001", binop,
                "sequence concatenation copies both operands every "
                "iteration",
                anchor="alloc:concat",
                hint="extend in place or chain iterators",
            )

    def _check_scan_membership(self, cmp: ast.Compare) -> None:
        if not self._hot("DYN1002", cmp):
            return
        for op, right in zip(cmp.ops, cmp.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) and self._is_listy(right):
                what = (right.id if isinstance(right, ast.Name)
                        else "a list")
                self._emit(
                    "DYN1002", cmp,
                    f"membership test against {what} is O(n) per event",
                    anchor=f"scan:in:{what}",
                    hint="keep a set/dict alongside the list",
                )

    def _check_scan_call(self, call: ast.Call) -> None:
        if not self._hot("DYN1002", call):
            return
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr in ("remove", "index", "count") and self._is_listy(func.value):
            base = (func.value.id if isinstance(func.value, ast.Name)
                    else "list")
            self._emit(
                "DYN1002", call,
                f"{base}.{attr}() scans the whole list per event",
                anchor=f"scan:{attr}:{base}",
                hint="use a set/dict, or index by key",
            )
        elif attr == "pop" and call.args and (
            isinstance(call.args[0], ast.Constant)
            and call.args[0].value == 0
        ):
            self._emit(
                "DYN1002", call,
                "pop(0) shifts every element — O(n) per event",
                anchor="scan:pop0",
                hint="use collections.deque.popleft()",
            )
        elif attr == "insert" and call.args and (
            isinstance(call.args[0], ast.Constant)
            and call.args[0].value == 0
        ):
            self._emit(
                "DYN1002", call,
                "insert(0, ...) shifts every element — O(n) per event",
                anchor="scan:insert0",
                hint="use collections.deque.appendleft()",
            )

    def _check_nested_rank_loop(self, outer) -> None:
        if not self._hot("DYN1003", outer):
            return
        if not _mentions(outer.iter, _RANK_WORDS):
            return
        stack = list(outer.body)
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
                continue
            inner_iters = []
            if isinstance(n, (ast.For, ast.AsyncFor)):
                inner_iters = [n.iter]
            elif isinstance(n, _COMPS + (ast.GeneratorExp,)):
                inner_iters = [g.iter for g in n.generators]
            for it in inner_iters:
                if _mentions(it, _RANK_WORDS) or _mentions(it, _ROW_WORDS):
                    self._emit(
                        "DYN1003", n,
                        "nested iteration over ranks x rows/ranks — "
                        "quadratic in world size on the hot path",
                        anchor="nest:rank",
                        hint="precompute a per-rank index or invert "
                             "the loop",
                    )
                    return
            stack.extend(ast.iter_child_nodes(n))

    def _check_invariant_call(self, call: ast.Call) -> None:
        if not (self.loops and self._hot("DYN1004", call)):
            return
        frame = self.loops[-1]
        text = _call_text(call)
        if text in frame.flagged_calls:
            return
        args = list(call.args) + [kw.value for kw in call.keywords]
        if not args:
            return
        involved = [call.func] + args
        for expr in involved:
            for n in ast.walk(expr):
                if isinstance(n, ast.Name) and n.id in frame.bound:
                    return
                if isinstance(n, ast.Call) and n is not call:
                    return  # nested calls: too opaque to call invariant
        resolvable = (
            self.registry.resolve_call(call, self.fi) is not None
            or self.registry.resolve_method_call(call, self.fi) is not None
        )
        builtin = (isinstance(call.func, ast.Name)
                   and call.func.id in _HOISTABLE_BUILTINS)
        if not (resolvable or builtin):
            return
        frame.flagged_calls.add(text)
        self._emit(
            "DYN1004", call,
            f"{text} is loop-invariant here — same arguments every "
            f"iteration at site heat {self._site_heat(call)}",
            anchor=f"invariant:{text}",
            hint="hoist the call above the loop",
        )

    def _check_deep_chain(self, attr: ast.Attribute) -> None:
        if not (self.loops and self._hot("DYN1004", attr)):
            return
        chain = _attr_chain(attr)
        if chain is None or chain.count(".") < 3:
            return
        frame = self.loops[-1]
        root = chain.split(".", 1)[0]
        if root in frame.bound or chain in frame.flagged_chains:
            return
        # flag the full chain once; its prefixes (visited next, as the
        # Attribute node's children) ride along
        parts = chain.split(".")
        for i in range(2, len(parts) + 1):
            frame.flagged_chains.add(".".join(parts[:i]))
        self._emit(
            "DYN1004", attr,
            f"attribute chain {chain} re-resolved every iteration",
            anchor=f"chain:{chain}",
            hint="bind it to a local before the loop",
        )

    def _check_format(self, node: ast.JoinedStr) -> None:
        if self.in_raise or self.guarded or not self._hot("DYN1005", node):
            return
        if not any(isinstance(v, ast.FormattedValue) for v in node.values):
            return
        self._emit(
            "DYN1005", node,
            "f-string formatted unconditionally on the per-event path",
            anchor="fmt:fstring",
            hint="format lazily (guard on a flag) or move it off the "
                 "hot path",
        )

    def _check_format_call(self, call: ast.Call) -> None:
        if self.in_raise or self.guarded or not self._hot("DYN1005", call):
            return
        kind = _is_format_call(call)
        if kind:
            self._emit(
                "DYN1005", call,
                f"{kind}(...) runs per event — eager formatting on "
                "the hot path",
                anchor=f"fmt:{kind}",
                hint="guard logging/formatting behind a cheap flag "
                     "check",
            )


def _is_format_call(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "format" and isinstance(
            func.value, (ast.Constant, ast.JoinedStr)
        ):
            return "str.format"
        if func.attr in _LOG_METHODS:
            chain = _attr_chain(func.value)
            if chain and chain.split(".")[-1] in _LOG_BASES:
                return f"{chain}.{func.attr}"
    return None


def check_function(hf: HotFunc, registry: Registry) -> list:
    """All DYN1001–1006 findings for one hot function."""
    return _RuleWalker(hf, registry).run()

"""Static ownership checking (DYN504).

Propagates ownership symbolically through the array accesses of an
application program: which global rows may ``arr.row(...)`` /
``arr.set_row(...)`` / ``arr.hold([...])`` and their slab forms
``arr.block(lo, hi)`` / ``arr.set_block(lo, data)`` /
``arr.hold(range(a, b))`` touch, versus the
owned+halo region the program *declared* with
``ctx.add_array_access(phase, name, mode, lo_off=..., hi_off=...)``.

The abstract value of an index expression is an interval, and the
region algebra is the runtime's own :class:`IntervalSet` — the
analyzer reuses the data structure the redistribution planner trades
in, so "outside owned+halo" means exactly what plancheck means by it.

Rather than solving symbolic constraints, the checker *partially
evaluates* each program against an interior witness partition::

    s, e = ctx.my_bounds()   ->  (407, 613)   on a 1000-row array

chosen away from the array edges so that boundary guards like
``if g > 0`` and grid-edge clips like ``max(lo - 1, 0)`` /
``min(hi + 1, n - 1)`` are decidable (the variable a registration's
shape names as its row count is bound to the witness array's 1000) and
row arithmetic stays exact.  Witness
soundness: every access polynomial the apps use is monotone in
``s``/``e``/loop bounds, so a violation at the witness is a real
violation and an in-bounds witness access generalizes to any interior
partition.  Behavior *at* the array edges (rank 0 / rank N-1) is not
modeled — see the limitations section in docs/ANALYSIS.md.

Interprocedurally the evaluator follows resolved calls (including the
``exec_rows`` callbacks handed to ``ctx.compute``), binding parameters
to abstract values so helpers like ``exchange_halo(ctx, src, ...)``
are checked against whichever concrete array flows in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from ..._intervals import IntervalSet
from .callgraph import FuncInfo, Registry
from .domain import expr_text
from ..findings import Finding

__all__ = ["OwnershipAnalyzer", "WITNESS_S", "WITNESS_E", "WITNESS_ROWS"]

# the interior witness partition: rows [407, 613] of a 1000-row array
WITNESS_S = 407
WITNESS_E = 613
WITNESS_ROWS = 1000

_MAX_DEPTH = 8

TOP = object()  # unknown value


@dataclass(frozen=True)
class IV:
    """Inclusive integer interval abstract value."""
    lo: int
    hi: int

    @classmethod
    def point(cls, v: int) -> "IV":
        return cls(int(v), int(v))


@dataclass
class ArrRef:
    """A registered distributed array flowing through the program."""
    name: str
    declared: Optional[tuple] = None  # (lo_off, hi_off) once declared


@dataclass(frozen=True)
class RangeVal:
    start: IV
    stop: IV


@dataclass(frozen=True)
class FuncVal:
    """A first-class reference to an analyzed function + the env its
    closure captured (jacobi's ``exec_rows`` pattern)."""
    fi: FuncInfo
    env: dict = field(hash=False, compare=False, default_factory=dict)


class _CtxVal:
    pass


CTX = _CtxVal()


def _iv_bin(op, a: IV, b: IV) -> object:
    corners = [op(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    try:
        return IV(min(corners), max(corners))
    except TypeError:  # pragma: no cover - non-int result
        return TOP


class OwnershipAnalyzer:
    """Run the witness evaluator over every ``*_program`` root."""

    def __init__(self, registry: Registry):
        self.reg = registry
        self.findings: list[Finding] = []
        self._emitted: set = set()

    def run(self) -> list:
        for root in self.reg.roots():
            if root.takes_ctx:
                _Evaluator(self, root).run()
        return self.findings

    def emit(self, fi: FuncInfo, node, arr: ArrRef, idx: IV,
             allowed: IntervalSet, bad: IntervalSet) -> None:
        line = getattr(node, "lineno", 0)
        accessed = expr_text(node)
        key = ("DYN504", fi.path, line, accessed)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(Finding(
            path=fi.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            code="DYN504",
            function=fi.qualname,
            message=(
                f"`{accessed}` touches rows {bad} of array "
                f"'{arr.name}' outside its owned+halo region {allowed} "
                f"(witness partition s={WITNESS_S}, e={WITNESS_E})"
            ),
            anchor=f"{arr.name}|{accessed}",
            hint=(
                "widen the declared halo (add_array_access lo_off/"
                "hi_off) or restrict the index to the owned block; "
                "rows outside owned+halo are not redistributed to "
                "this rank"
            ),
            detail={
                "array": arr.name,
                "accessed": [list(s) for s in bad.spans],
                "allowed": [list(s) for s in allowed.spans],
            },
        ))


class _Evaluator:
    def __init__(self, an: OwnershipAnalyzer, root: FuncInfo):
        self.an = an
        self.root = root
        #: array name -> (lo_off, hi_off) from add_array_access calls
        self.declared: dict[str, tuple] = {}
        self.arrays: dict[str, ArrRef] = {}
        self.depth = 0

    def run(self) -> None:
        env: dict = {p: TOP for p in self.root.params}
        env[self.root.params[0]] = CTX
        self._body(self.root, self.root.node.body, env)

    # -- region check ---------------------------------------------------
    def _allowed(self, arr: ArrRef) -> IntervalSet:
        lo_off, hi_off = self.declared.get(arr.name, (0, 0))
        halo = IntervalSet.span(WITNESS_S + lo_off, WITNESS_E + hi_off)
        owned = IntervalSet.span(WITNESS_S, WITNESS_E)
        return (halo | owned).clip(0, WITNESS_ROWS - 1)

    def _check(self, fi: FuncInfo, node, arr: ArrRef, idx) -> None:
        if not isinstance(idx, IV):
            return  # unknown index: out of the abstraction's reach
        touched = IntervalSet.span(idx.lo, idx.hi)
        allowed = self._allowed(arr)
        if not allowed.issuperset(touched):
            self.an.emit(fi, node, arr, idx, allowed,
                         touched.subtract(allowed))

    # -- statements -----------------------------------------------------
    def _body(self, fi: FuncInfo, stmts: list, env: dict) -> None:
        for stmt in stmts:
            self._stmt(fi, stmt, env)

    def _stmt(self, fi: FuncInfo, stmt, env: dict) -> None:
        if isinstance(stmt, ast.Assign):
            val = self._eval(fi, stmt.value, env)
            for t in stmt.targets:
                self._bind(fi, t, val, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(fi, stmt.target, self._eval(fi, stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(fi, stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = TOP
        elif isinstance(stmt, ast.Expr):
            self._eval(fi, stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(fi, stmt.value, env)
        elif isinstance(stmt, ast.If):
            verdict = self._truth(self._eval(fi, stmt.test, env))
            if verdict is not False:
                self._body(fi, stmt.body, env)
            if verdict is not True:
                self._body(fi, stmt.orelse, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(fi, stmt, env)
        elif isinstance(stmt, ast.While):
            self._eval(fi, stmt.test, env)
            self._body(fi, stmt.body, env)
            self._body(fi, stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self._eval(fi, item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(fi, item.optional_vars, val, env)
            self._body(fi, stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._body(fi, stmt.body, env)
            for h in stmt.handlers:
                self._body(fi, h.body, env)
            self._body(fi, stmt.orelse, env)
            self._body(fi, stmt.finalbody, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # local callback: remember the closure environment so
            # ctx.compute(...) can invoke it with witness bounds
            local = fi and self.an.reg.modules.get(fi.module)
            target = None
            if local:
                qual = f"{fi.qualname}.{stmt.name}"
                target = local.functions.get(qual)
            if target is not None:
                env[stmt.name] = FuncVal(target, dict(env))
        # other statements (Raise/Pass/Import/...) carry no accesses

    def _for(self, fi: FuncInfo, stmt, env: dict) -> None:
        it = self._eval(fi, stmt.iter, env)
        # small constant tuples iterate concretely (the add_array_access
        # loop in jacobi/sor); everything else binds the target once
        if (
            isinstance(stmt.iter, (ast.Tuple, ast.List))
            and len(stmt.iter.elts) <= 8
            and all(isinstance(e, ast.Constant) for e in stmt.iter.elts)
        ):
            for elt in stmt.iter.elts:
                self._bind(fi, stmt.target, elt.value, env)
                self._body(fi, stmt.body, env)
            self._body(fi, stmt.orelse, env)
            return
        if isinstance(it, RangeVal):
            if it.stop.hi - 1 < it.start.lo:
                bound = TOP  # statically empty at the witness
            else:
                bound = IV(it.start.lo, it.stop.hi - 1)
        elif isinstance(it, IV):
            bound = it
        else:
            bound = TOP
        self._bind(fi, stmt.target, bound, env)
        self._body(fi, stmt.body, env)
        self._body(fi, stmt.orelse, env)

    def _bind(self, fi: FuncInfo, target, val, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = val
        elif isinstance(target, (ast.Tuple, ast.List)):
            vals = (
                list(val) + [TOP] * len(target.elts)
                if isinstance(val, tuple)
                else [TOP] * len(target.elts)
            )
            for t, v in zip(target.elts, vals):
                self._bind(fi, t, v, env)
        # attribute/subscript targets: no tracked state

    # -- expressions ----------------------------------------------------
    def _truth(self, val) -> Optional[bool]:
        if isinstance(val, bool):
            return val
        return None

    def _eval(self, fi: FuncInfo, node, env: dict):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return node.value
            if isinstance(node.value, int):
                return IV.point(node.value)
            return node.value
        if isinstance(node, ast.Name):
            return env.get(node.id, TOP)
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(fi, e, env) for e in node.elts)
        if isinstance(node, (ast.YieldFrom, ast.Yield, ast.Await)):
            return (
                self._eval(fi, node.value, env)
                if node.value is not None else TOP
            )
        if isinstance(node, ast.NamedExpr):
            val = self._eval(fi, node.value, env)
            self._bind(fi, node.target, val, env)
            return val
        if isinstance(node, ast.IfExp):
            self._eval(fi, node.test, env)
            a = self._eval(fi, node.body, env)
            b = self._eval(fi, node.orelse, env)
            # an optional callback (``exec_rows if cfg.materialized
            # else None``): the path that runs it is the one to check
            for fn, other in ((a, b), (b, a)):
                if isinstance(fn, FuncVal) and other is None:
                    return fn
            return a if a == b else TOP
        if isinstance(node, ast.BinOp):
            return self._binop(fi, node, env)
        if isinstance(node, ast.UnaryOp):
            val = self._eval(fi, node.operand, env)
            if isinstance(node.op, ast.USub) and isinstance(val, IV):
                return IV(-val.hi, -val.lo)
            if isinstance(node.op, ast.Not):
                t = self._truth(val)
                return TOP if t is None else (not t)
            return TOP
        if isinstance(node, ast.Compare):
            return self._compare(fi, node, env)
        if isinstance(node, ast.BoolOp):
            vals = [self._truth(self._eval(fi, v, env)) for v in node.values]
            if isinstance(node.op, ast.And):
                if any(v is False for v in vals):
                    return False
                return True if all(v is True for v in vals) else TOP
            if any(v is True for v in vals):
                return True
            return False if all(v is False for v in vals) else TOP
        if isinstance(node, ast.Call):
            return self._call(fi, node, env)
        if isinstance(node, ast.Attribute):
            return self._attr(fi, node, env)
        if isinstance(node, ast.Subscript):
            self._eval(fi, node.value, env)
            self._eval(fi, node.slice, env)
            return TOP
        if isinstance(node, (ast.List, ast.Set)):
            return tuple(self._eval(fi, e, env) for e in node.elts)
        if isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if k is not None:
                    self._eval(fi, k, env)
                self._eval(fi, v, env)
            return TOP
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comp(fi, node, env)
        if isinstance(node, ast.Starred):
            return self._eval(fi, node.value, env)
        if isinstance(node, ast.JoinedStr):
            return TOP
        if isinstance(node, ast.Lambda):
            return TOP
        return TOP

    def _comp(self, fi: FuncInfo, node, env: dict):
        inner = dict(env)
        for gen in node.generators:
            it = self._eval(fi, gen.iter, inner)
            if isinstance(it, RangeVal) and it.stop.hi - 1 >= it.start.lo:
                self._bind(fi, gen.target, IV(it.start.lo, it.stop.hi - 1),
                           inner)
            elif isinstance(it, IV):
                self._bind(fi, gen.target, it, inner)
            else:
                self._bind(fi, gen.target, TOP, inner)
            for cond in gen.ifs:
                self._eval(fi, cond, inner)
        if isinstance(node, ast.DictComp):
            self._eval(fi, node.key, inner)
            self._eval(fi, node.value, inner)
        else:
            self._eval(fi, node.elt, inner)
        return TOP

    def _binop(self, fi: FuncInfo, node: ast.BinOp, env: dict):
        a = self._eval(fi, node.left, env)
        b = self._eval(fi, node.right, env)
        if not (isinstance(a, IV) and isinstance(b, IV)):
            return TOP
        if isinstance(node.op, ast.Add):
            return _iv_bin(lambda x, y: x + y, a, b)
        if isinstance(node.op, ast.Sub):
            return _iv_bin(lambda x, y: x - y, a, b)
        if isinstance(node.op, ast.Mult):
            return _iv_bin(lambda x, y: x * y, a, b)
        if isinstance(node.op, ast.FloorDiv) and 0 not in (b.lo, b.hi) and (
            b.lo > 0 or b.hi < 0
        ):
            return _iv_bin(lambda x, y: x // y, a, b)
        if isinstance(node.op, ast.Mod) and b.lo == b.hi and b.lo > 0:
            if a.lo >= 0 and a.hi < b.lo:
                return a
            return IV(0, b.lo - 1)
        return TOP

    def _compare(self, fi: FuncInfo, node: ast.Compare, env: dict):
        left = self._eval(fi, node.left, env)
        result: Optional[bool] = True
        for op, rhs in zip(node.ops, node.comparators):
            right = self._eval(fi, rhs, env)
            verdict = self._cmp_one(op, left, right)
            if verdict is False:
                return False
            if verdict is None:
                result = None
            left = right
        return TOP if result is None else result

    @staticmethod
    def _cmp_one(op, a, b) -> Optional[bool]:
        if isinstance(op, (ast.Is, ast.IsNot)):
            if a is None or b is None:
                if a is None and b is None:
                    return isinstance(op, ast.Is)
                if isinstance(a, (IV, ArrRef, tuple)) or isinstance(
                    b, (IV, ArrRef, tuple)
                ):
                    return isinstance(op, ast.IsNot)
            return None
        if not (isinstance(a, IV) and isinstance(b, IV)):
            return None
        if isinstance(op, ast.Lt):
            return True if a.hi < b.lo else (False if a.lo >= b.hi else None)
        if isinstance(op, ast.LtE):
            return True if a.hi <= b.lo else (False if a.lo > b.hi else None)
        if isinstance(op, ast.Gt):
            return True if a.lo > b.hi else (False if a.hi <= b.lo else None)
        if isinstance(op, ast.GtE):
            return True if a.lo >= b.hi else (False if a.hi < b.lo else None)
        if isinstance(op, ast.Eq):
            if a.lo == a.hi == b.lo == b.hi:
                return True
            return False if (a.hi < b.lo or b.hi < a.lo) else None
        if isinstance(op, ast.NotEq):
            if a.hi < b.lo or b.hi < a.lo:
                return True
            return False if a.lo == a.hi == b.lo == b.hi else None
        return None

    # -- attributes and calls -------------------------------------------
    def _attr(self, fi: FuncInfo, node: ast.Attribute, env: dict):
        base = self._eval(fi, node.value, env)
        if isinstance(base, ArrRef):
            if node.attr == "n_rows":
                return IV.point(WITNESS_ROWS)
            return ("arr_attr", base, node.attr)
        if base is CTX:
            return ("ctx_attr", node.attr)
        return TOP

    def _call(self, fi: FuncInfo, node: ast.Call, env: dict):
        func = self._eval(fi, node.func, env)
        args = [self._eval(fi, a, env) for a in node.args]
        kwargs = {
            kw.arg: self._eval(fi, kw.value, env)
            for kw in node.keywords if kw.arg is not None
        }
        # -- ctx primitives
        if isinstance(func, tuple) and func and func[0] == "ctx_attr":
            return self._ctx_call(fi, node, func[1], args, kwargs, env)
        # -- array methods (the access sites)
        if isinstance(func, tuple) and func and func[0] == "arr_attr":
            _, arr, method = func
            return self._arr_call(fi, node, arr, method, args)
        # -- builtins worth modeling
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "range" and args:
                ivs = [a if isinstance(a, IV) else None for a in args]
                if len(args) == 1 and ivs[0]:
                    return RangeVal(IV.point(0), ivs[0])
                if len(args) >= 2 and ivs[0] and ivs[1] and (
                    len(args) == 2
                    or (isinstance(args[2], IV) and args[2].lo == args[2].hi == 1)
                ):
                    return RangeVal(ivs[0], ivs[1])
                return TOP
            if name in ("max", "min") and args and all(
                isinstance(a, IV) for a in args
            ):
                pick = max if name == "max" else min
                return IV(
                    pick(a.lo for a in args), pick(a.hi for a in args)
                )
            if name in ("int", "abs") and len(args) == 1 and isinstance(
                args[0], IV
            ):
                a = args[0]
                if name == "int":
                    return a
                corners = [abs(a.lo), abs(a.hi)]
                return IV(0 if a.lo <= 0 <= a.hi else min(corners),
                          max(corners))
            if name == "len":
                return TOP
        # -- resolved analyzed functions and stored closures
        target: Optional[FuncVal] = None
        if isinstance(func, FuncVal):
            target = func
        else:
            callee = self.an.reg.resolve_call(node, fi)
            if callee is not None and callee.node is not fi.node:
                target = FuncVal(callee, {})
        if target is not None and self.depth < _MAX_DEPTH:
            return self._invoke(target, node, args, kwargs)
        return TOP

    def _invoke(self, target: FuncVal, node: Optional[ast.Call],
                args: list, kwargs: dict):
        callee = target.fi
        cenv: dict = dict(target.env)
        defaults = callee.node.args.defaults
        params = callee.params
        # defaults evaluate in the closure env (jacobi's src=src, dst=dst)
        for p, d in zip(params[len(params) - len(defaults):], defaults):
            cenv[p] = self._eval(callee, d, target.env or cenv)
        for p in params:
            cenv.setdefault(p, TOP)
        for p, a in zip(params, args):
            cenv[p] = a
        for k, v in kwargs.items():
            if k in params:
                cenv[k] = v
        self.depth += 1
        try:
            self._body(callee, callee.node.body, cenv)
        finally:
            self.depth -= 1
        return TOP

    def _ctx_call(self, fi: FuncInfo, node: ast.Call, method: str,
                  args: list, kwargs: dict, env: dict):
        if method == "my_bounds":
            return (IV.point(WITNESS_S), IV.point(WITNESS_E))
        if method == "participating":
            return True  # ownership is checked on the active path
        if method == "register_dense":
            # the witness array has WITNESS_ROWS rows, so the variable
            # that sizes it does too: ``min(hi + 1, n - 1)`` is decidable
            shape = node.args[1] if len(node.args) > 1 else None
            if isinstance(shape, ast.Tuple) and shape.elts:
                rows = shape.elts[0]
                if isinstance(rows, ast.Name) and env.get(rows.id, TOP) is TOP:
                    env[rows.id] = IV.point(WITNESS_ROWS)
            name = (
                node.args[0].value
                if node.args and isinstance(node.args[0], ast.Constant)
                else f"<array@{node.lineno}>"
            )
            arr = self.arrays.setdefault(name, ArrRef(name))
            return arr
        if method == "add_array_access":
            # positional: (phase, name, mode); offsets by keyword
            name = args[1] if len(args) > 1 else None
            if isinstance(name, str):
                lo = kwargs.get("lo_off", IV.point(0))
                hi = kwargs.get("hi_off", IV.point(0))
                if isinstance(lo, IV) and isinstance(hi, IV):
                    self.declared[name] = (lo.lo, hi.hi)
            return None
        if method == "compute":
            # ctx.compute(phase, work_of, exec_rows): run each function
            # argument with the witness owned bounds (lo=s, hi=e)
            for val in list(args) + list(kwargs.values()):
                if isinstance(val, FuncVal) and self.depth < _MAX_DEPTH:
                    self._invoke(
                        val, None,
                        [IV.point(WITNESS_S), IV.point(WITNESS_E)], {},
                    )
            return TOP
        if method == "nn_neighbors":
            return (TOP, TOP)
        return TOP

    def _arr_call(self, fi: FuncInfo, node: ast.Call, arr: ArrRef,
                  method: str, args: list):
        if method in ("row", "get_row", "set_row") and args:
            self._check(fi, node, arr, args[0])
            return TOP
        if method == "block" and len(args) >= 2:
            lo, hi = args[:2]
            if isinstance(lo, IV) and isinstance(hi, IV):
                self._check(fi, node, arr, IV(lo.lo, hi.hi))
            return TOP
        if method == "set_block" and args:
            # the extent is the data's, which the abstraction does not
            # carry; the first row written is known
            self._check(fi, node, arr, args[0])
            return None
        if method == "hold" and args:
            rows = args[0]
            items = rows if isinstance(rows, tuple) else (rows,)
            for item in items:
                if isinstance(item, RangeVal) and item.stop.hi > item.start.lo:
                    item = IV(item.start.lo, item.stop.hi - 1)
                self._check(fi, node, arr, item)
            return None
        if method == "held_rows":
            # held rows are owned+halo by construction
            allowed = self._allowed(arr)
            if allowed.spans:
                return RangeVal(
                    IV.point(allowed.spans[0][0]),
                    IV.point(allowed.spans[-1][1] + 1),
                )
            return TOP
        return TOP

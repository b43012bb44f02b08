"""dynflow's abstract domain: communication trace summaries.

The abstract value of a statement sequence is the *communication
trace* it may emit — a tree of:

* :class:`CommEvent` — one send/recv/collective signature
  (operation, scope, root, source line);
* :class:`LoopNode` — a repeated sub-trace plus whether its trip
  count is rank-dependent;
* :class:`ChoiceNode` — the arms of a branch plus whether its
  condition is rank-dependent.

Collective matching compares the *matchable skeletons* of two traces:
the projection onto collective/cycle events (point-to-point traffic is
pairwise by construction and legitimately rank-dependent, so it is
excluded from matching but kept for the side-by-side diagnostics).

Scopes
------

``world``
    Every rank — active, logically dropped, or physically removed —
    must reach the call: ``global_reduce`` (whose removed-rank branch
    *receives* the paper's 4.4 send-out) and the ``begin_cycle`` /
    ``end_cycle`` pair.
``active``
    Exactly the participating ranks enter: ``allreduce_active``,
    ``allgather_active``, ``bcast_active``.  Guarding these with
    ``ctx.participating()`` is the correct pattern; reaching one on a
    removed path is DYN503 (send-in from a removed rank).
``p2p``
    Endpoint traffic: matched pairwise, exempt from sequence matching;
    a *send* on a removed path is still DYN503.

Rank taint
----------

A value is rank-tainted when it derives from per-rank state: the
relative/world rank, the owned bounds, participation, neighbor ranks,
or a point-to-point receive.  Collective *results* are rank-uniform by
definition (every rank gets the same value), so they launder taint —
which is exactly the property that makes data-dependent-but-uniform
control flow (e.g. a residual-based convergence break) legal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "CommEvent", "LoopNode", "ChoiceNode", "Trace", "TraceNode",
    "classify_call", "RANK_SOURCES", "UNIFORM_RESULTS",
    "skeleton", "render_trace", "expr_text",
]

#: ctx/comm attributes and methods whose value is rank-dependent
RANK_SOURCES = frozenset({
    "rel_rank", "my_bounds", "participating", "nn_neighbors",
    "start_iter", "end_iter", "world_rank", "rank", "Get_rank",
    "relative_rank", "active", "dead_world", "held_rows", "bounds",
    "node_id", "proc",
    # p2p receives deliver per-rank payloads
    "recv_rel", "sendrecv_rel", "recv", "irecv", "sendrecv",
})

#: calls whose *result* is identical on every rank (allgather & co.)
#: — they consume rank-dependent inputs and return uniform outputs
UNIFORM_RESULTS = frozenset({
    "allreduce_active", "allgather_active", "bcast_active",
    "global_reduce", "allreduce", "allgather", "bcast",
    "allgather_dissemination", "num_active",
})

#: method name -> (kind, scope)
_COMM_METHODS = {
    "begin_cycle": ("cycle", "world"),
    "end_cycle": ("cycle", "world"),
    "global_reduce": ("coll", "world"),
    "allreduce_active": ("coll", "active"),
    "allgather_active": ("coll", "active"),
    "bcast_active": ("coll", "active"),
    "send_rel": ("send", "p2p"),
    "recv_rel": ("recv", "p2p"),
    "sendrecv_rel": ("sendrecv", "p2p"),
}

#: endpoint-level methods; only counted when the receiver looks like
#: an endpoint (``ctx.ep``, ``self.ep``, a bare ``ep``) so unrelated
#: ``.send``/``.recv`` methods in analyzed code stay invisible
_EP_METHODS = {
    "send": ("send", "p2p"),
    "recv": ("recv", "p2p"),
    "isend": ("send", "p2p"),
    "irecv": ("recv", "p2p"),
    "sendrecv": ("sendrecv", "p2p"),
}


@dataclass(frozen=True)
class CommEvent:
    kind: str    # "coll" | "cycle" | "send" | "recv" | "sendrecv"
    scope: str   # "world" | "active" | "p2p"
    name: str    # API name: allgather_active, global_reduce, isend...
    root: str = ""   # rendered root/op argument when present
    line: int = 0
    #: p2p endpoint, for the diagnostics only: rendered dest (sends) /
    #: source (recvs) expression, ``"*"`` for ANY_SOURCE, ``""`` when
    #: unmodeled
    peer: str = ""
    #: p2p tag expression, ``"*"`` for ANY_TAG
    tag: str = ""

    @property
    def sig(self) -> tuple:
        """Matching identity — everything but the source position."""
        return (self.kind, self.scope, self.name, self.root)

    def render(self) -> str:
        root = f" root={self.root}" if self.root else ""
        peer = ""
        if self.scope == "p2p" and self.peer:
            arrow = "->" if self.kind == "send" else "<-"
            peer = f" {arrow}{self.peer}"
            if self.tag:
                peer += f" tag={self.tag}"
        return f"{self.name}{root}{peer} [{self.scope}] L{self.line}"


@dataclass(frozen=True)
class LoopNode:
    body: tuple            # Trace
    bound: str             # rendered bound/iterable expression
    tainted: bool
    line: int = 0


@dataclass(frozen=True)
class ChoiceNode:
    arms: tuple            # tuple of Traces
    cond: str              # rendered condition
    tainted: bool
    participation: bool = False  # condition is ctx.participating()
    line: int = 0


TraceNode = Union[CommEvent, LoopNode, ChoiceNode]
Trace = tuple


def _dotted(node) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def expr_text(node) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


def _looks_like_endpoint(recv: Optional[ast.expr]) -> bool:
    dotted = _dotted(recv) if recv is not None else None
    if dotted is None:
        return False
    last = dotted.split(".")[-1]
    return last in ("ep", "endpoint") or dotted in ("self.ep", "ctx.ep")


def _wild_text(node: Optional[ast.expr], wild_name: str) -> str:
    """Render a source/tag argument; the ANY_* sentinels (name,
    attribute, or their literal value -1) become ``"*"``."""
    if node is None:
        return "*"
    text = expr_text(node)
    if text.split(".")[-1] == wild_name:
        return "*"
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and node.operand.value == 1
    ):
        return "*"
    return text


def _arg(call: ast.Call, idx: int, kw_name: str) -> Optional[ast.expr]:
    if len(call.args) > idx:
        return call.args[idx]
    for kw in call.keywords:
        if kw.arg == kw_name:
            return kw.value
    return None


def _peer_tag(name: str, call: ast.Call) -> tuple:
    """Extract the (peer, tag) texts of a p2p call from its known
    signature; receives default to wildcards, sends to tag 0.
    ``sendrecv``'s two sides do not fit one (peer, tag) slot — it is
    left unmodeled (empty)."""
    if name in ("send", "isend", "send_rel"):
        dest = _arg(call, 0, "peer" if name == "send_rel" else "dest")
        tag = _arg(call, 1, "tag")
        return (
            expr_text(dest) if dest is not None else "",
            expr_text(tag) if tag is not None else "0",
        )
    if name in ("recv", "irecv"):
        return (
            _wild_text(_arg(call, 0, "source"), "ANY_SOURCE"),
            _wild_text(_arg(call, 1, "tag"), "ANY_TAG"),
        )
    if name == "recv_rel":
        peer = _arg(call, 0, "peer")
        tag = _arg(call, 1, "tag")
        return (
            _wild_text(peer, "ANY_SOURCE") if peer is not None else "",
            _wild_text(tag, "ANY_TAG") if tag is not None else "0",
        )
    return ("", "")


def classify_call(call: ast.Call) -> Optional[CommEvent]:
    """Map a call expression to a communication event, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    name = func.attr
    entry = _COMM_METHODS.get(name)
    if entry is None:
        ep_entry = _EP_METHODS.get(name)
        if ep_entry is not None and _looks_like_endpoint(func.value):
            entry = ep_entry
    if entry is None:
        return None
    kind, scope = entry
    root = ""
    if name == "bcast_active":
        for kw in call.keywords:
            if kw.arg == "root":
                root = expr_text(kw.value)
        if len(call.args) >= 2:
            root = expr_text(call.args[1])
    elif name == "global_reduce" and len(call.args) >= 2:
        root = f"op={expr_text(call.args[1])}"
    peer, tag = _peer_tag(name, call) if scope == "p2p" else ("", "")
    return CommEvent(
        kind, scope, name, root, getattr(call, "lineno", 0),
        peer=peer, tag=tag,
    )


# ---------------------------------------------------------------------
# skeletons and rendering
# ---------------------------------------------------------------------

def skeleton(trace: Trace, scopes=("world", "active")) -> tuple:
    """Project a trace onto matchable collective structure.

    Returns a tuple of entries: ``CommEvent.sig`` tuples for events in
    ``scopes``, ``("loop", bound_tainted, body_skel)`` for loops with
    a non-empty body skeleton, and ``("choice", arm_skels)`` for
    branches whose arms differ.  Equal skeletons == provably identical
    collective sequences under the abstraction.
    """
    out: list = []
    for node in trace:
        if isinstance(node, CommEvent):
            if node.scope in scopes and node.kind in ("coll", "cycle"):
                out.append(node.sig)
        elif isinstance(node, LoopNode):
            body = skeleton(node.body, scopes)
            if body:
                out.append(("loop", node.tainted, body))
        elif isinstance(node, ChoiceNode):
            arms = [skeleton(a, scopes) for a in node.arms]
            first = arms[0] if arms else ()
            if all(a == first for a in arms):
                out.extend(first)
            else:
                out.append(("choice", tuple(arms)))
    return tuple(out)


def has_comm(trace: Trace, scopes=("world", "active")) -> bool:
    return bool(skeleton(trace, scopes))


def events_in(trace: Trace, *, kinds=None, scopes=None) -> list:
    """Flatten a trace to its events (loop bodies and all arms
    included), optionally filtered."""
    out: list = []
    for node in trace:
        if isinstance(node, CommEvent):
            if (kinds is None or node.kind in kinds) and (
                scopes is None or node.scope in scopes
            ):
                out.append(node)
        elif isinstance(node, LoopNode):
            out.extend(events_in(node.body, kinds=kinds, scopes=scopes))
        elif isinstance(node, ChoiceNode):
            for arm in node.arms:
                out.extend(events_in(arm, kinds=kinds, scopes=scopes))
    return out


def render_trace(trace: Trace, depth: int = 0) -> list:
    """One line per node, loops/branches indented — the side-by-side
    diagnostic body."""
    pad = "  " * depth
    out: list = []
    for node in trace:
        if isinstance(node, CommEvent):
            out.append(pad + node.render())
        elif isinstance(node, LoopNode):
            mark = "rank-dependent " if node.tainted else ""
            out.append(f"{pad}loop over {mark}`{node.bound}` L{node.line}:")
            body = render_trace(node.body, depth + 1)
            out.extend(body if body else [pad + "  (no communication)"])
        elif isinstance(node, ChoiceNode):
            arms = [render_trace(a, depth + 1) for a in node.arms]
            if all(a == arms[0] for a in arms):
                out.extend(
                    render_trace(node.arms[0], depth) if node.arms else []
                )
                continue
            mark = "rank-dependent " if node.tainted else ""
            out.append(f"{pad}if {mark}`{node.cond}` L{node.line}:")
            for i, arm in enumerate(arms):
                out.append(f"{pad}  arm {i}:")
                out.extend(
                    [s for s in arm] if arm else [pad + "    (no communication)"]
                )
    return out


# ---------------------------------------------------------------------
# taint environment
# ---------------------------------------------------------------------

@dataclass
class TaintEnv:
    """May-taint variable environment plus participation facts."""

    tainted: set = field(default_factory=set)
    #: vars known to hold the boolean result of ctx.participating()
    part_vars: set = field(default_factory=set)
    #: id(ast.Call) -> bool for calls resolved interprocedurally whose
    #: *return value* is rank-tainted (filled by the call-graph layer;
    #: shared by reference across copies)
    call_returns: dict = field(default_factory=dict)

    def copy(self) -> "TaintEnv":
        return TaintEnv(set(self.tainted), set(self.part_vars),
                        self.call_returns)

    def join(self, other: "TaintEnv") -> "TaintEnv":
        return TaintEnv(
            self.tainted | other.tainted,
            self.part_vars & other.part_vars,
            self.call_returns,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaintEnv)
            and self.tainted == other.tainted
            and self.part_vars == other.part_vars
        )

    # -- expression taint ----------------------------------------------
    def expr_tainted(self, node) -> bool:
        """Is any value flowing out of this expression rank-derived?"""
        return self._tainted_walk(node)

    def _tainted_walk(self, node) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in UNIFORM_RESULTS
            ):
                return False  # rank-uniform result launders taint
            if (
                isinstance(func, ast.Attribute)
                and func.attr in RANK_SOURCES
            ):
                return True
            if self.call_returns.get(id(node)):
                return True
            return any(
                self._tainted_walk(child)
                for child in list(node.args)
                + [kw.value for kw in node.keywords]
                + [func]
            )
        if isinstance(node, ast.Attribute):
            if node.attr in RANK_SOURCES:
                return True
            return self._tainted_walk(node.value)
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        return any(
            self._tainted_walk(child) for child in ast.iter_child_nodes(node)
        )

    # -- participation conditions --------------------------------------
    def participation_info(self, test) -> Optional[tuple]:
        """Classify a branch condition's relationship to
        ``ctx.participating()``.  Returns ``(true_part, false_part)``
        — the participation state implied on each edge, each one of
        ``"active"``, ``"removed"``, or None (unrefined) — or None
        when the test says nothing about participation:

        * ``ctx.participating()`` (or a var bound to it) →
          ``("active", "removed")``: the arms split the world exactly;
        * ``not ctx.participating()`` → ``("removed", "active")``;
        * ``cfg.collect and ctx.participating()`` →
          ``("active", None)``: the true arm still runs only on active
          ranks, but the false arm is a mix (removed ranks *plus*
          active ranks failing the other conjunct) and must not be
          refined.
        """
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self.participation_info(test.operand)
            return None if inner is None else (inner[1], inner[0])
        if isinstance(test, ast.Call) and isinstance(
            test.func, ast.Attribute
        ) and test.func.attr == "participating":
            return ("active", "removed")
        if isinstance(test, ast.Name) and test.id in self.part_vars:
            return ("active", "removed")
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for v in test.values:
                sub = self.participation_info(v)
                if sub is not None and sub[0] is not None:
                    # the true edge implies every conjunct held
                    return (sub[0], None)
        return None

    def participation_polarity(self, test) -> Optional[bool]:
        """True when ``test`` is exactly ``ctx.participating()`` (or a
        var bound to it), False for the negation, None otherwise."""
        info = self.participation_info(test)
        if info == ("active", "removed"):
            return True
        if info == ("removed", "active"):
            return False
        return None

    # -- assignment transfer -------------------------------------------
    def assign(self, targets, value) -> None:
        taint = self.expr_tainted(value) if value is not None else False
        is_part = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "participating"
        )
        for t in targets:
            for name_node in ast.walk(t):
                if isinstance(name_node, ast.Name):
                    if taint:
                        self.tainted.add(name_node.id)
                    else:
                        self.tainted.discard(name_node.id)
                    if is_part:
                        self.part_vars.add(name_node.id)
                    else:
                        self.part_vars.discard(name_node.id)

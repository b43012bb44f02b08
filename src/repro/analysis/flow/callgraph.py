"""Interprocedural call graph over the analyzed file set.

dynflow is *whole-program*: it parses every file it is pointed at,
indexes all function definitions (top-level, nested, and methods) by
qualified name, resolves ``import``/``from``-import aliases between
analyzed modules, and roots the analysis at the Dyn-MPI entry points:

* functions named ``*_program`` (the application programs),
* ``main`` functions in example/driver files,
* as a fallback, any top-level function whose first parameter is
  ``ctx`` that is not reachable from another root (standalone helpers
  and test programs — this is what makes a report-only sweep over
  ``tests/`` produce useful output).

Calls on the runtime context (``ctx.allgather_active(...)``) are
communication *primitives*, not edges — the analyzer models their
semantics directly and never descends into the runtime's internals,
which are verified by plancheck and the runtime sanitizer instead.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from .cfg import CFG, build_cfg

__all__ = ["FuncInfo", "ModuleInfo", "Registry", "load_registry"]


@dataclass
class FuncInfo:
    module: str
    qualname: str
    node: ast.AST                 # FunctionDef / AsyncFunctionDef
    path: str
    params: tuple = ()
    #: enclosing function qualname for closures, None at top level
    parent: Optional[str] = None
    is_method: bool = False
    _cfg: Optional[CFG] = None

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    @property
    def is_program(self) -> bool:
        return self.name.endswith("_program")

    @property
    def takes_ctx(self) -> bool:
        return bool(self.params) and self.params[0] == "ctx"


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    source: str
    #: local name -> ("module", modname) or ("func", modname, qualname)
    imports: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # qualname -> FuncInfo

    @cached_property
    def lines(self) -> list:
        return self.source.splitlines()

    def line(self, lineno: int) -> str:
        lines = self.lines
        return lines[lineno - 1] if 1 <= lineno <= len(lines) else ""


def _module_name(path: pathlib.Path) -> str:
    """Dotted module name: files under a ``src`` layout or a package
    tree get their real import path, loose scripts get their stem."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro",):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):]).removesuffix(
                ".__init__"
            )
    return path.stem


class _FuncCollector(ast.NodeVisitor):
    def __init__(self, mod: ModuleInfo):
        self.mod = mod
        self.stack: list[str] = []
        self.class_stack: list[str] = []

    def _add(self, node) -> None:
        qual = ".".join(
            self.class_stack + self.stack + [node.name]
        )
        params = tuple(a.arg for a in node.args.args)
        self.mod.functions[qual] = FuncInfo(
            module=self.mod.name,
            qualname=qual,
            node=node,
            path=self.mod.path,
            params=params,
            parent=".".join(self.class_stack + self.stack) or None,
            is_method=bool(self.class_stack) and not self.stack,
        )

    def visit_FunctionDef(self, node) -> None:
        self._add(node)
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()


class Registry:
    """All analyzed modules plus name-resolution helpers."""

    def __init__(self):
        #: the whole-program index, by dotted module name
        self.modules: dict[str, ModuleInfo] = {}
        #: every parsed file in load order, indexed or not — what the
        #: per-file rules walk
        self.files: list[ModuleInfo] = []
        #: (path, source, SyntaxError) for files that did not parse
        self.broken: list[tuple] = []
        #: bare function name -> list of (module, qualname); used as an
        #: unambiguous-name fallback when import chains leave the set
        self._by_name: dict[str, list] = {}

    # -- loading --------------------------------------------------------
    def add_module(self, mod: ModuleInfo) -> None:
        self.modules[mod.name] = mod
        _FuncCollector(mod).visit(mod.tree)
        for qual, fi in mod.functions.items():
            if "." not in qual:  # top level only
                self._by_name.setdefault(fi.name, []).append((mod.name, qual))
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        "module", alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                if node.level:  # relative import, resolve against self
                    pkg = mod.name.split(".")
                    pkg = pkg[: len(pkg) - node.level]
                    base = ".".join(pkg + [node.module]) if pkg else node.module
                for alias in node.names:
                    mod.imports[alias.asname or alias.name] = (
                        "func", base, alias.name
                    )

    # -- resolution -----------------------------------------------------
    def _find_export(self, modname: str, name: str,
                     _depth: int = 0) -> Optional[FuncInfo]:
        """Find ``name`` in ``modname``, chasing one level of package
        re-exports (``from .jacobi import jacobi_program``)."""
        if _depth > 4:
            return None
        mod = self.modules.get(modname)
        if mod is None:
            return None
        if name in mod.functions:
            return mod.functions[name]
        imp = mod.imports.get(name)
        if imp and imp[0] == "func":
            return self._find_export(imp[1], imp[2], _depth + 1)
        return None

    def resolve_call(self, call: ast.Call,
                     caller: FuncInfo) -> Optional[FuncInfo]:
        """Resolve a call expression to an analyzed function, or None
        for primitives/library calls.  Handles direct names (local
        functions, closures, imports) and one-level module attributes
        (``base.exchange_halo``)."""
        func = call.func
        mod = self.modules.get(caller.module)
        if isinstance(func, ast.Name):
            name = func.id
            # innermost enclosing scope first: sibling closures
            scope = caller.qualname
            while scope:
                parent = scope.rpartition(".")[0]
                # functions nested in the current scope shadow outer ones
                cand = f"{scope}.{name}"
                if mod and cand in mod.functions:
                    return mod.functions[cand]
                sibling = f"{parent}.{name}" if parent else name
                if mod and sibling in mod.functions:
                    return mod.functions[sibling]
                scope = parent
            if mod and name in mod.functions:
                return mod.functions[name]
            if mod:
                imp = mod.imports.get(name)
                if imp and imp[0] == "func":
                    fi = self._find_export(imp[1], imp[2])
                    if fi is not None:
                        return fi
            hits = self._by_name.get(name, [])
            if len(hits) == 1:
                m, qual = hits[0]
                return self.modules[m].functions[qual]
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if mod:
                imp = mod.imports.get(base)
                if imp and imp[0] == "module":
                    return self._find_export(imp[1], attr)
        return None

    # -- entry points ---------------------------------------------------
    def roots(self) -> list:
        """Analysis roots in deterministic order: program entry points
        and example mains first, then unreached ctx-helpers."""
        programs: list[FuncInfo] = []
        mains: list[FuncInfo] = []
        helpers: list[FuncInfo] = []
        for mod in sorted(self.modules.values(), key=lambda m: m.path):
            for qual in sorted(mod.functions):
                fi = mod.functions[qual]
                if fi.parent is not None or fi.is_method:
                    continue
                if fi.is_program:
                    programs.append(fi)
                elif fi.name == "main":
                    mains.append(fi)
                elif fi.takes_ctx:
                    helpers.append(fi)
        reached: set = set()
        for fi in programs + mains:
            self._reach(fi, reached)
        extra = [
            fi for fi in helpers
            if (fi.module, fi.qualname) not in reached
        ]
        return programs + mains + extra

    def _reach(self, fi: FuncInfo, seen: set) -> None:
        key = (fi.module, fi.qualname)
        if key in seen:
            return
        seen.add(key)
        for node in ast.walk(fi.node):
            if isinstance(node, ast.Call):
                callee = self.resolve_call(node, fi)
                if callee is not None:
                    self._reach(callee, seen)
            elif isinstance(node, ast.Name):
                # first-class function references (run_program(cluster,
                # jacobi_program, ...)) count as reachability too
                mod = self.modules.get(fi.module)
                if mod:
                    imp = mod.imports.get(node.id)
                    target = None
                    if node.id in mod.functions:
                        target = mod.functions[node.id]
                    elif imp and imp[0] == "func":
                        target = self._find_export(imp[1], imp[2])
                    if target is not None:
                        self._reach(target, seen)

    def call_edges(self) -> list:
        """(caller, callee) qualified-name pairs — the call graph as
        data, for tests and the JSON report."""
        edges = []
        for mod in self.modules.values():
            for fi in mod.functions.values():
                for node in ast.walk(fi.node):
                    if isinstance(node, ast.Call):
                        callee = self.resolve_call(node, fi)
                        if callee is not None:
                            edges.append((
                                f"{fi.module}.{fi.qualname}",
                                f"{callee.module}.{callee.qualname}",
                            ))
        return sorted(set(edges))


def iter_files(paths: Iterable) -> list:
    files: list[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def load_registry(
    paths: Iterable,
    indexed: Callable[[pathlib.Path], bool] = lambda path: True,
) -> Registry:
    """Read and parse every file under ``paths`` exactly once.  Files
    for which ``indexed(path)`` holds join the whole-program index
    (``modules``, call resolution, roots); the rest are only kept in
    ``files`` for the per-file rules, so harness code cannot shadow a
    program function's name.  Raises ``OSError`` for an unreadable
    path."""
    reg = Registry()
    for f in iter_files(paths):
        source = f.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(f))
        except SyntaxError as exc:
            reg.broken.append((str(f), source, exc))
            continue
        mod = ModuleInfo(
            name=_module_name(f), path=str(f), tree=tree, source=source
        )
        reg.files.append(mod)
        if indexed(f):
            reg.add_module(mod)
    return reg

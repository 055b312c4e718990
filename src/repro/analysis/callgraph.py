"""The project-wide call graph, resolved over the one-pass parse.

Built once per lint run from :class:`~repro.analysis.project.Project`,
without importing any analyzed code. Resolution is static and
best-effort — exactly the level the flow rules need:

- ``f(...)`` where ``f`` is defined at module level in the same module,
  or imported via ``from pkg.mod import f`` (aliases followed);
- ``mod.f(...)`` where ``mod`` is an imported module
  (``import pkg.mod [as mod]`` / ``from pkg import mod``);
- ``self.m(...)`` / ``cls.m(...)`` to a method of the enclosing class;
- ``Class.m(...)`` / ``Class(...)`` (constructor → ``Class.__init__``)
  where ``Class`` is resolvable like a function.

Unresolvable calls (callbacks, dynamic dispatch on arbitrary receivers)
are simply absent — callers that need them (the fork-boundary rule's
``ordered_process_map`` task functions) add the extra roots themselves
from the call sites.

Functions are keyed by dotted *qualnames*:
``repro.perf.parallel._run_task``, ``repro.perf.transitions.TransitionCache.get``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.project import ModuleInfo, Project

__all__ = ["CallGraph", "FunctionInfo", "build_call_graph"]


@dataclass
class FunctionInfo:
    """One function or method discovered in the project."""

    qualname: str  # repro.pkg.mod.func / repro.pkg.mod.Class.meth
    module: str  # repro.pkg.mod
    rel_path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None  # enclosing class, if a method


@dataclass
class CallGraph:
    """Functions, resolved call edges, and reachability queries."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: caller qualname -> [(callee qualname, call line), ...]
    calls: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    #: module -> {local name -> dotted target} (imports and top-level
    #: defs), for resolving names referenced outside call position
    #: (e.g. task functions passed as arguments).
    scopes: dict[str, dict[str, str]] = field(default_factory=dict)

    def resolve(self, module: str, name: str) -> str | None:
        """The function qualname ``name`` refers to inside ``module``."""
        target = self.scopes.get(module, {}).get(name)
        if target is None:
            return None
        return _normalize(target, self.functions)

    def callees(self, qualname: str) -> list[str]:
        seen: dict[str, None] = {}
        for callee, _line in self.calls.get(qualname, ()):
            seen.setdefault(callee, None)
        return list(seen)

    def reachable_from(self, roots: list[str]) -> dict[str, list[str]]:
        """Qualnames reachable from ``roots`` -> the call chain that got
        there (root first). Roots map to a one-element chain."""
        chains: dict[str, list[str]] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = [root]
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in self.callees(current):
                if callee in self.functions and callee not in chains:
                    chains[callee] = chains[current] + [callee]
                    queue.append(callee)
        return chains

    def by_suffix(self, suffix: str) -> list[str]:
        """Qualnames whose dotted name ends with ``suffix``."""
        dotted = f".{suffix}"
        return [
            q for q in self.functions if q == suffix or q.endswith(dotted)
        ]


@dataclass
class _ModuleScope:
    """Name-resolution context of one module."""

    module: str
    #: local name -> fully qualified target ("repro.perf.transitions.Transition"
    #: for from-imports of objects, "repro.perf.transitions" for module imports)
    imports: dict[str, str] = field(default_factory=dict)
    #: names defined at module top level (functions, classes)
    toplevel: dict[str, str] = field(default_factory=dict)  # name -> qualname


def _collect_scope(info: ModuleInfo) -> _ModuleScope:
    scope = _ModuleScope(module=info.module)
    package_parts = info.module.split(".")
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                scope.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                # Relative imports: resolve against this module's package.
                base_parts = package_parts[: len(package_parts) - (stmt.level or 0)]
                base = ".".join(base_parts + ([stmt.module] if stmt.module else []))
            else:
                base = stmt.module
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                scope.imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.toplevel[stmt.name] = f"{info.module}.{stmt.name}"
    return scope


def _register_functions(
    info: ModuleInfo, graph: CallGraph
) -> list[tuple[FunctionInfo, ast.AST]]:
    """Add every function/method of ``info`` to the graph; return them
    with their enclosing AST for the call-collection pass."""
    found: list[tuple[FunctionInfo, ast.AST]] = []

    def visit(node: ast.AST, prefix: str, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                fn = FunctionInfo(
                    qualname=qualname,
                    module=info.module,
                    rel_path=info.rel_path,
                    node=child,
                    class_name=class_name,
                )
                graph.functions[qualname] = fn
                found.append((fn, child))
                visit(child, f"{qualname}.", class_name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, class_name)

    visit(info.tree, f"{info.module}.", None)
    return found


def _resolve_call(
    call: ast.Call,
    scope: _ModuleScope,
    fn: FunctionInfo,
    known: dict[str, FunctionInfo],
) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        target = scope.toplevel.get(func.id) or scope.imports.get(func.id)
        if target is None:
            return None
        return _normalize(target, known)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        receiver, attr = func.value.id, func.attr
        if receiver in ("self", "cls") and fn.class_name is not None:
            # Method on the enclosing class: qualname prefix up to the class.
            prefix = fn.qualname.rsplit(".", 2)[0]
            return _normalize(f"{prefix}.{fn.class_name}.{attr}", known)
        target = scope.toplevel.get(receiver) or scope.imports.get(receiver)
        if target is None:
            return None
        return _normalize(f"{target}.{attr}", known)
    return None


def _normalize(target: str, known: dict[str, FunctionInfo]) -> str | None:
    """Map a resolved dotted target onto a known function qualname.

    A class target resolves to its ``__init__`` when one exists so
    constructor calls participate in reachability.
    """
    if target in known:
        return target
    init = f"{target}.__init__"
    if init in known:
        return init
    return None


def build_call_graph(project: Project) -> CallGraph:
    """Resolve every static call edge in the project."""
    graph = CallGraph()
    scopes: dict[str, _ModuleScope] = {}
    pending: list[tuple[FunctionInfo, ast.AST, _ModuleScope]] = []
    for info in project.modules:
        scope = _collect_scope(info)
        scopes[info.module] = scope
        graph.scopes[info.module] = {**scope.imports, **scope.toplevel}
        for fn, node in _register_functions(info, graph):
            pending.append((fn, node, scope))

    for fn, node, scope in pending:
        edges: list[tuple[str, int]] = []
        for call in _own_calls(node):
            callee = _resolve_call(call, scope, fn, graph.functions)
            if callee is not None:
                edges.append((callee, call.lineno))
        if edges:
            graph.calls[fn.qualname] = edges
    return graph


def _own_calls(func: ast.AST) -> list[ast.Call]:
    """Call expressions belonging to ``func`` itself — nested function
    bodies are excluded (they have their own graph entries), but calls
    *to* build nested closures stay attributable to the parent because
    the nested def is walked separately."""
    calls: list[ast.Call] = []

    def visit(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not top:
                continue
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Direct child def: skip its body but keep walking siblings.
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child, False)

    visit(func, True)
    return calls

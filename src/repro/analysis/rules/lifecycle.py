"""lifecycle/*: path-sensitive acquire/release checking over CFGs.

The perf layer's resources are unmanaged by design — pools are shut
down from generator ``finally`` clauses, the tracer is installed and
removed around a run — so nothing but discipline guarantees that every
acquire reaches its release on *every* path, including the exception
edges and the deadline-tail path where a never-started generator's
``finally`` is skipped. This family machine-checks that discipline:

- ``lifecycle/leak`` (error) — a typestate analysis over each function's
  CFG (:mod:`repro.analysis.cfg` + :mod:`repro.analysis.dataflow`).
  Every acquire site of a registered resource
  (:data:`~repro.analysis.config.DEFAULT_LIFECYCLE_RESOURCES`) must be
  dead — released, returned to the caller, or stored/escaped into an
  owning structure — on every path reaching the function's normal and
  exceptional exits. Passing a handle to a registered *borrower*
  (``ordered_process_map``) is not an escape: the caller keeps
  release responsibility. ``None`` guards are understood: on the
  ``x is None`` branch, sites ``x`` could have held are treated as
  never-acquired — the guarded-release idiom — which trades a sliver of
  soundness (an alias kept live after ``x = None`` would be missed) for
  zero false positives on the project's canonical pattern.

- ``lifecycle/fsync-before-rename`` (error) — in any function that opens
  a file for writing, every ``os.replace`` must have an ``os.fsync`` on
  *all* incoming paths (MUST-dataflow); rename-without-fsync is how a
  checkpoint survives the process but not the machine.

Functions that *return* a registered acquire directly (``_new_pool``
returning a ``ProcessPoolExecutor``) are promoted to acquire functions
themselves — a one-level call-graph summary — so their callers are held
to the same contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import build_call_graph
from repro.analysis.cfg import Node, function_cfgs
from repro.analysis.config import LintConfig, ResourceSpec
from repro.analysis.dataflow import MUST, ForwardAnalysis, GenKillAnalysis
from repro.analysis.engine import register
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project

__all__ = ["dotted_name", "tail_matches"]

#: Abstract values a variable can hold besides live site ids.
NONE = "none"
OTHER = "other"

Val = int | str
EnvPair = tuple[str, Val]
#: (variable environment, live-site set) — both joined by union.
State = tuple[frozenset[EnvPair], frozenset[int]]


def dotted_name(expr: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def tail_matches(name: str, pattern: str) -> bool:
    """True when ``name``'s dotted tail is ``pattern``."""
    return name == pattern or name.endswith("." + pattern)


def _own_exprs(stmt: ast.AST) -> list[ast.expr]:
    """The expressions evaluated *at* this CFG node — compound statements
    contribute only their header (their bodies are separate nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [
        child for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


def _match_acquire(
    expr: ast.expr,
    specs: tuple[ResourceSpec, ...],
    extra: dict[str, ResourceSpec],
) -> ResourceSpec | None:
    """The resource spec ``expr`` acquires, if it is an acquire call."""
    if not isinstance(expr, ast.Call):
        return None
    name = dotted_name(expr.func)
    if name is None:
        return None
    for spec in specs:
        for pattern in spec.acquire:
            if tail_matches(name, pattern):
                return spec
    return extra.get(name.rsplit(".", 1)[-1])


def _none_branch(test: ast.expr | None, polarity: bool) -> tuple[str, bool] | None:
    """Decode a None-guard: ``(var, var_is_none_on_this_branch)``.

    Understands ``x is None`` / ``x is not None`` / bare ``x`` tests.
    """
    if isinstance(test, ast.Name):
        return (test.id, not polarity)
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return (test.left.id, polarity)
        if isinstance(test.ops[0], ast.IsNot):
            return (test.left.id, not polarity)
    return None


class _LeakAnalysis(ForwardAnalysis[State]):
    """Typestate: which acquire sites may still be live at each point."""

    def __init__(
        self,
        specs: tuple[ResourceSpec, ...],
        extra: dict[str, ResourceSpec],
        borrowers: tuple[str, ...],
        escape_names: frozenset[str] = frozenset(),
    ) -> None:
        self.specs = specs
        self.extra = extra
        self.borrowers = borrowers
        #: names declared global/nonlocal: storing a handle into one
        #: hands ownership to the enclosing scope (handle_break's
        #: ``nonlocal pool`` — the outer generator's finally shuts it
        #: down).
        self.escape_names = escape_names
        #: site id (CFG node id) -> (spec, acquire line)
        self.sites: dict[int, tuple[ResourceSpec, int]] = {}
        self._release_methods: dict[str, list[ResourceSpec]] = {}
        for spec in specs:
            for method in spec.release_methods:
                self._release_methods.setdefault(method, []).append(spec)
        for spec in extra.values():
            for method in spec.release_methods:
                entries = self._release_methods.setdefault(method, [])
                if spec not in entries:
                    entries.append(spec)

    # -- lattice -------------------------------------------------------

    def initial(self) -> State:
        return (frozenset(), frozenset())

    def bottom(self) -> State:
        return (frozenset(), frozenset())

    def join(self, a: State, b: State) -> State:
        return (a[0] | b[0], a[1] | b[1])

    # -- transfer ------------------------------------------------------

    def transfer(self, node: Node, state: State) -> State:
        stmt = node.stmt
        if stmt is None:
            return state
        env: dict[str, set[Val]] = {}
        for var, val in state[0]:
            env.setdefault(var, set()).add(val)
        live = set(state[1])

        # Program order: the RHS (and any call arguments) is evaluated
        # against the *old* bindings — `x = wrap(x)` escapes the old x,
        # not the freshly acquired site — then the assignment binds.
        self._apply_releases(stmt, env, live)
        self._apply_escapes(stmt, env, live)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._transfer_assign(stmt, node, env, live)

        pairs = frozenset(
            (var, val) for var, vals in env.items() for val in vals
        )
        return (pairs, frozenset(live))

    def _transfer_assign(
        self,
        stmt: ast.Assign | ast.AnnAssign | ast.AugAssign,
        node: Node,
        env: dict[str, set[Val]],
        live: set[int],
    ) -> None:
        value = stmt.value
        if value is None:  # annotation-only AnnAssign
            return
        vals = self._eval(value, node, env, live)
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                env[target.id] = set(vals)
                if target.id in self.escape_names:
                    for val in vals:
                        if isinstance(val, int):
                            live.discard(val)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # Unpacking loses tracking: every bound name is opaque.
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        env[element.id] = {OTHER}

    def _eval(
        self,
        expr: ast.expr,
        node: Node,
        env: dict[str, set[Val]],
        live: set[int],
    ) -> set[Val]:
        """Abstract value of an assigned expression; registers acquires."""
        spec = _match_acquire(expr, self.specs, self.extra)
        if spec is not None:
            site = node.id
            self.sites[site] = (spec, expr.lineno)
            live.add(site)
            return {site}
        if isinstance(expr, ast.IfExp):
            return self._eval(expr.body, node, env, live) | self._eval(
                expr.orelse, node, env, live
            )
        if isinstance(expr, ast.Constant) and expr.value is None:
            return {NONE}
        if isinstance(expr, ast.Name):
            return set(env.get(expr.id, {OTHER}))
        return {OTHER}

    def _apply_releases(
        self, stmt: ast.AST, env: dict[str, set[Val]], live: set[int]
    ) -> None:
        for expr in _own_exprs(stmt):
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    specs = self._release_methods.get(func.attr, ())
                    if specs:
                        kinds = {spec.kind for spec in specs}
                        for val in env.get(func.value.id, set()):
                            if (
                                isinstance(val, int)
                                and val in self.sites
                                and self.sites[val][0].kind in kinds
                            ):
                                live.discard(val)
                name = dotted_name(call.func)
                if name is None:
                    continue
                for spec in list(self.specs) + list(self.extra.values()):
                    if any(
                        tail_matches(name, pattern)
                        for pattern in spec.release_calls
                    ):
                        # Singleton release (disable_tracing): clears every
                        # live site of this resource kind.
                        for site in list(live):
                            if self.sites[site][0].kind == spec.kind:
                                live.discard(site)

    def _apply_escapes(
        self, stmt: ast.AST, env: dict[str, set[Val]], live: set[int]
    ) -> None:
        """Ownership transfers: the site is no longer ours to release."""
        escaped_names: list[str] = []
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            escaped_names.extend(self._names_in(stmt.value))
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    escaped_names.extend(self._names_in(stmt.value))
        for expr in _own_exprs(stmt):
            for sub in ast.walk(expr):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    inner = sub.value
                    if inner is not None:
                        escaped_names.extend(self._names_in(inner))
                if not isinstance(sub, ast.Call):
                    continue
                name = dotted_name(sub.func) or ""
                if any(
                    tail_matches(name, borrower)
                    for borrower in self.borrowers
                ):
                    continue  # borrowed, not owned: we still must release
                if isinstance(sub.func, ast.Attribute) and isinstance(
                    sub.func.value, ast.Name
                ):
                    if sub.func.attr in self._release_methods:
                        continue  # the release itself is not an escape
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    escaped_names.extend(self._names_in(arg))
        for var in escaped_names:
            for val in env.get(var, set()):
                if isinstance(val, int):
                    live.discard(val)

    @staticmethod
    def _names_in(expr: ast.expr) -> list[str]:
        return [
            sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)
        ]

    # -- branch refinement ---------------------------------------------

    def refine(
        self, test: ast.expr | None, polarity: bool, state: State
    ) -> State:
        guard = _none_branch(test, polarity)
        if guard is None:
            return state
        var, is_none = guard
        env: dict[str, set[Val]] = {}
        for name, val in state[0]:
            env.setdefault(name, set()).add(val)
        if var not in env:
            return state
        live = set(state[1])
        if is_none:
            removed = {val for val in env[var] if isinstance(val, int)}
            env[var] = {NONE}
            # The guard proves the acquire never happened on this path
            # (the guarded-release idiom); see the module docstring for
            # the alias caveat this accepts.
            live -= removed
        else:
            remaining = env[var] - {NONE}
            if remaining:
                env[var] = remaining
        pairs = frozenset(
            (name, val) for name, vals in env.items() for val in vals
        )
        return (pairs, frozenset(live))


def _acquire_summaries(
    project: Project, specs: tuple[ResourceSpec, ...]
) -> dict[str, ResourceSpec]:
    """One-level summaries: functions whose return *is* an acquire."""
    graph = build_call_graph(project)
    out: dict[str, ResourceSpec] = {}
    for fn in graph.functions.values():
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                spec = _match_acquire(sub.value, specs, {})
                if spec is not None:
                    out[fn.node.name] = spec
    return out


@register(
    "lifecycle/leak",
    "every acquired resource (shm segment, payload, pool, tracer) must be "
    "released, returned, or handed off on every CFG path, including "
    "exception edges",
    Severity.ERROR,
)
def check_leaks(project: Project, config: LintConfig) -> Iterator[Finding]:
    specs = config.lifecycle_resources
    extra = _acquire_summaries(project, specs)
    for info in project.modules:
        for qualname, cfg in function_cfgs(info.tree):
            declared: set[str] = set()
            for sub in ast.walk(cfg.func):
                if isinstance(sub, (ast.Global, ast.Nonlocal)):
                    declared.update(sub.names)
            analysis = _LeakAnalysis(
                specs, extra, config.lifecycle_borrowers, frozenset(declared)
            )
            states = analysis.solve(cfg)
            leaked = (
                states[cfg.exit][1] | states[cfg.raise_exit][1]
            )
            for site in sorted(leaked):
                spec, line = analysis.sites[site]
                via = []
                if site in states[cfg.exit][1]:
                    via.append("return")
                if site in states[cfg.raise_exit][1]:
                    via.append("exception")
                yield Finding(
                    rule="lifecycle/leak",
                    severity=Severity.ERROR,
                    path=info.rel_path,
                    line=line,
                    message=(
                        f"{spec.kind} acquired in {qualname} may never be "
                        f"released on a path to {'/'.join(via)} exit"
                    ),
                    hint=(
                        "release in a finally; if the handle is conditional, "
                        "bind it to a separate variable initialised to None "
                        "and guard the release with 'is not None' "
                        "(see repro.eval.runner)"
                    ),
                )


class _FsyncAnalysis(GenKillAnalysis):
    """MUST-availability of an ``os.fsync`` along every incoming path."""

    FACT = "fsync"

    def __init__(self) -> None:
        super().__init__(mode=MUST, universe=frozenset({self.FACT}))

    def gen(self, node: Node) -> frozenset:
        if node.stmt is not None and _node_calls(node.stmt, "os.fsync"):
            return frozenset({self.FACT})
        return frozenset()


def _node_calls(stmt: ast.AST, pattern: str) -> bool:
    for expr in _own_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name is not None and tail_matches(name, pattern):
                    return True
    return False


def _opens_for_write(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for sub in ast.walk(func):
        if not (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "open"
        ):
            continue
        mode: ast.expr | None = None
        if len(sub.args) >= 2:
            mode = sub.args[1]
        for kw in sub.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(ch in mode.value for ch in "wxa")
        ):
            return True
    return False


@register(
    "lifecycle/fsync-before-rename",
    "in functions that write files, os.replace must be preceded by "
    "os.fsync on every path (rename-without-fsync loses the write on "
    "power failure)",
    Severity.ERROR,
)
def check_fsync_before_rename(
    project: Project, config: LintConfig
) -> Iterator[Finding]:
    for info in project.modules:
        for qualname, cfg in function_cfgs(info.tree):
            if not _opens_for_write(cfg.func):
                continue
            replace_nodes = [
                node
                for node in cfg.nodes
                if node.stmt is not None
                and _node_calls(node.stmt, "os.replace")
            ]
            if not replace_nodes:
                continue
            states = _FsyncAnalysis().solve(cfg)
            for node in replace_nodes:
                if _FsyncAnalysis.FACT not in states[node.id]:
                    yield Finding(
                        rule="lifecycle/fsync-before-rename",
                        severity=Severity.ERROR,
                        path=info.rel_path,
                        line=node.line,
                        message=(
                            f"os.replace in {qualname} is reachable without "
                            "an os.fsync of the written file"
                        ),
                        hint="flush and os.fsync(handle.fileno()) before "
                             "renaming (see write_json_atomic)",
                    )

"""``lock-order``: a static acquisition graph over the stack's locks.

The repo holds ~20 ``threading.Lock``/``RLock`` (plus asyncio lock)
attributes — the service cache, the stream reader, executor
registries.  Deadlock needs only two of them acquired in
opposite orders on two threads, and nothing today would notice the
inversion until a chaos run hangs.

Per module this rule resolves ``with <lock>:`` statements to lock
*identities* (module globals, function locals, ``self.<attr>``
assignments of ``threading.Lock()``/``RLock()``/``asyncio.Lock()``)
and records:

* **nesting edges** — ``with A: ... with B:`` adds the edge A→B; a
  one-hop intra-class call (``with A: self.m()`` where ``m`` takes B)
  adds A→B too;
* **self-edges** on a non-reentrant ``Lock`` (immediate deadlock);
* **blocking calls under a held lock** — ``.recv()``, ``.recv_into()``,
  ``.accept()``, ``.result()``, ``.join()`` executed while holding a
  threading lock stall every sibling of that lock for the full wait.

The whole-program pass then flags every cycle in the union graph as a
lock-order inversion.  Code *defined* inside a ``with`` block (nested
``def``/``lambda``) runs later and is excluded from nesting and
blocking checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..core import Finding, ModuleInfo, Project, Rule, ancestors, enclosing_class, enclosing_function

_BLOCKING = ("recv", "recv_into", "accept", "result", "join")


@dataclass(frozen=True)
class LockDef:
    ident: str  # "module:Class.attr" | "module:func.name" | "module:name"
    kind: str  # "Lock" | "RLock" | "asyncio.Lock"


def _lock_kind(value: ast.AST) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    f = value.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        if f.value.id == "threading" and f.attr in ("Lock", "RLock"):
            return f.attr
        if f.value.id == "asyncio" and f.attr == "Lock":
            return "asyncio.Lock"
    if isinstance(f, ast.Name) and f.id in ("Lock", "RLock"):
        return f.id
    return None


def _walk_same_frame(node: ast.AST):
    """Walk ``node`` without descending into nested function bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(n))


class _ModuleLocks:
    """Lock definitions and ``with``-resolution for one module."""

    def __init__(self, mod: ModuleInfo):
        self.mod = mod
        self.module_level: dict[str, LockDef] = {}
        self.class_attrs: dict[tuple[str, str], LockDef] = {}
        self.func_locals: dict[tuple[str, str], LockDef] = {}
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            kind = _lock_kind(node.value)
            if kind is None:
                continue
            target = node.targets[0]
            func = enclosing_function(node)
            cls = enclosing_class(node)
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id == "self" and cls is not None:
                    ident = f"{mod.modname}:{cls.name}.{target.attr}"
                    self.class_attrs[(cls.name, target.attr)] = LockDef(ident, kind)
            elif isinstance(target, ast.Name):
                if func is not None:
                    ident = f"{mod.modname}:{func.name}.{target.id}"
                    self.func_locals[(func.name, target.id)] = LockDef(ident, kind)
                else:
                    ident = f"{mod.modname}:{target.id}"
                    self.module_level[target.id] = LockDef(ident, kind)

    def resolve(self, expr: ast.AST, site: ast.AST) -> LockDef | None:
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self":
                cls = enclosing_class(site)
                if cls is not None:
                    return self.class_attrs.get((cls.name, expr.attr))
            return None
        if isinstance(expr, ast.Name):
            func = enclosing_function(site)
            if func is not None:
                hit = self.func_locals.get((func.name, expr.id))
                if hit is not None:
                    return hit
            return self.module_level.get(expr.id)
        return None

    def held_locks(self, with_node: ast.AST) -> list[LockDef]:
        out = []
        for item in with_node.items:
            lock = self.resolve(item.context_expr, with_node)
            if lock is not None:
                out.append(lock)
        return out

    def method_locks(self, cls_name: str) -> dict[str, list[LockDef]]:
        """method name -> locks it acquires (for the one-hop edges)."""
        out: dict[str, list[LockDef]] = {}
        for node in ast.walk(self.mod.tree):
            if isinstance(node, ast.ClassDef) and node.name == cls_name:
                for meth in node.body:
                    if not isinstance(
                        meth, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    acquired = []
                    for sub in ast.walk(meth):
                        if isinstance(sub, (ast.With, ast.AsyncWith)):
                            acquired.extend(self.held_locks(sub))
                    out[meth.name] = acquired
        return out


class LockOrderRule(Rule):
    name = "lock-order"
    summary = (
        "the static lock-acquisition graph is cycle-free, non-reentrant "
        "locks are never re-taken, and nothing blocks (recv/result/join) "
        "under a held lock"
    )

    def __init__(self):
        #: (outer ident, inner ident) -> (relpath, line) of first sighting
        self.edges: dict[tuple[str, str], tuple[str, int]] = {}

    def check_module(self, mod: ModuleInfo, project: Project):
        locks = _ModuleLocks(mod)
        method_cache: dict[str, dict[str, list[LockDef]]] = {}
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            held = locks.held_locks(node)
            if not held:
                continue
            # nesting edges against every ancestor with-lock
            outer: list[LockDef] = []
            for anc in ancestors(node):
                if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break  # a nested def runs outside the outer critical section
                if isinstance(anc, (ast.With, ast.AsyncWith)):
                    outer.extend(locks.held_locks(anc))
            for o in outer:
                for h in held:
                    if o.ident == h.ident:
                        if o.kind == "Lock":
                            yield Finding(
                                rule=self.name,
                                relpath=mod.relpath,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"non-reentrant Lock {o.ident} re-acquired "
                                    "while already held — immediate deadlock"
                                ),
                            )
                        continue
                    self.edges.setdefault(
                        (o.ident, h.ident), (mod.relpath, node.lineno)
                    )
            # one-hop: with A: self.m() where m takes other locks
            cls = enclosing_class(node)
            if cls is not None:
                methods = method_cache.setdefault(
                    cls.name, locks.method_locks(cls.name)
                )
                for sub in _walk_same_frame(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "self"
                    ):
                        for h in held:
                            for inner in methods.get(sub.func.attr, ()):
                                if inner.ident == h.ident:
                                    if h.kind == "Lock":
                                        yield Finding(
                                            rule=self.name,
                                            relpath=mod.relpath,
                                            line=sub.lineno,
                                            col=sub.col_offset,
                                            message=(
                                                f"self.{sub.func.attr}() re-takes "
                                                f"non-reentrant Lock {h.ident} "
                                                "already held here — deadlock"
                                            ),
                                        )
                                else:
                                    self.edges.setdefault(
                                        (h.ident, inner.ident),
                                        (mod.relpath, sub.lineno),
                                    )
            # blocking calls while holding a threading lock
            if any(h.kind in ("Lock", "RLock") for h in held):
                for sub in _walk_same_frame(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _BLOCKING
                    ):
                        held_names = ", ".join(h.ident for h in held)
                        yield Finding(
                            rule=self.name,
                            relpath=mod.relpath,
                            line=sub.lineno,
                            col=sub.col_offset,
                            message=(
                                f".{sub.func.attr}() can block while holding "
                                f"{held_names} — every thread needing the lock "
                                "stalls for the full wait; move the blocking "
                                "call outside the critical section or justify"
                            ),
                        )

    def finalize(self, project: Project):
        graph: dict[str, set[str]] = {}
        for a, b in self.edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        seen_cycles: set[frozenset[str]] = set()
        state: dict[str, int] = {}
        stack: list[str] = []

        cycles: list[list[str]] = []

        def dfs(v: str) -> None:
            state[v] = 1
            stack.append(v)
            for w in sorted(graph[v]):
                if state.get(w, 0) == 0:
                    dfs(w)
                elif state.get(w) == 1:
                    cyc = stack[stack.index(w):] + [w]
                    key = frozenset(cyc)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(cyc)
            stack.pop()
            state[v] = 2

        for v in sorted(graph):
            if state.get(v, 0) == 0:
                dfs(v)

        for cyc in cycles:
            first_edge = (cyc[0], cyc[1])
            relpath, line = self.edges.get(first_edge, ("<unknown>", 1))
            locs = []
            for a, b in zip(cyc, cyc[1:]):
                ep = self.edges.get((a, b))
                if ep:
                    locs.append(f"{a} -> {b} at {ep[0]}:{ep[1]}")
            yield Finding(
                rule=self.name,
                relpath=relpath,
                line=line,
                col=0,
                message=(
                    "lock-order inversion — the acquisition graph has the "
                    "cycle " + " ; ".join(locs) + "; pick one global order"
                ),
            )

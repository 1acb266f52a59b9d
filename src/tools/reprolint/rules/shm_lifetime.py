"""``shm-lifetime``: every staged shared-memory segment must reach a
release on all paths.

A ``SharedMemory`` segment is a named kernel object: if the staging
process raises between creation and ``close``/``unlink``, the segment
outlives the process and ``/dev/shm`` fills up run over run.  No
staging site may outlive its function: the one production site,
``ProcessExecutor.map_shared``, creates and destroys its segment inside
one ``try``/``finally``, and this rule holds any new site to the same.

A call to ``share_array``/``share_bytes`` (or a raw
``SharedMemory(create=True)``) passes when a ``try``/``finally`` whose
``finally`` block calls one of ``destroy``/``close``/``unlink``/
``shutdown`` covers it — either the call sits inside the ``try`` body,
or the cleanup's ``try`` starts on a later line of the same function
(the ``stage; try: ... finally: block.destroy()`` idiom).

``repro/parallel/shm.py`` itself (the primitive layer) is exempt.
"""

from __future__ import annotations

import ast

from ..core import Finding, ModuleInfo, Project, Rule, ancestors, enclosing_function

_STAGING = ("share_array", "share_bytes")
_RELEASERS = ("destroy", "close", "unlink", "shutdown")


def _staging_label(call: ast.Call) -> str | None:
    f = call.func
    if isinstance(f, ast.Name) and f.id in _STAGING:
        return f.id
    if isinstance(f, ast.Attribute) and f.attr in _STAGING:
        return f.attr
    name = None
    if isinstance(f, ast.Name):
        name = f.id
    elif isinstance(f, ast.Attribute):
        name = f.attr
    if name == "SharedMemory":
        for kw in call.keywords:
            if (
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return "SharedMemory(create=True)"
    return None


def _finally_releases(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                f = node.func
                attr = f.attr if isinstance(f, ast.Attribute) else None
                nm = f.id if isinstance(f, ast.Name) else None
                if attr in _RELEASERS or nm in _RELEASERS:
                    return True
    return False


def _covered(call: ast.Call, scope: ast.AST) -> bool:
    # inside the body of a try whose finally releases?
    for anc in ancestors(call):
        if isinstance(anc, ast.Try) and _finally_releases(anc):
            return True
        if anc is scope:
            break
    # the stage-then-try idiom: a releasing try later in the same scope
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Try)
            and node.lineno >= call.lineno
            and _finally_releases(node)
        ):
            return True
    return False


class ShmLifetimeRule(Rule):
    name = "shm-lifetime"
    summary = (
        "every SharedMemory(create=True)/share_* staging reaches a "
        "close/unlink in a finally of the function that staged it"
    )
    exclude = ("src/repro/parallel/shm.py",)

    def check_module(self, mod: ModuleInfo, project: Project):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            label = _staging_label(node)
            if label is None:
                continue
            scope = enclosing_function(node) or mod.tree
            if _covered(node, scope):
                continue
            yield Finding(
                rule=self.name,
                relpath=mod.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{label} stages a shared-memory segment with no "
                    "covering finally that releases it — an exception here "
                    "leaks the segment (/dev/shm fills up); add "
                    "try/finally block.destroy()"
                ),
            )

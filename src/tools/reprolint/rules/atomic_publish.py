"""``atomic-publish``: no torn files in the stream/storage layer.

PR 6 closed the torn-manifest window by funnelling every stream-layer
publish through ``atomic_publish`` (unique temp + ``os.replace``, crash
points, corruption site).  One raw ``open(path, "wb")`` in
``repro/io/`` reopens that window: a crash mid ``write()`` leaves a
half-file under the *final* name, which readers then have to treat as
corruption rather than absence.

Inside ``src/repro/io/`` every file-creating write — ``open`` with a
``w``/``a``/``x``/``+`` mode, ``os.fdopen`` likewise, or
``Path.write_bytes``/``write_text`` — must sit in the publish primitive
itself.  A private temp-write + ``os.replace`` copy is flagged like any
other write: it has no crash points and no stale-temp discipline.
Read-only opens are exempt.
"""

from __future__ import annotations

import ast

from ..core import Finding, ModuleInfo, Project, Rule, enclosing_function

_WRITE_CHARS = set("wax+")
_PUBLISH_FUNCS = {"_atomic_publish", "atomic_publish"}


def _write_mode(call: ast.Call, mode_pos: int) -> str | None:
    """The mode string of an ``open``-style call if it writes, else None."""
    mode = None
    if len(call.args) > mode_pos:
        a = call.args[mode_pos]
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            mode = a.value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, str):
                mode = kw.value.value
    if mode is not None and _WRITE_CHARS & set(mode):
        return mode
    return None


def _writing_call(node: ast.Call) -> str | None:
    """A human label when ``node`` creates/overwrites a file."""
    f = node.func
    if isinstance(f, ast.Name) and f.id == "open":
        mode = _write_mode(node, 1)
        if mode is not None:
            return f"open(..., {mode!r})"
    if isinstance(f, ast.Attribute):
        if f.attr == "fdopen" and isinstance(f.value, ast.Name) and f.value.id == "os":
            mode = _write_mode(node, 1)
            if mode is not None:
                return f"os.fdopen(..., {mode!r})"
        if f.attr in ("write_bytes", "write_text"):
            return f".{f.attr}(...)"
    return None


class AtomicPublishRule(Rule):
    name = "atomic-publish"
    summary = (
        "file-creating writes under repro/io/ must go through "
        "atomic_publish, the one temp-write + os.replace primitive"
    )
    paths = ("src/repro/io/*",)

    def check_module(self, mod: ModuleInfo, project: Project):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            label = _writing_call(node)
            if label is None:
                continue
            func = enclosing_function(node)
            if func is not None and func.name in _PUBLISH_FUNCS:
                continue
            yield Finding(
                rule=self.name,
                relpath=mod.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{label} writes outside the publish primitive — a "
                    "crash mid-write leaves a torn file (or an untracked "
                    "temp); route through repro.io.publish.atomic_publish"
                ),
            )

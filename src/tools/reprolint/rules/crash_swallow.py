"""``crash-swallow``: broad handlers must not absorb a simulated kill.

:class:`repro.faults.InjectedCrash` derives from ``BaseException``
precisely so that recovery code catching ``Exception`` cannot survive a
simulated ``kill -9``.  That design has exactly one blind spot: an
``except BaseException`` (or bare ``except``) that neither re-raises
nor hands the exception on.  One such handler quietly converts a
simulated death into a success path and the whole crash matrix tests
less than it claims.

A broad handler passes when it provably propagates the exception:

* a ``raise`` anywhere in its body (re-raise or wrap), or
* ``fut.set_exception(...)`` — the executor/service idiom that mirrors
  the exception into a future the caller re-raises from, or
* ``os._exit(...)`` — actually dying is the most faithful handling of
  a simulated kill.

Handlers that intentionally *record* the exception for a supervising
host must carry a justification suppression.
"""

from __future__ import annotations

import ast

from ..core import Finding, ModuleInfo, Project, Rule

_BROAD = "BaseException"


def _is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True  # bare except
    if isinstance(t, ast.Name):
        return t.id == _BROAD
    if isinstance(t, ast.Tuple):
        return any(isinstance(e, ast.Name) and e.id == _BROAD for e in t.elts)
    return False


def _propagates(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "set_exception":
                return True
            if isinstance(f, ast.Attribute) and f.attr == "_exit":
                if isinstance(f.value, ast.Name) and f.value.id == "os":
                    return True
    return False


class CrashSwallowRule(Rule):
    name = "crash-swallow"
    summary = (
        "no 'except BaseException'/bare 'except' may absorb InjectedCrash "
        "without re-raising, mirroring to a future, or dying"
    )

    def check_module(self, mod: ModuleInfo, project: Project):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _propagates(node):
                continue
            what = "bare 'except:'" if node.type is None else "'except BaseException'"
            yield Finding(
                rule=self.name,
                relpath=mod.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{what} swallows InjectedCrash (a simulated kill -9 "
                    "survives as a success path): re-raise, narrow to "
                    "Exception, mirror with set_exception(), or justify"
                ),
            )

"""``determinism``: byte-identity paths stay byte-deterministic.

The codec's headline contract is that every backend and every executor
emits **byte-identical** containers — asserted all over the test suite
with ``.tobytes()`` comparisons.  That contract dies quietly the moment
an encode path consults a wall clock, an unseeded RNG, or the iteration
order of a ``set``.  This rule bans the syntactic forms inside the
byte-identity packages (``repro/compress/``, ``repro/kernels/``):

* ``time.time()`` / ``time.time_ns()`` and ``datetime.now``/``utcnow``
  — absolute wall-clock values must never feed encoded bytes;
* stdlib ``random.*`` and unseeded NumPy RNGs (``np.random.default_rng``
  with no constant seed, legacy ``np.random.rand``/``seed``/...);
* iteration over a ``set`` literal / ``set()`` / ``frozenset()``
  (``for``-loops and comprehensions) — hash-order-dependent output.

``perf_counter``/``monotonic`` stay legal: *duration* measurement is a
sanctioned idiom throughout (``StageTimes``, ``measure_backend_times``,
the pipeline's stage clocks) and the backends it arbitrates between are proven
bit-identical, so elapsed time never reaches encoded bytes.
"""

from __future__ import annotations

import ast

from ..core import Finding, ModuleInfo, Project, Rule

_CLOCK_ATTRS = ("time", "time_ns")
_DATETIME_ATTRS = ("now", "utcnow", "today")
_SET_CALLS = ("set", "frozenset")


def _np_random_chain(func: ast.AST) -> str | None:
    """'default_rng' / 'rand' / ... for np.random.<attr> calls."""
    if not isinstance(func, ast.Attribute):
        return None
    v = func.value
    if (
        isinstance(v, ast.Attribute)
        and v.attr == "random"
        and isinstance(v.value, ast.Name)
        and v.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _is_set_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in _SET_CALLS
    return False


class DeterminismRule(Rule):
    name = "determinism"
    summary = (
        "no wall clock, unseeded RNG, or set-iteration in the "
        "byte-identity packages (repro/compress, repro/kernels)"
    )
    paths = ("src/repro/compress/*", "src/repro/kernels/*")

    def check_module(self, mod: ModuleInfo, project: Project):
        random_names: set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                random_names.update(a.asname or a.name for a in node.names)

        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "time"
                    and f.attr in _CLOCK_ATTRS
                ):
                    yield Finding(
                        rule=self.name,
                        relpath=mod.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"time.{f.attr}() in a byte-identity path — "
                            "wall-clock values are nondeterministic input; "
                            "thread timestamps in from the caller if needed"
                        ),
                    )
                elif (
                    isinstance(f, ast.Attribute)
                    and f.attr in _DATETIME_ATTRS
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("datetime", "date")
                ):
                    yield Finding(
                        rule=self.name,
                        relpath=mod.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"datetime.{f.attr}() in a byte-identity path — "
                            "wall-clock values are nondeterministic input; "
                            "thread timestamps in from the caller if needed"
                        ),
                    )
                elif (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "random"
                ) or (isinstance(f, ast.Name) and f.id in random_names):
                    what = f.attr if isinstance(f, ast.Attribute) else f.id
                    yield Finding(
                        rule=self.name,
                        relpath=mod.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"stdlib random.{what}() in a byte-identity path — "
                            "draws from ambient process state; use a seeded "
                            "np.random.default_rng passed in by the caller"
                        ),
                    )
                else:
                    nprand = _np_random_chain(f)
                    if nprand == "default_rng":
                        seeded = bool(node.args) and all(
                            isinstance(a, ast.Constant) for a in node.args
                        )
                        if not seeded:
                            yield Finding(
                                rule=self.name,
                                relpath=mod.relpath,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    "np.random.default_rng() without a "
                                    "constant seed in a byte-identity path — "
                                    "output bytes change run to run"
                                ),
                            )
                    elif nprand is not None:
                        yield Finding(
                            rule=self.name,
                            relpath=mod.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"np.random.{nprand}() uses the global NumPy "
                                "RNG state in a byte-identity path — use a "
                                "seeded np.random.default_rng(<const>)"
                            ),
                        )
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield Finding(
                    rule=self.name,
                    relpath=mod.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "iteration over a set in a byte-identity path — "
                        "order is hash-seed dependent; iterate a sorted() "
                        "or a list/tuple instead"
                    ),
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield Finding(
                            rule=self.name,
                            relpath=mod.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                "comprehension over a set in a byte-identity "
                                "path — order is hash-seed dependent; use "
                                "sorted() or a stable sequence"
                            ),
                        )

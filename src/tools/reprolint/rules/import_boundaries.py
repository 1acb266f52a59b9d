"""``import-boundary``: the layering contracts of the package graph.

Eleven boundaries, each introduced by an earlier PR and otherwise
enforced only by convention:

* **numba** is imported exclusively through ``repro/kernels/jit.py``
  (what is left of PR 7's guard: the ``HAVE_NUMBA`` probe the frozen
  end-to-end benchmark reads).  A stray ``import numba`` anywhere else
  breaks numba-less installs.
* ``repro.compress`` must not import ``repro.io`` — PR 6 broke the
  io↔compress cycle by hoisting the shared error root to
  ``repro/errors.py``; a new back-edge would silently reintroduce it.
* ``repro.service`` must not import ``repro.experiments`` — the
  service is a library layer, experiments are its consumers.
* ``repro.core``, ``repro.compress`` and ``repro.io`` must not import
  ``repro.service`` — the service serves the stack, the stack does not
  reach up into it; what both need (the LRU) lives in ``repro/cache.py``.
* ``tools`` must not import ``repro`` — the linter analyzes the tree
  statically and has to keep working when the library is broken.
* ``repro`` must not import ``scipy`` — the correction solve is the
  batch-vectorized Thomas sweep of ``repro/core/solver.py``; SciPy is a
  test/benchmark dependency only, and a per-right-hand-side LAPACK solve
  must not grow back into the refactoring path.
* ``repro.core`` must not import ``repro.kernels`` or ``repro.gpu`` —
  the arithmetic knows nothing of launch records or cost models; they
  walk its shapes (``iter_decompose_launches``), it never calls them.
* ``repro.compress.executor``, ``repro.cluster.simmpi`` (re-export
  shims), ``repro.cluster.fabric`` (the SPMD fabric: a second
  process substrate with no production caller), ``repro.parallel.shm``
  and :mod:`multiprocessing.shared_memory` (staging a whole operand for
  the process pool, when every job reads only its own slice),
  ``repro.compress.plan`` (a second setup cache over ``hierarchy_for``)
  and ``repro.cluster.partition`` (a second partitioner, by a modelled
  memory budget; ``plan_shards`` is the one partitioning) are gone and must not be imported back into being — not even by
  ``repro.parallel``.

* Nothing under ``repro`` outside ``repro.parallel`` imports
  :mod:`multiprocessing` — there is one process substrate, and a
  fan-out that forks for itself has started asking which executor it
  was handed.

* ``repro.io`` and ``repro.compress`` must not import :mod:`struct` —
  the container frame (magic, length word, JSON header, extent table)
  is packed and parsed by ``repro/frame.py`` alone; a second parser
  growing back in either package is how four of them drifted apart.

* Only ``repro.core.native`` imports :mod:`ctypes` — the compiled
  kernels have one loader (cache directory, ownership check, seal,
  self-check) and one place where pointers are handed to C; a second
  ``CDLL`` elsewhere would skip all of it.

Relative imports are resolved against the importing module's package
before matching, and ``from pkg import name`` also counts as an import
of ``pkg.name``.
"""

from __future__ import annotations

import ast

from ..core import Finding, ModuleInfo, Project, Rule

#: (importer prefix, forbidden import prefix, why[, the one package under
#: the importer prefix that is exempt — the owner of what the row fences])
FORBIDDEN = (
    (
        "repro.compress",
        "repro.io",
        "the io<->compress cycle was broken via repro.errors (PR 6); "
        "share code through repro.errors or a lower layer",
    ),
    (
        "repro.service",
        "repro.experiments",
        "the service layer is imported by experiments, never the reverse",
    ),
    *(
        (pkg, "repro.service", "the service is the top layer; share code "
         "through a leaf module (repro.cache, repro.errors, repro.frame)")
        for pkg in ("repro.core", "repro.compress", "repro.io")
    ),
    (
        "tools",
        "repro",
        "the linter must analyze the tree without importing it",
    ),
    (
        "repro",
        "scipy",
        "the library is NumPy-only (SciPy is a test extra); solve with "
        "repro.core.solver.thomas_solve, not per-RHS LAPACK",
    ),
    (
        "repro.core",
        "repro.kernels",
        "the arithmetic is below the kernel frameworks and the launch "
        "model; they import repro.core, never the reverse",
    ),
    (
        "repro.core",
        "repro.gpu",
        "cost modelling walks shapes (repro.kernels.launches -> "
        "repro.gpu.analytic.model_pass); the arithmetic never calls it",
    ),
    (
        "repro",
        "repro.compress.executor",
        "the shim is deleted; import repro.parallel.executors",
    ),
    (
        "repro",
        "repro.compress.plan",
        "the plan cache is deleted; hierarchy_for is the one setup cache",
    ),
    (
        "repro",
        "repro.cluster.partition",
        "the memory-budget partitioner is deleted; plan_shards is the one partitioning",
    ),
    *(
        ("repro", gone, "the SPMD fabric and its shim are deleted; partitions "
         "are executor jobs (repro.parallel.get_executor(...).map)")
        for gone in ("repro.cluster.simmpi", "repro.cluster.fabric")
    ),
    *(
        ("repro", gone, "the shared-memory staging is deleted; jobs take "
         "their own slices: fan out through executor.map")
        for gone in ("repro.parallel.shm", "multiprocessing.shared_memory")
    ),
    (
        "repro",
        "multiprocessing",
        "repro.parallel is the one process substrate; fan out through "
        "executor.map",
        "repro.parallel",
    ),
    *(
        (pkg, "struct", "repro.frame is the one container-frame "
         "packer/parser; emit and parse through it")
        for pkg in ("repro.io", "repro.compress")
    ),
    *(
        ("repro", target, "repro.core.native is the one loader of compiled "
         "code; call its wrappers", "repro.core.native")
        for target in ("ctypes", "_ctypes")
    ),
)

_JIT_GUARD = "repro.kernels.jit"


def _under(modname: str, prefix: str) -> bool:
    return modname == prefix or modname.startswith(prefix + ".")


def _resolve(mod: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute target of an ImportFrom (handles relative levels)."""
    if node.level == 0:
        return node.module or ""
    parts = mod.modname.split(".")
    # a package's __init__ is the package itself; a module's level-1
    # base is its parent package
    drop = node.level if not mod.is_package_init else node.level - 1
    base = parts[: len(parts) - drop] if drop else parts
    target = ".".join(base)
    if node.module:
        target = f"{target}.{node.module}" if target else node.module
    return target


class ImportBoundaryRule(Rule):
    name = "import-boundary"
    summary = (
        "numba only via repro.kernels.jit; no compress->io or "
        "service->experiments edges; core/compress/io never import "
        "service; tools never imports repro; "
        "repro never imports scipy; core never imports kernels/gpu; "
        "the deleted executor/simmpi shims, the SPMD fabric and the "
        "shared-memory staging stay deleted; only repro.parallel imports "
        "multiprocessing; only repro.frame packs or parses "
        "container frames (no struct under repro.io / repro.compress); "
        "only repro.core.native imports ctypes"
    )
    paths = ("src/*", "src/*/*", "src/*/*/*")

    def check_module(self, mod: ModuleInfo, project: Project):
        for node in ast.walk(mod.tree):
            # each entry: (the module names one imported thing may be, stmt)
            if isinstance(node, ast.Import):
                targets = [((a.name,), node) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _resolve(mod, node)
                if not base:
                    continue
                targets = [((base, *(f"{base}.{a.name}" for a in node.names)), node)]
            else:
                continue
            for names, stmt in targets:
                if any(_under(t, "numba") for t in names) and mod.modname != _JIT_GUARD:
                    yield Finding(
                        rule=self.name,
                        relpath=mod.relpath,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            "numba must be imported only through "
                            "repro.kernels.jit (the HAVE_NUMBA probe); the "
                            "compiled backend is repro.core.native"
                        ),
                    )
                    continue
                for src_prefix, dst_prefix, why, *owner in FORBIDDEN:
                    if owner and _under(mod.modname, owner[0]):
                        continue
                    hit = next((t for t in names if _under(t, dst_prefix)), None)
                    if hit is not None and _under(mod.modname, src_prefix):
                        yield Finding(
                            rule=self.name,
                            relpath=mod.relpath,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            message=(
                                f"forbidden import edge {mod.modname} -> "
                                f"{hit}: {why}"
                            ),
                        )
                        break  # one finding per import, the first row's

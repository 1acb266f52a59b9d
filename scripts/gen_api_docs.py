#!/usr/bin/env python
"""Regenerate docs/api.md from the live package's __all__ exports."""

import importlib
import inspect
import io
import pathlib

MODULES = [
    "repro", "repro.core", "repro.core.native", "repro.kernels", "repro.kernels.launcher",
    "repro.gpu", "repro.cluster",
    "repro.compress", "repro.parallel", "repro.io", "repro.io.scrub",
    "repro.service",
    "repro.cache", "repro.faults", "repro.frame", "repro.workloads", "repro.analysis",
    "repro.experiments",
    "tools.reprolint",
]

# hand-written context emitted after a module's docstring line
NOTES = {
    "repro.core": """\
`decompose` / `recompose` are plain functions over two level steps each
way: `coefficients.compute_coefficients` / `restore_from_coefficients`
and `correction.restrict_and_correct` / `subtract_correction` (the coarse
values plus, or minus, `compute_correction` — `transfer.mass_transfer_apply`,
the `R·M` stencil at the coarse nodes, float64, and `solver.thomas_solve`
per coarsening axis); modeled times come from `repro.gpu.model_pass`, never
from the functional run.  `mass_apply` and `transfer_apply` remain as the
dense-tested definitions of `M` and `R` (the oracle of the stencil's
tests); the drivers never call them.  Each level step runs in C, plane by
plane along the level's first coarsening axis, when `repro.core.native`
has its library loaded (`REPRO_KERNEL_BACKEND = reference | native |
auto`); the results are bit-identical.  The same
library holds the entropy stage's integer loops — the decode walk
(`huff_decode`), the segment encode — histogram, reuse guard, book build
and codes in one call (`huff_segment`) — and the code-length merge
(`huff_lengths`) — taken from inside `repro.compress.huffman_*`.
""",
    "repro.parallel": """\
Backend selection (`get_executor(spec)` / `REPRO_EXECUTOR` /
`repro-bench --executor`); every backend emits byte-identical
containers:

| spec | backend | concurrency |
|---|---|---|
| `serial` | `SerialExecutor` | none — the byte-for-byte reference |
| `thread[:N]` (alias `parallel`) | `ThreadExecutor` | shared thread pool; overlaps GIL-releasing kernels |
| `process[:N]` | `ProcessExecutor` | process pool; each job pickles only its own slice; unlocks GIL-bound work |
| `auto` | thread when >1 core, else serial | — |

Every backend has the same one fan-out method, `map(fn, *iterables)` —
`fn(*args)` once per job, in order.  A job that works on part of a
buffer is handed its own slice as an ndarray view, and no call site
asks which backend it holds.
""",
    "repro.frame": """\
`magic (6 B) | header length (<Q) | JSON header | extents` — the frame
of all three container formats; `TABLES` maps each magic to (header key
of its extent table, what a row is called): `RPRC` → `classes`/`class`,
`RPSH` → `shards`/`shard`, `RPMG` → `extents`/`payload`.  See "On-disk
formats" in DESIGN.md.
""",
    "tools.reprolint": """\
The `repro-lint` console script (`tools.reprolint.cli:main`).  Six
rules: `fault-site`, `crash-swallow`, `atomic-publish`,
`import-boundary`, `lock-order`, `determinism` — see the "Static
invariants" section of DESIGN.md.  Stdlib-only; never imports `repro`.
""",
}


def main() -> None:
    out = io.StringIO()
    out.write("# Public API index\n\n")
    out.write("Generated from the live package (every name in each module's\n")
    out.write("`__all__`, with its docstring's first line).  Regenerate with\n")
    out.write("`python scripts/gen_api_docs.py`.\n")
    for modname in MODULES:
        mod = importlib.import_module(modname)
        out.write(f"\n## `{modname}`\n\n")
        doc = (inspect.getdoc(mod) or "").split("\n")[0]
        if doc:
            out.write(doc + "\n\n")
        if modname in NOTES:
            out.write(NOTES[modname] + "\n")
        out.write("| name | kind | summary |\n|---|---|---|\n")
        for name in sorted(getattr(mod, "__all__", []), key=str.lower):
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj):
                kind = "function"
            elif callable(obj):
                kind = "callable"
            else:
                kind = type(obj).__name__
            summary = (inspect.getdoc(obj) or "").split("\n")[0].replace("|", "\\|")
            out.write(f"| `{name}` | {kind} | {summary} |\n")
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(out.getvalue())
    print(f"wrote {target}")


if __name__ == "__main__":
    main()

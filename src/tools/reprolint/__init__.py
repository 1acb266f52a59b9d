"""``repro-lint``: whole-program static checks for the repo's contracts.

PRs 6–9 built the stack's reliability story on *conventions* — named
fault sites, ``_atomic_publish``-only stream writes, the
``kernels/jit.py`` numba guard, ``InjectedCrash`` escaping
``except Exception``.  This package proves those conventions
statically, on every push: a small AST-based analysis framework
(:mod:`tools.reprolint.core`) plus six repo-specific rules
(:mod:`tools.reprolint.rules`), wired into CI as the ``lint`` job and
installed as the ``repro-lint`` console script.

The linter never imports ``repro`` (enforced by its own
``import-boundary`` rule): a tree broken at runtime still lints.

Quick start::

    repro-lint                   # lint src/ (human output)
    repro-lint --json src tests  # what CI runs
    repro-lint --list-rules
    repro-lint --write-registry  # refresh the fault-site registry

Suppress a finding only with a justification::

    sock.recv(n)  # reprolint: ok lock-order - per-edge lock serializes one peer by design
"""

from .core import Finding, ModuleInfo, Project, Report, Rule, run_lint
from .rules import ALL_RULES, make_rules, rule_names

__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleInfo",
    "Project",
    "Report",
    "Rule",
    "make_rules",
    "rule_names",
    "run_lint",
]

"""Rule registry of ``repro-lint``.

Each rule is a :class:`tools.reprolint.core.Rule` subclass enforcing
one correctness contract of the codebase (see ``DESIGN.md``, "Static
invariants", for the contract -> introducing-PR map).  Rules are
instantiated fresh per run — whole-program rules accumulate state
between their module pass and :meth:`finalize`.
"""

from __future__ import annotations

from .atomic_publish import AtomicPublishRule
from .crash_swallow import CrashSwallowRule
from .determinism import DeterminismRule
from .fault_sites import FaultSiteRule
from .import_boundaries import ImportBoundaryRule
from .lock_order import LockOrderRule

__all__ = ["ALL_RULES", "make_rules", "rule_names"]

ALL_RULES = (
    FaultSiteRule,
    CrashSwallowRule,
    AtomicPublishRule,
    ImportBoundaryRule,
    LockOrderRule,
    DeterminismRule,
)


def rule_names() -> list[str]:
    return [cls.name for cls in ALL_RULES]


def make_rules(names=None) -> list:
    """Fresh rule instances (all of them, or the named subset)."""
    if names is None:
        return [cls() for cls in ALL_RULES]
    by_name = {cls.name: cls for cls in ALL_RULES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise KeyError(
            f"unknown rule(s) {', '.join(unknown)}; choose from {sorted(by_name)}"
        )
    return [by_name[n]() for n in names]

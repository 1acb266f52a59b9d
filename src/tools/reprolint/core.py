"""Analysis framework of ``repro-lint``: modules, rules, findings.

The linter is a small whole-program static-analysis pass over the
repository's Python tree.  Everything the chaos suite checks
*dynamically* — named fault sites, ``_atomic_publish``-only writes,
``InjectedCrash`` escaping broad handlers — has a static
counterpart rule here, so a regression is caught at lint time instead
of (or in addition to) at chaos-test time.

Pieces:

* :class:`ModuleInfo` — one parsed file: source, parent-linked AST,
  ``# reprolint:`` comment annotations.
* :class:`Rule` — a named check with a per-module pass
  (:meth:`Rule.check_module`) and an optional whole-program pass
  (:meth:`Rule.finalize`) that sees every module at once (import
  graphs, lock graphs, cross-references into ``tests/``).
* :class:`Project` — the loaded tree plus the *plan sources* (tests,
  benchmarks, experiments) that whole-program rules cross-reference.
* :func:`run_lint` — drive all rules, apply suppressions and the
  baseline, return a :class:`Report`.

Suppression grammar (checked: the rule must exist and a justification
is mandatory, so every accepted finding documents *why* it is fine)::

    # reprolint: ok <rule>[,<rule>...] - <justification>

Fault-site annotation for call sites whose site name is built
dynamically (consumed by the ``fault-site`` rule)::

    # reprolint: site <name-or-pattern> [<name-or-pattern> ...]

Both bind to the line they sit on, or to the following line when the
comment stands alone.

This package must stay importable without the library (no ``repro``,
no third-party imports): a tree broken at runtime still lints.
"""

from __future__ import annotations

import ast
import fnmatch
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Report",
    "Rule",
    "load_module",
    "run_lint",
]

#: default lint targets, relative to the project root
DEFAULT_PATHS = ("src",)

#: directories whose fault-plan strings count as "exercising" a site
PLAN_SOURCE_DIRS = ("tests", "benchmarks", "src/repro/experiments")

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*ok\b(?P<rest>.*)")
_SITE_RE = re.compile(r"#\s*reprolint:\s*site\s+(?P<sites>.+)")


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule: str
    relpath: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    baselined: bool = False
    fingerprint: str = ""

    @property
    def is_new(self) -> bool:
        """True when the finding fails the run (not suppressed/baselined)."""
        return not (self.suppressed or self.baselined)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.relpath,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "fingerprint": self.fingerprint,
        }

    def __str__(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col} [{self.rule}] {self.message}"


@dataclass
class Suppression:
    """One parsed ``# reprolint: ok`` comment."""

    rules: tuple[str, ...]
    justification: str
    line: int  # the line it binds to (its own, or the next for bare comments)
    comment_line: int


@dataclass
class ModuleInfo:
    """One parsed source file with its lint-relevant annotations."""

    path: Path
    relpath: str
    modname: str
    source: str
    lines: list[str]
    tree: ast.Module | None
    parse_error: str | None = None
    #: bound line -> suppression
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: bound line -> declared fault-site names for a dynamic call
    site_notes: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed_here(self, lineno: int, rule: str) -> bool:
        sup = self.suppressions.get(lineno)
        return sup is not None and (rule in sup.rules or "all" in sup.rules)


def _link_parents(tree: ast.Module) -> None:
    """Attach ``.parent`` to every node (the parent-linked visitor seam)."""
    tree.parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def ancestors(node: ast.AST):
    """Yield ``node``'s ancestors, innermost first (requires linked tree)."""
    cur = getattr(node, "parent", None)
    while cur is not None:
        yield cur
        cur = getattr(cur, "parent", None)


def enclosing(node: ast.AST, kinds) -> ast.AST | None:
    """The nearest ancestor of one of ``kinds`` (a type or tuple)."""
    for anc in ancestors(node):
        if isinstance(anc, kinds):
            return anc
    return None


def enclosing_function(node: ast.AST):
    return enclosing(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def enclosing_class(node: ast.AST) -> ast.ClassDef | None:
    return enclosing(node, ast.ClassDef)  # type: ignore[return-value]


def _modname_for(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _comment_tokens(mod: ModuleInfo):
    """``(row, col, text)`` of every real comment (docstrings excluded)."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(mod.source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, IndentationError):
        return  # unparseable tail: ast.parse reports the syntax error


def _parse_annotations(mod: ModuleInfo) -> list[Finding]:
    """Extract ``# reprolint:`` comments; returns hygiene findings.

    Only the token stream's comments count — the marker quoted inside a
    docstring or string literal is inert documentation, not a directive.
    """
    findings: list[Finding] = []
    for i, col, text in _comment_tokens(mod):
        standalone = not mod.line_text(i)[:col].strip()
        bind = i + 1 if standalone else i
        m = _SITE_RE.search(text)
        if m:
            names = tuple(m.group("sites").split())
            mod.site_notes[bind] = names
            continue
        m = _SUPPRESS_RE.search(text)
        if m:
            rest = m.group("rest").strip()
            head, sep, why = rest.partition(" - ")
            rules = tuple(r for r in re.split(r"[,\s]+", head.strip()) if r)
            why = why.strip()
            if not rules or not sep or not why:
                findings.append(
                    Finding(
                        rule="lint-hygiene",
                        relpath=mod.relpath,
                        line=i,
                        col=col,
                        message=(
                            "malformed suppression: use "
                            "'# reprolint: ok <rule>[,<rule>] - <justification>' "
                            "(the justification is mandatory)"
                        ),
                    )
                )
                continue
            mod.suppressions[bind] = Suppression(
                rules=rules, justification=why, line=bind, comment_line=i
            )
    return findings


def load_module(path: Path, root: Path) -> tuple[ModuleInfo, list[Finding]]:
    """Parse one file into a :class:`ModuleInfo` (+ hygiene findings)."""
    relpath = path.relative_to(root).as_posix()
    source = path.read_text(encoding="utf-8")
    mod = ModuleInfo(
        path=path,
        relpath=relpath,
        modname=_modname_for(relpath),
        source=source,
        lines=source.splitlines(),
        tree=None,
    )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as e:
        mod.parse_error = f"{e.msg} (line {e.lineno})"
        return mod, [
            Finding(
                rule="parse",
                relpath=relpath,
                line=int(e.lineno or 1),
                col=int(e.offset or 0),
                message=f"syntax error: {e.msg}",
            )
        ]
    _link_parents(tree)
    mod.tree = tree
    return mod, _parse_annotations(mod)


class Project:
    """The loaded tree: lint targets plus cross-reference sources."""

    def __init__(self, root: Path, modules: list[ModuleInfo]):
        self.root = Path(root)
        self.modules = modules
        self.by_rel = {m.relpath: m for m in modules}
        self._extra: dict[str, ModuleInfo | None] = {}

    def module(self, relpath: str) -> ModuleInfo | None:
        """A module by root-relative path, loading it on demand.

        Whole-program rules use this to reach files outside the lint
        target set (e.g. ``src/repro/faults.py`` for the site registry
        when only ``tests/`` was passed on the command line).
        """
        if relpath in self.by_rel:
            return self.by_rel[relpath]
        if relpath not in self._extra:
            path = self.root / relpath
            if not path.is_file():
                self._extra[relpath] = None
            else:
                mod, _ = load_module(path, self.root)
                self._extra[relpath] = None if mod.tree is None else mod
        return self._extra[relpath]

    def plan_modules(self) -> list[ModuleInfo]:
        """Every parseable module under the fault-plan source dirs."""
        out: list[ModuleInfo] = []
        seen: set[str] = set()
        for d in PLAN_SOURCE_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                rel = path.relative_to(self.root).as_posix()
                if rel in seen or "__pycache__" in rel:
                    continue
                seen.add(rel)
                mod = self.by_rel.get(rel) or self.module(rel)
                if mod is not None and mod.tree is not None:
                    out.append(mod)
        return out


class Rule:
    """Base class: a named invariant with per-module + program passes."""

    #: unique kebab-case identifier (used in suppressions/baseline/CLI)
    name: str = ""
    #: one-line contract statement for ``--list-rules`` and docs
    summary: str = ""
    #: fnmatch globs over root-relative paths this rule inspects
    paths: tuple[str, ...] = ("src/repro/*", "src/repro/*/*", "src/repro/*/*/*")
    #: root-relative paths the rule never inspects
    exclude: tuple[str, ...] = ()

    def wants(self, mod: ModuleInfo) -> bool:
        if mod.tree is None or mod.relpath in self.exclude:
            return False
        return any(fnmatch.fnmatchcase(mod.relpath, g) for g in self.paths)

    def prepare(self, project: Project) -> None:
        """Called once before any module pass (load shared state)."""

    def check_module(self, mod: ModuleInfo, project: Project):
        """Per-file pass; yield :class:`Finding`."""
        return ()

    def finalize(self, project: Project):
        """Whole-program pass after every module pass; yield findings."""
        return ()


@dataclass
class Report:
    """Outcome of one lint run."""

    root: str
    findings: list[Finding]
    rules: list[str]
    files_checked: int
    baseline_path: str | None = None

    @property
    def new(self) -> list[Finding]:
        return [f for f in self.findings if f.is_new]

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return {
            "version": 1,
            "root": self.root,
            "rules": self.rules,
            "files_checked": self.files_checked,
            "baseline": self.baseline_path,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "total": len(self.findings),
                "new": len(self.new),
                "suppressed": sum(1 for f in self.findings if f.suppressed),
                "baselined": sum(1 for f in self.findings if f.baselined),
                "by_rule": dict(sorted(counts.items())),
            },
        }


def _collect_files(root: Path, paths) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        base = (root / p) if not Path(p).is_absolute() else Path(p)
        if base.is_file() and base.suffix == ".py":
            files.append(base)
        elif base.is_dir():
            files.extend(
                f for f in sorted(base.rglob("*.py")) if "__pycache__" not in f.parts
            )
        else:
            raise FileNotFoundError(f"lint path {p!r} not found under {root}")
    # stable order, unique
    seen: set[Path] = set()
    out = []
    for f in files:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _fingerprint(mod_lines: dict[str, list[str]], f: Finding, counter: dict) -> str:
    lines = mod_lines.get(f.relpath, [])
    text = lines[f.line - 1].strip() if 1 <= f.line <= len(lines) else ""
    key = (f.rule, f.relpath, text)
    occ = counter.get(key, 0)
    counter[key] = occ + 1
    blob = f"{f.rule}|{f.relpath}|{text}|{occ}".encode()
    return hashlib.sha1(blob).hexdigest()[:16]


def load_baseline(path: Path) -> set[str]:
    doc = json.loads(path.read_text())
    entries = doc.get("findings", []) if isinstance(doc, dict) else []
    out = set()
    for e in entries:
        fp = e.get("fingerprint") if isinstance(e, dict) else e
        if isinstance(fp, str):
            out.add(fp)
    return out


def baseline_doc(report: Report) -> dict:
    """A baseline file accepting every current (unsuppressed) finding."""
    return {
        "version": 1,
        "comment": (
            "Grandfathered repro-lint findings; every entry must carry a "
            "justification.  Shrink this file, never grow it."
        ),
        "findings": [
            {
                "fingerprint": f.fingerprint,
                "rule": f.rule,
                "path": f.relpath,
                "line": f.line,
                "message": f.message,
                "justification": "TODO: justify or fix",
            }
            for f in report.findings
            if not f.suppressed
        ],
    }


def run_lint(
    root: Path,
    paths=None,
    rules=None,
    baseline_path: Path | None = None,
) -> Report:
    """Run ``rules`` over ``paths`` (root-relative); returns a report.

    ``rules`` is an iterable of :class:`Rule` *instances* (fresh per
    run — whole-program rules accumulate state).  Findings on a line
    bearing a matching ``# reprolint: ok`` annotation are marked
    suppressed; findings whose fingerprint appears in the baseline are
    marked baselined; everything else is "new" and fails the run.
    """
    root = Path(root).resolve()
    if rules is None:
        from .rules import make_rules

        rules = make_rules()
    rules = list(rules)
    files = _collect_files(root, paths or DEFAULT_PATHS)

    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    for f in files:
        mod, hygiene = load_module(f, root)
        modules.append(mod)
        findings.extend(hygiene)
    project = Project(root, modules)

    for rule in rules:
        rule.prepare(project)
    for rule in rules:
        for mod in modules:
            if rule.wants(mod):
                findings.extend(rule.check_module(mod, project))
    for rule in rules:
        findings.extend(rule.finalize(project))

    # suppressions (a finding's own line, via the pre-bound map)
    all_mods = dict(project.by_rel)
    all_mods.update({k: v for k, v in project._extra.items() if v is not None})
    for f in findings:
        mod = all_mods.get(f.relpath)
        if mod is not None and mod.suppressed_here(f.line, f.rule):
            f.suppressed = True

    # stable order + fingerprints
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.rule, f.message))
    mod_lines = {m.relpath: m.lines for m in all_mods.values()}
    counter: dict = {}
    for f in findings:
        f.fingerprint = _fingerprint(mod_lines, f, counter)

    baseline: set[str] = set()
    if baseline_path is not None and Path(baseline_path).is_file():
        baseline = load_baseline(Path(baseline_path))
    for f in findings:
        if f.fingerprint in baseline and not f.suppressed:
            f.baselined = True

    return Report(
        root=str(root),
        findings=findings,
        rules=[r.name for r in rules],
        files_checked=len(files),
        baseline_path=str(baseline_path) if baseline_path else None,
    )

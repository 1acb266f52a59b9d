"""``fault-site``: the fault-site registry and its exercise proof.

The chaos harness (PR 6) addresses faults by *name*: a plan clause like
``crash@stream.step.post_tmp`` only ever fires if some instrumented
call passes exactly that string to :mod:`repro.faults`.  Nothing ties
the two ends together at runtime — a typo on either side silently
no-ops.  This rule closes the loop statically:

1. every site literal passed to ``crash_point``/``error_point``/
   ``delay_point``/``corrupt_bytes``/``corrupt_file``/``kill_indices``
   — or straight to ``FaultInjector.fire`` by a coordinator drawing on
   its workers' behalf — must appear in the canonical registry
   ``repro.faults.SITES``
   (a dict literal parsed from the AST — the linter never imports the
   library);
2. a *dynamic* site argument (f-string, variable) must carry a
   ``# reprolint: site <name>...`` annotation naming the registered
   sites it can produce;
3. every registry entry must be instrumented somewhere in ``src/``;
4. every registry entry must be **exercised** by at least one fault
   plan found in ``tests/``, ``benchmarks/`` or
   ``src/repro/experiments/`` — a plan string (including f-string
   templates, whose interpolations widen to ``*``) whose site glob
   covers it, or, for templated plans, a site literal in the same tree;
5. the generated registry snapshot
   (``src/tools/reprolint/fault_sites.json``) must be up to date —
   regenerate with ``repro-lint --write-registry``.

Registry entries may be patterns (``container.read.*``) for site
families whose suffix is data-dependent (per-shard read extents).
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re

from ..core import Finding, ModuleInfo, Project, Rule

FAULTS_RELPATH = "src/repro/faults.py"
REGISTRY_RELPATH = "src/tools/reprolint/fault_sites.json"

#: the site-taking helpers of repro.faults (first argument = site name)
SITE_HELPERS = (
    "crash_point",
    "error_point",
    "delay_point",
    "corrupt_bytes",
    "corrupt_file",
    "kill_indices",
    "fire",
)

#: fallback fault kinds; overridden by faults.py's KINDS when parseable
DEFAULT_KINDS = ("crash", "error", "truncate", "bitflip", "kill", "delay")

_CLAUSE_RE = re.compile(r"^([a-z]+)@([^:]+?)(?::|$)")


def _helper_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id in SITE_HELPERS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in SITE_HELPERS:
        return func.attr
    return None


def parse_registry(mod: ModuleInfo) -> tuple[dict[str, int], tuple[str, ...]]:
    """(site -> definition line, fault kinds) parsed from faults.py."""
    sites: dict[str, int] = {}
    kinds = DEFAULT_KINDS
    if mod.tree is None:
        return sites, kinds
    for node in mod.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "SITES" and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    sites[key.value] = key.lineno
        elif target.id == "KINDS" and isinstance(node.value, (ast.Tuple, ast.List)):
            vals = [
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if vals:
                kinds = tuple(vals)
    return sites, kinds


def _site_registered(site: str, registry: dict[str, int]) -> bool:
    if site in registry:
        return True
    return any(
        "*" in pat and fnmatch.fnmatchcase(site, pat) for pat in registry
    )


def _plan_clauses(text: str, kinds) -> list[str]:
    """Site globs of every well-formed ``kind@site`` clause in ``text``."""
    globs = []
    for clause in text.split(","):
        m = _CLAUSE_RE.match(clause.strip())
        if m and m.group(1) in kinds:
            globs.append(m.group(2).strip())
    return globs


def extract_plans(mod: ModuleInfo, kinds, registry):
    """(site globs, site literals) with locations from one plan source.

    A string constant contributes its clauses' site globs when it
    parses as a fault plan.  An f-string contributes too, with each
    interpolation widened to ``*`` — and because such a template says
    nothing about *which* sites it formats in, plain string constants
    that name a registered site (parametrize lists, site tables) count
    as exercise evidence wherever they appear in the plan sources.
    """
    globs: list[tuple[str, int]] = []
    literals: list[tuple[str, int]] = []
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if "@" in text:
                globs.extend((g, node.lineno) for g in _plan_clauses(text, kinds))
            elif _site_registered(text, registry):
                literals.append((text, node.lineno))
        elif isinstance(node, ast.JoinedStr):
            parts = []
            for v in node.values:
                if isinstance(v, ast.Constant):
                    parts.append(str(v.value))
                else:
                    parts.append("*")
            text = "".join(parts)
            if "@" in text:
                # a clause whose whole site is one interpolation widens
                # to bare '*' — vacuous (it would "exercise" every
                # site); only the concrete literals formatted into such
                # a template carry evidence
                globs.extend(
                    (g, node.lineno)
                    for g in _plan_clauses(text, kinds)
                    if g != "*"
                )
    return globs, literals


def _covers(glob: str, entry: str) -> bool:
    """Does a plan site-glob exercise a registry entry (either may be
    a pattern)?  ``stream.step.*`` covers ``stream.step.pre_tmp``;
    ``container.read.shard 1`` is covered by family ``container.read.*``."""
    return (
        glob == entry
        or fnmatch.fnmatchcase(entry, glob)
        or fnmatch.fnmatchcase(glob, entry)
    )


class FaultSiteRule(Rule):
    name = "fault-site"
    summary = (
        "every faults.* site literal is registered in repro.faults.SITES, "
        "every registered site is instrumented and exercised by a fault plan, "
        "and the generated registry snapshot is fresh"
    )
    exclude = (FAULTS_RELPATH,)

    def __init__(self):
        self.registry: dict[str, int] = {}
        self.kinds = DEFAULT_KINDS
        self.enabled = False
        #: site-or-pattern -> sorted locations ("relpath:line")
        self.uses: dict[str, list[str]] = {}

    def prepare(self, project: Project) -> None:
        faults_mod = project.module(FAULTS_RELPATH)
        if faults_mod is None:
            return  # tree without a fault layer: nothing to check
        self.registry, self.kinds = parse_registry(faults_mod)
        self.enabled = bool(self.registry)

    def _record(self, site: str, mod: ModuleInfo, line: int) -> None:
        self.uses.setdefault(site, []).append(f"{mod.relpath}:{line}")

    def check_module(self, mod: ModuleInfo, project: Project):
        if not self.enabled:
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) or _helper_name(node) is None:
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                site = arg.value
                self._record(site, mod, node.lineno)
                if not _site_registered(site, self.registry):
                    yield Finding(
                        rule=self.name,
                        relpath=mod.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"fault site {site!r} is not registered in "
                            "repro.faults.SITES — a plan targeting it cannot "
                            "be validated (typos silently no-op)"
                        ),
                    )
            else:
                notes = mod.site_notes.get(node.lineno, ())
                if not notes:
                    yield Finding(
                        rule=self.name,
                        relpath=mod.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "dynamic fault-site name: annotate the call with "
                            "'# reprolint: site <registered-name>...' naming "
                            "every site it can fire"
                        ),
                    )
                    continue
                for site in notes:
                    self._record(site, mod, node.lineno)
                    if not (
                        site in self.registry or _site_registered(site, self.registry)
                    ):
                        yield Finding(
                            rule=self.name,
                            relpath=mod.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"annotated fault site {site!r} is not "
                                "registered in repro.faults.SITES"
                            ),
                        )

    # ------------------------------------------------------------------
    # whole-program: instrumentation + exercise proof + snapshot freshness

    def registry_doc(self, project: Project) -> dict:
        """The generated registry: sites, instrumentation, exercisers."""
        evidence = self._exercise_evidence(project)
        sites = {}
        for entry in sorted(self.registry):
            sites[entry] = {
                "instrumented": sorted(set(self.uses.get(entry, [])))
                or self._family_uses(entry),
                "exercised_by": evidence.get(entry, []),
            }
        return {"version": 1, "source": FAULTS_RELPATH, "sites": sites}

    def _family_uses(self, entry: str) -> list[str]:
        if "*" not in entry:
            return []
        out = set()
        for site, locs in self.uses.items():
            if site == entry or fnmatch.fnmatchcase(site, entry):
                out.update(locs)
        return sorted(out)

    def _exercise_evidence(self, project: Project) -> dict[str, list[str]]:
        globs: list[tuple[str, str]] = []  # (glob, location)
        literals: list[tuple[str, str]] = []
        for mod in project.plan_modules():
            g, lit = extract_plans(mod, self.kinds, self.registry)
            globs.extend((x, f"{mod.relpath}:{ln}") for x, ln in g)
            literals.extend((x, f"{mod.relpath}:{ln}") for x, ln in lit)
        evidence: dict[str, list[str]] = {}
        for entry in self.registry:
            locs = {loc for g, loc in globs if _covers(g, entry)}
            locs.update(
                loc for s, loc in literals if s == entry or _covers(s, entry)
            )
            evidence[entry] = sorted(locs)
        return evidence

    def finalize(self, project: Project):
        if not self.enabled:
            return
        faults_line = lambda entry: self.registry.get(entry, 1)  # noqa: E731
        doc = self.registry_doc(project)
        for entry, info in doc["sites"].items():
            if not info["instrumented"]:
                yield Finding(
                    rule=self.name,
                    relpath=FAULTS_RELPATH,
                    line=faults_line(entry),
                    col=4,
                    message=(
                        f"registered fault site {entry!r} is never instrumented "
                        "under src/ — dead registry entry (remove it or wire "
                        "the site in)"
                    ),
                )
            if not info["exercised_by"]:
                yield Finding(
                    rule=self.name,
                    relpath=FAULTS_RELPATH,
                    line=faults_line(entry),
                    col=4,
                    message=(
                        f"registered fault site {entry!r} is not exercised by "
                        "any fault plan in tests/, benchmarks/ or experiments/ "
                        "— the chaos suite never proves recovery at this site"
                    ),
                )
        snap_path = project.root / REGISTRY_RELPATH
        stale = True
        if snap_path.is_file():
            try:
                stale = json.loads(snap_path.read_text()) != doc
            except json.JSONDecodeError:
                stale = True
        if stale:
            yield Finding(
                rule=self.name,
                relpath=REGISTRY_RELPATH,
                line=1,
                col=0,
                message=(
                    "generated fault-site registry is missing or out of date — "
                    "run 'repro-lint --write-registry' and commit the result"
                ),
            )

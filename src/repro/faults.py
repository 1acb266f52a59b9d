"""Deterministic, seedable fault injection for the streaming stack.

A stream written by a long-running producer meets every failure mode a
real deployment has: the producer is killed mid-commit, a pool worker
dies under the executor, a step file is truncated or bit-flipped by the
storage layer, a stage stalls.  This module makes those failures
*reproducible*: the I/O and executor layers are instrumented with named
**sites** (cheap no-ops when no faults are armed), and a
:class:`FaultInjector` — armed explicitly or through the
``REPRO_FAULTS`` environment variable — decides deterministically which
site hits fire which faults.

Fault kinds
-----------

``crash``
    Raise :class:`InjectedCrash` at a crash point — the moral
    equivalent of ``kill -9`` on the producer between two instructions.
    ``InjectedCrash`` derives from :class:`BaseException` so recovery
    code catching ``Exception`` cannot accidentally "survive" a death
    it is supposed to simulate.

``error``
    Raise :class:`InjectedFault` (an ordinary ``RuntimeError``) — a
    failing-but-catchable stage.

``truncate`` / ``bitflip``
    Corrupt a byte payload or an on-disk file: keep only ``frac`` of
    the bytes, or flip ``flips`` single bits at seeded positions.  The
    write-side sites model non-durable renames and media corruption;
    the read-side sites model corruption on the wire.

``kill``
    Mark executor work units whose worker should die (``os._exit``)
    mid-batch — the decision is made *in the parent*, so it is
    deterministic across process pools.

``delay``
    Sleep ``seconds`` at a site — a slow stage.

Spec grammar
------------

A plan is a comma-separated list of clauses::

    kind@site-pattern[:key=value]...

``site-pattern`` is an :mod:`fnmatch` glob over site names (e.g.
``stream.step.*``, ``executor.process.map``).  Keys: ``p`` (per-hit
probability, default 1), ``count`` (max firings, default unlimited),
``after`` (skip the first N matching hits), and the kind-specific
``frac``/``flips``/``seconds``.  Example::

    REPRO_FAULTS="kill@executor.process.map:p=0.2:count=4,truncate@stream.step.file:after=3:count=1:frac=0.5"

``REPRO_FAULTS_SEED`` seeds the ambient injector (default 0); the
explicit API (:func:`install`, :func:`inject`) takes a ``seed=``
argument.  Same plan + same seed ⇒ same firing sequence.

Instrumented sites live in :data:`SITES` — the canonical registry.  A
plan clause whose site glob matches no registered site can never fire;
:func:`install` (and ambient ``REPRO_FAULTS`` resolution) warns about
such clauses with :class:`UnknownFaultSiteWarning` instead of letting a
typo silently no-op.  The static side of the same contract is enforced
by ``repro-lint``'s ``fault-site`` rule: every site string passed to a
helper in this module must be registered here, every registered site
must be instrumented, and every registered site must be exercised by at
least one fault plan in the test/benchmark tree.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

__all__ = [
    "SITES",
    "FaultSpec",
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "UnknownFaultSiteWarning",
    "active",
    "clear",
    "corrupt_bytes",
    "corrupt_file",
    "crash_point",
    "delay_point",
    "error_point",
    "inject",
    "install",
    "kill_indices",
    "parse_plan",
    "site_registered",
    "validate_plan",
]

_ENV_KNOB = "REPRO_FAULTS"
_ENV_SEED = "REPRO_FAULTS_SEED"

KINDS = ("crash", "error", "truncate", "bitflip", "kill", "delay")

#: The canonical fault-site registry: every name an instrumented layer
#: passes to the helpers below, mapped to what failing there simulates.
#: Entries may be patterns (``container.read.*``) for families whose
#: suffix is data-dependent (per-shard read extents).  Checked both
#: ways by ``repro-lint`` (rule ``fault-site``): an instrumented site
#: missing here fails lint, and so does a registered site that is never
#: instrumented or never exercised by a fault plan in the test tree.
SITES = {
    "stream.step.pre_tmp": "crash before the step tmp file exists",
    "stream.step.post_tmp": "crash after tmp write, before rename",
    "stream.step.file": "corrupt the committed step file",
    "stream.commit.post_rename": "crash after rename, before manifest",
    "stream.manifest.pre_flush": "crash before the manifest tmp write",
    "stream.manifest.pre_tmp": "crash before the manifest tmp exists",
    "stream.manifest.post_tmp": "crash after manifest tmp, pre rename",
    "stream.manifest.file": "corrupt the committed manifest",
    "container.write.pre_tmp": "crash before a container tmp exists",
    "container.write.post_tmp": "crash after container tmp, pre rename",
    "container.write.file": "corrupt a committed container file",
    "container.read.*": "corrupt/delay a ranged container read",
    "fileio.read.payload": "corrupt a compressed-payload read",
    "sharded.encode.shard": "error/delay inside one shard encode",
    "executor.process.map": "kill pool workers mid-batch",
}


class UnknownFaultSiteWarning(UserWarning):
    """A plan clause's site glob matches no registered fault site."""


def site_registered(site: str) -> bool:
    """Is ``site`` (a concrete name) covered by the registry?"""
    return site in SITES or any(
        "*" in pat and fnmatch.fnmatchcase(site, pat) for pat in SITES
    )


def _glob_matches_registry(glob: str) -> bool:
    """Can a plan clause's site glob ever match a registered site?

    Either the glob covers a registered concrete site, or it falls
    inside (or equals) a registered family pattern — both directions
    matter because the registry and the plan may each use wildcards.
    """
    return any(
        glob == pat
        or fnmatch.fnmatchcase(pat, glob)
        or fnmatch.fnmatchcase(glob, pat)
        for pat in SITES
    )


def validate_plan(specs) -> list[str]:
    """Site globs in ``specs`` that can never match a registered site.

    Used by :func:`install` / ambient ``REPRO_FAULTS`` resolution to
    warn about typo'd plans that would otherwise silently no-op.
    Returns the offending globs (empty = plan is satisfiable).
    """
    return sorted(
        {s.site for s in specs if not _glob_matches_registry(s.site)}
    )

#: kind-specific argument: (key name, parser, default)
_ARG_KEYS = {
    "truncate": ("frac", float, 0.5),
    "bitflip": ("flips", int, 1),
    "delay": ("seconds", float, 0.01),
}


class InjectedFault(RuntimeError):
    """An injected, *catchable* failure (fault kind ``error``)."""


class InjectedCrash(BaseException):
    """Simulated process death at a crash point.

    Deliberately **not** an :class:`Exception`: code that catches
    ``Exception`` to recover must not be able to swallow a simulated
    ``kill -9`` — only the test/benchmark harness that armed the fault
    should catch it (like ``KeyboardInterrupt``).
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what fires, where, and how often."""

    kind: str
    site: str
    p: float = 1.0
    count: int | None = None
    after: int = 0
    arg: float | None = None  # kind-specific: frac / flips / seconds

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")
        if self.after < 0:
            raise ValueError(f"fault 'after' must be >= 0, got {self.after}")

    @classmethod
    def parse(cls, clause: str) -> "FaultSpec":
        """Parse one ``kind@site[:key=value]...`` clause."""
        head, _, tail = clause.strip().partition(":")
        kind, sep, site = head.partition("@")
        if not sep or not kind or not site:
            raise ValueError(
                f"bad fault clause {clause!r}: expected 'kind@site[:key=value]...'"
            )
        kwargs: dict = {}
        arg_key = _ARG_KEYS.get(kind, (None, None, None))[0]
        for item in filter(None, tail.split(":")):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad fault option {item!r} in {clause!r}")
            if key == "p":
                kwargs["p"] = float(value)
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "after":
                kwargs["after"] = int(value)
            elif key == arg_key:
                kwargs["arg"] = _ARG_KEYS[kind][1](value)
            else:
                raise ValueError(
                    f"unknown fault option {key!r} for kind {kind!r} in {clause!r}"
                )
        return cls(kind=kind, site=site, **kwargs)

    def argument(self) -> float:
        """The kind-specific argument, defaulted per kind."""
        if self.arg is not None:
            return self.arg
        default = _ARG_KEYS.get(self.kind, (None, None, None))[2]
        return 0.0 if default is None else default


def parse_plan(spec: str) -> list[FaultSpec]:
    """Parse a comma-separated fault plan into its specs."""
    clauses = [c for c in (s.strip() for s in spec.split(",")) if c]
    if not clauses:
        raise ValueError("empty fault plan")
    return [FaultSpec.parse(c) for c in clauses]


@dataclass
class FaultEvent:
    """One fired fault, recorded for reporting and assertions."""

    site: str
    kind: str
    hit: int  # the matching-hit ordinal that fired (1-based)


class FaultInjector:
    """Deterministic firing engine over a list of :class:`FaultSpec`.

    Thread-safe: site hits from worker threads and pool coordinators
    serialize on one lock, and every probabilistic decision draws from
    one seeded :class:`random.Random` — the firing *sequence* is a pure
    function of (plan, seed, site-hit order).
    """

    def __init__(self, specs, seed: int = 0):
        if isinstance(specs, str):
            specs = parse_plan(specs)
        self.specs = list(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._hits = [0] * len(self.specs)
        self._fired = [0] * len(self.specs)
        self._lock = threading.Lock()
        self.log: list[FaultEvent] = []

    def fire(self, site: str, kinds) -> FaultSpec | None:
        """First armed spec of one of ``kinds`` matching ``site``, or None.

        A returned spec has *fired*: its budget is consumed and the
        event logged.  Specs are consulted in plan order.
        """
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.kind not in kinds:
                    continue
                if not fnmatch.fnmatchcase(site, spec.site):
                    continue
                self._hits[i] += 1
                if self._hits[i] <= spec.after:
                    continue
                if spec.count is not None and self._fired[i] >= spec.count:
                    continue
                if spec.p < 1.0 and self._rng.random() >= spec.p:
                    continue
                self._fired[i] += 1
                self.log.append(FaultEvent(site=site, kind=spec.kind, hit=self._hits[i]))
                return spec
        return None

    def randrange(self, n: int) -> int:
        """A draw from the injector's seeded stream (corruption offsets)."""
        with self._lock:
            return self._rng.randrange(n)

    def fired(self, kind: str | None = None) -> int:
        """How many faults (of ``kind``, or any) have fired so far."""
        with self._lock:
            if kind is None:
                return len(self.log)
            return sum(1 for e in self.log if e.kind == kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector({len(self.specs)} specs, seed={self.seed}, fired={len(self.log)})"


# ----------------------------------------------------------------------
# ambient injector: explicit install() > REPRO_FAULTS environment

_state_lock = threading.Lock()
_installed: FaultInjector | None = None
_env_resolved = False


def _warn_unknown_sites(specs, origin: str) -> None:
    for glob in validate_plan(specs):
        warnings.warn(
            f"fault plan clause targets site {glob!r} which matches no "
            f"registered site ({origin}) — it will never fire; see "
            "repro.faults.SITES for the registry",
            UnknownFaultSiteWarning,
            stacklevel=3,
        )


def _from_env() -> FaultInjector | None:
    spec = os.environ.get(_ENV_KNOB, "").strip()
    if not spec:
        return None
    seed = int(os.environ.get(_ENV_SEED, "0"))
    inj = FaultInjector(parse_plan(spec), seed=seed)
    _warn_unknown_sites(inj.specs, origin=f"from ${_ENV_KNOB}")
    return inj


def active() -> FaultInjector | None:
    """The currently armed injector (``None`` when faults are off).

    Resolves ``REPRO_FAULTS`` lazily on first call; an explicit
    :func:`install` always wins over the environment.
    """
    global _installed, _env_resolved
    if _env_resolved:
        return _installed
    with _state_lock:
        if not _env_resolved:
            if _installed is None:
                _installed = _from_env()
            _env_resolved = True
    return _installed


def install(plan, seed: int = 0) -> FaultInjector:
    """Arm an injector process-wide (replacing any previous one).

    ``plan`` is a spec string, a list of :class:`FaultSpec`, or a
    ready-made :class:`FaultInjector`.
    """
    global _installed, _env_resolved
    inj = plan if isinstance(plan, FaultInjector) else FaultInjector(plan, seed=seed)
    _warn_unknown_sites(inj.specs, origin="installed plan")
    with _state_lock:
        _installed = inj
        _env_resolved = True
    return inj


def clear() -> None:
    """Disarm fault injection (``REPRO_FAULTS`` is re-read next time)."""
    global _installed, _env_resolved
    with _state_lock:
        _installed = None
        _env_resolved = False


@contextmanager
def inject(plan, seed: int = 0):
    """Arm ``plan`` for the duration of a ``with`` block.

    Restores whatever injector (including the ambient environment one)
    was active before — the explicit counterpart of ``REPRO_FAULTS``
    for tests and benchmarks.
    """
    global _installed
    prev = active()
    inj = install(plan, seed=seed)
    try:
        yield inj
    finally:
        with _state_lock:
            _installed = prev


# ----------------------------------------------------------------------
# site helpers — the seam the instrumented layers call.  All are cheap
# no-ops (one None check) when no injector is armed.


def crash_point(site: str) -> None:
    """Die here (raise :class:`InjectedCrash`) if a ``crash`` fault fires."""
    inj = active()
    if inj is not None and inj.fire(site, ("crash",)) is not None:
        raise InjectedCrash(site)


def error_point(site: str) -> None:
    """Raise :class:`InjectedFault` if an ``error`` fault fires."""
    inj = active()
    if inj is not None and inj.fire(site, ("error",)) is not None:
        raise InjectedFault(f"injected fault at {site}")


def delay_point(site: str) -> None:
    """Sleep if a ``delay`` fault fires (a slow stage)."""
    inj = active()
    if inj is None:
        return
    spec = inj.fire(site, ("delay",))
    if spec is not None:
        time.sleep(spec.argument())


def corrupt_bytes(site: str, data: bytes) -> bytes:
    """Apply a ``truncate``/``bitflip`` fault to an in-memory payload.

    Returns ``data`` unchanged when nothing fires.  Truncation keeps
    the leading ``frac`` of the bytes; a bit flip inverts ``flips``
    single bits at seeded offsets.
    """
    inj = active()
    if inj is None or not data:
        return data
    spec = inj.fire(site, ("truncate", "bitflip"))
    if spec is None:
        return data
    if spec.kind == "truncate":
        return data[: int(len(data) * spec.argument())]
    out = bytearray(data)
    for _ in range(max(int(spec.argument()), 1)):
        pos = inj.randrange(len(out))
        out[pos] ^= 1 << inj.randrange(8)
    return bytes(out)


def corrupt_file(site: str, path: str | Path) -> bool:
    """Apply a ``truncate``/``bitflip`` fault to an on-disk file.

    Models a non-durable rename (page cache lost at power-off) or media
    corruption of a committed file.  Returns True when a fault fired.
    """
    inj = active()
    if inj is None:
        return False
    spec = inj.fire(site, ("truncate", "bitflip"))
    if spec is None:
        return False
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        return True
    if spec.kind == "truncate":
        os.truncate(path, int(size * spec.argument()))
        return True
    with open(path, "r+b") as f:
        for _ in range(max(int(spec.argument()), 1)):
            pos = inj.randrange(size)
            f.seek(pos)
            byte = f.read(1)
            f.seek(pos)
            f.write(bytes([byte[0] ^ (1 << inj.randrange(8))]))
    return True


def kill_indices(site: str, n: int) -> frozenset[int]:
    """Which of ``n`` pool work units should kill their worker.

    Evaluated *in the parent* (one ``kill``-fault draw per unit), so
    the decision is deterministic regardless of worker scheduling; the
    executor ships only the marked indices to the pool.
    """
    inj = active()
    if inj is None:
        return frozenset()
    return frozenset(
        i for i in range(n) if inj.fire(site, ("kill",)) is not None
    )

"""Offline integrity scrub for step-stream directories (``repro-verify``).

A stream directory's durability story (atomic renames, CRC-framed
containers, reader-side quarantine) handles corruption *lazily* — a bad
step is discovered when somebody reads it.  This module is the eager
counterpart: walk a stream once, verify every container end to end
(magic, header schema, every payload CRC, sharded steps' shard tables
*and* each embedded shard container), and report exactly what a reader
would have to recover from — before anyone depends on the data.

Every step file is one container frame (:mod:`repro.frame`), so one
recursive check (``repro.io.container._verify``, by the embedded magic)
covers all three types: every extent against its table row and CRC32,
an ``RPMG`` header against its schema, each shard a sharded step embeds
the same way.  File size and shard count are checked against the
manifest entry.

Beyond the steps themselves the scrub flags stale ``*.tmp`` files (a
writer died mid-publish) and orphan step files the manifest never
references (a crash between rename and manifest flush).  With
``quarantine=True`` corrupt step files and crash debris are moved into
``<root>/quarantine/`` so a follower's
:meth:`~repro.io.stream.StepStreamReader.read_step` sees a clean
missing-file condition instead of tripping over poison bytes.

Exposed as the ``repro-verify`` console script and as
``python -m repro.io.scrub``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ContainerError
from .container import _verify
from .stream import StreamError, load_manifest

__all__ = ["ScrubReport", "scrub_stream", "main"]

_STEP_SUFFIXES = (".rprc", ".mgz", ".rpsh")


@dataclass
class ScrubReport:
    """Outcome of one stream scrub.

    ``corrupt`` maps step index → human-readable reason (missing files
    count as corrupt: the manifest promises them).  ``stale_tmps`` and
    ``orphans`` are crash debris — harmless to readers, but evidence of
    an interrupted writer.  ``quarantined`` lists files moved into
    ``<root>/quarantine/`` (empty unless the scrub ran with
    ``quarantine=True``).
    """

    root: str
    manifest_error: str | None = None
    mode: str = "refactored"
    n_steps: int = 0
    ok: list[int] = field(default_factory=list)
    corrupt: dict[int, str] = field(default_factory=dict)
    stale_tmps: list[str] = field(default_factory=list)
    orphans: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every manifest-promised step verified end to end."""
        return self.manifest_error is None and not self.corrupt

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "clean": self.clean,
            "manifest_error": self.manifest_error,
            "mode": self.mode,
            "n_steps": self.n_steps,
            "ok": list(self.ok),
            "corrupt": {str(k): v for k, v in sorted(self.corrupt.items())},
            "stale_tmps": list(self.stale_tmps),
            "orphans": list(self.orphans),
            "quarantined": list(self.quarantined),
        }


def _verify_step(path: Path, entry: dict) -> None:
    """Fully verify one step file (read once, whole); raises on any defect."""
    data = path.read_bytes()
    nbytes = entry.get("nbytes")
    if isinstance(nbytes, int) and len(data) != nbytes:
        raise ContainerError(
            f"file is {len(data)} bytes, manifest recorded {nbytes}"
        )
    fr = _verify(data)
    want = entry.get("shards")
    if isinstance(want, list) and len(want) != len(fr.rows):
        raise ContainerError(
            f"{fr.label} table lists {len(fr.rows)} {fr.label}s, "
            f"manifest promises {len(want)} shards"
        )


def scrub_stream(root: str | Path, quarantine: bool = False) -> ScrubReport:
    """Verify every container in the stream at ``root``.

    With ``quarantine=True``, corrupt step files, stale temp files, and
    orphans are *moved* (never deleted) into ``<root>/quarantine/``.
    Scrubbing a live stream is safe: only files the manifest disowns or
    that fail verification are touched, and the producer republishes
    the manifest atomically.
    """
    root = Path(root)
    report = ScrubReport(root=str(root))
    try:
        manifest = load_manifest(root)
    except (StreamError, OSError, json.JSONDecodeError) as e:
        report.manifest_error = f"{type(e).__name__}: {e}"
        return report
    steps = manifest["steps"]
    report.mode = manifest["mode"]
    report.n_steps = len(steps)

    referenced = set()
    for idx, entry in enumerate(steps):
        name = entry["file"]
        referenced.add(name)
        try:
            _verify_step(root / name, entry)
        except FileNotFoundError:
            report.corrupt[idx] = f"missing file {name}"
        except (ContainerError, OSError) as e:
            report.corrupt[idx] = f"{name}: {e}"
        else:
            report.ok.append(idx)

    report.stale_tmps = sorted(p.name for p in root.glob("*.tmp"))
    report.orphans = sorted(
        p.name
        for p in root.iterdir()
        if p.suffix in _STEP_SUFFIXES and p.name not in referenced
    )

    if quarantine:
        qdir = root / "quarantine"
        doomed = [
            steps[idx]["file"]
            for idx in sorted(report.corrupt)
            if (root / steps[idx]["file"]).exists()
        ]
        doomed += report.stale_tmps + report.orphans
        for name in doomed:
            qdir.mkdir(exist_ok=True)
            (root / name).replace(qdir / name)
            report.quarantined.append(name)
    return report


def _format(report: ScrubReport) -> str:
    lines = [f"stream {report.root} ({report.mode}, {report.n_steps} steps)"]
    if report.manifest_error is not None:
        lines.append(f"  MANIFEST UNREADABLE: {report.manifest_error}")
        return "\n".join(lines)
    lines.append(f"  ok       : {len(report.ok)}/{report.n_steps}")
    for idx, reason in sorted(report.corrupt.items()):
        lines.append(f"  CORRUPT  : step {idx}: {reason}")
    for name in report.stale_tmps:
        lines.append(f"  stale tmp: {name}")
    for name in report.orphans:
        lines.append(f"  orphan   : {name}")
    for name in report.quarantined:
        lines.append(f"  moved to quarantine/: {name}")
    lines.append("clean" if report.clean else "NOT CLEAN")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Scrub a step-stream directory: verify every CRC and "
        "shard table, report crash debris.",
    )
    parser.add_argument("root", help="stream directory (holds manifest.json)")
    parser.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt step files and crash debris into <root>/quarantine/",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    report = scrub_stream(args.root, quarantine=args.quarantine)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(_format(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())

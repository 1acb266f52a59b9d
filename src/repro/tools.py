"""repro-tool — file-level refactoring and compression utility.

A small command-line front end over the library for ``.npy`` arrays::

    repro-tool refactor    field.npy field.rprc        # -> class container
    repro-tool reconstruct field.rprc out.npy -k 3     # prefix recovery
    repro-tool reconstruct field.rprc out.npy --tol 1e-3   # s-norm hint
    repro-tool compress    field.npy field.mgz --rel-tol 1e-3
    repro-tool decompress  field.mgz out.npy
    repro-tool info        field.rprc                  # metadata & sizes

All operations are lossless/round-trip-verified where the format allows
(refactor/reconstruct with all classes; compress honours its bound).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import frame
from .compress.fileio import load_compressed, save_compressed
from .compress.mgard import MgardCompressor
from .core.classes import reconstruct_from_classes
from .core.errors import linf
from .core.grid import hierarchy_for
from .core.refactor import Refactorer
from .core.snorm import classes_for_tolerance
from .errors import ContainerError
from .io.container import RefactoredFileReader, write_refactored

__all__ = ["main"]


def _load_npy(path: str) -> np.ndarray:
    arr = np.load(path)
    if not isinstance(arr, np.ndarray):
        raise SystemExit(f"{path} does not contain a plain array")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _cmd_refactor(args) -> int:
    data = _load_npy(args.input)
    cc = Refactorer(data.shape).refactor(data)
    nbytes = write_refactored(args.output, cc, attrs={"source": str(args.input)})
    print(f"{args.input} -> {args.output}: {cc.n_classes} classes, {nbytes} bytes")
    return 0


def _cmd_reconstruct(args) -> int:
    reader = RefactoredFileReader(args.input)
    hier = hierarchy_for(reader.shape)
    if args.tol is not None:
        cc = reader.to_coefficient_classes(hier)
        k = classes_for_tolerance(cc, args.tol)
        field = cc.reconstruct(k)
    else:
        k = args.k if args.k is not None else reader.n_classes
        try:
            classes = reader.read_classes(k)
        except ValueError as e:  # a bad -k: the caller's, not the file's
            args.usage_error(str(e))
        field = reconstruct_from_classes(classes, hier)
    np.save(args.output, field)
    print(f"{args.input} -> {args.output}: used {k}/{reader.n_classes} classes")
    return 0


def _cmd_compress(args) -> int:
    data = _load_npy(args.input)
    if args.rel_tol is not None:
        rng = float(data.max() - data.min())
        tol = args.rel_tol * (rng if rng > 0 else 1.0)
    elif args.tol is not None:
        tol = args.tol
    else:
        raise SystemExit("pass --tol or --rel-tol")
    hier = hierarchy_for(data.shape)
    comp = MgardCompressor(hier, tol, mode=args.mode, backend=args.backend)
    blob = comp.compress(data)
    if args.verify:
        back = comp.decompress(blob)
        err = linf(back, data)
        if err > tol:
            raise SystemExit(f"BUG: bound violated ({err} > {tol})")
    nbytes = save_compressed(args.output, blob)
    print(
        f"{args.input} -> {args.output}: {nbytes} bytes, "
        f"ratio {blob.compression_ratio():.1f}x, tol {tol:g}"
    )
    return 0


def _cmd_decompress(args) -> int:
    blob, hier = load_compressed(args.input)
    comp = MgardCompressor(hier, blob.tol, mode=blob.mode)
    field = comp.decompress(blob)
    np.save(args.output, field)
    print(f"{args.input} -> {args.output}: shape {field.shape}, tol {blob.tol:g}")
    return 0


def _cmd_info(args) -> int:
    try:
        fr = frame.parse(args.input)
        sizes = [fr.row(i)[1] for i in range(len(fr.rows))]
    except ContainerError as e:
        raise SystemExit(f"{args.input}: not a repro container ({e})") from None
    head = fr.header
    shape = tuple(head.get("shape", ()))
    print(
        f"{fr.magic[:4].decode()} container: shape {shape}, {len(sizes)} "
        f"{frame.TABLES[fr.magic][0]}, {fr.size} bytes, "
        f"ratio {8 * np.prod(shape) / fr.size:.1f}x"
        + "".join(f", {k} {head[k]}" for k in ("tol", "mode") if k in head)
    )
    for i, (row, nbytes) in enumerate(zip(fr.rows, sizes)):
        rows = f" rows [{row['start']}, {row['stop']})" if "start" in row else ""
        print(f"  {fr.label} {i}:{rows} {nbytes} bytes")
    # an entropy-coded payload batches every class as one segment of it
    for h in head.get("headers", ()):
        for l, seg in enumerate(h.get("segments", ())):
            print(f"    segment {l}: {seg['nbytes']} bytes ({h['backend']})")
    if head.get("attrs"):
        print(f"  attrs: {head['attrs']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tool", description="Refactor / compress .npy arrays."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refactor", help="refactor a .npy into a class container")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_refactor)

    p = sub.add_parser("reconstruct", help="reconstruct (a prefix) from a container")
    p.add_argument("input")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group()
    group.add_argument("-k", type=int, help="number of classes to use")
    group.add_argument("--tol", type=float, help="L2 tolerance (s-norm hint picks k)")
    p.set_defaults(fn=_cmd_reconstruct, usage_error=p.error)

    p = sub.add_parser("compress", help="error-bounded lossy compression")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--tol", type=float, help="absolute Linf bound")
    p.add_argument("--rel-tol", type=float, help="bound relative to the value range")
    p.add_argument("--mode", choices=["level", "uniform"], default="level")
    p.add_argument("--backend", choices=["zlib", "huffman"], default="zlib")
    p.add_argument("--verify", action="store_true", help="round-trip check before writing")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help="invert `compress`")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("info", help="describe a container/compressed file")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

#!/usr/bin/env python
"""Showcase V-A: refactoring-aware I/O for a visualization workflow.

Recreates the paper's first showcase end to end, at laptop scale:

* a Gray–Scott reaction–diffusion simulation produces a 3D field;
* the producer refactors it (printing the modeled V100 time of that
  pass) and writes the coefficient classes to a self-describing container file;
* a consumer reads only a *prefix* of classes, recomposes, and extracts
  an iso-surface, reporting the feature accuracy (the paper reaches
  ~95 % with 3 of 10 classes);
* finally the paper-scale cost model reprints Fig. 10: what a 4 TB
  write/read costs with GPU vs CPU refactoring.

Run:  python examples/visualization_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.isosurface import feature_accuracy, isosurface_area
from repro.core.classes import reconstruct_from_classes
from repro.core.refactor import Refactorer
from repro.experiments import fig10_workflow, format_fig10
from repro.gpu.analytic import model_pass
from repro.gpu.device import V100
from repro.io.container import RefactoredFileReader, write_refactored
from repro.workloads.grayscott import simulate


def main() -> None:
    # -- producer side -----------------------------------------------------
    shape = (65, 65, 65)
    print(f"running Gray-Scott on {shape} ...")
    field = simulate(shape, steps=800, params="stripes")
    iso = float(0.25 * field.max() + 0.75 * field.min())
    exact_area = isosurface_area(field, iso)
    print(f"reference iso-surface area at iso={iso:.4f}: {exact_area:.2f}")

    refactorer = Refactorer(shape)
    cc = refactorer.refactor(field)
    modeled = model_pass(refactorer.hier, V100).total_seconds
    print(
        f"refactored into {cc.n_classes} classes "
        f"(modeled V100 time: {modeled * 1e3:.2f} ms)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grayscott.rprc"
        nbytes = write_refactored(path, cc, attrs={"iso": iso, "source": "gray-scott"})
        print(f"container written: {nbytes / 1e6:.2f} MB\n")

        # -- consumer side -------------------------------------------------
        reader = RefactoredFileReader(path)
        sizes = reader.class_nbytes()
        print(f"{'classes':>8} {'bytes read':>11} {'area':>10} {'accuracy':>9}")
        for k in range(1, reader.n_classes + 1):
            classes = reader.read_classes(k)
            approx = reconstruct_from_classes(classes, refactorer.hier)
            area = isosurface_area(approx, iso)
            acc = feature_accuracy(area, exact_area)
            print(f"{k:>8} {sum(sizes[:k]):>11} {area:>10.2f} {acc:>9.3f}")

    # -- paper-scale cost model (Fig. 10) -----------------------------------
    print("\npaper-scale model (4 TB, 4096 writers / 512 readers):\n")
    print(format_fig10(fig10_workflow()))


if __name__ == "__main__":
    main()

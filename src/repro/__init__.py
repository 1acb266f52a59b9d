"""repro — multigrid-based hierarchical scientific data refactoring.

A comprehensive reproduction of *Accelerating Multigrid-based
Hierarchical Scientific Data Refactoring on GPUs* (Chen et al.,
IPDPS 2021, arXiv:2007.04457): the Ainsworth et al. refactoring
algorithms, the paper's grid-/linear-processing GPU kernel frameworks on
a simulated-GPU substrate, a weak-scaling cluster model, an MGARD-style
lossy compressor, and the I/O-workflow showcases.

Quick start::

    import numpy as np
    from repro import Refactorer

    r = Refactorer((129, 129))
    cc = r.refactor(np.random.default_rng(0).random((129, 129)))
    approx = cc.reconstruct(k=4)        # progressive recovery
    exact = cc.reconstruct()            # lossless with all classes
"""

from .core import (
    CoefficientClasses,
    Hierarchy1D,
    Refactorer,
    TensorHierarchy,
    decompose,
    dyadic_size,
    recompose,
)

__version__ = "1.0.0"

__all__ = [
    "CoefficientClasses",
    "Hierarchy1D",
    "Refactorer",
    "TensorHierarchy",
    "decompose",
    "dyadic_size",
    "recompose",
    "__version__",
]

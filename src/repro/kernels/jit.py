"""Whether :mod:`numba` is importable — read by ``benchmarks/e2e/run.py`` only.

The numba backend is gone (the compiled backend is
:mod:`repro.core.native`); nothing under ``src/`` imports this module.
It stays until the frozen end-to-end benchmark stops stamping
``numba_available`` into its records (ROADMAP item 2 drops both).
``REPRO_NO_NUMBA=1`` masks an installed numba.
"""

from __future__ import annotations

import os

__all__ = ["HAVE_NUMBA"]

HAVE_NUMBA = False

if not os.environ.get("REPRO_NO_NUMBA"):
    try:  # pragma: no cover - exercised only where numba is installed
        import numba  # noqa: F401

        HAVE_NUMBA = True
    except Exception:  # ImportError, or a broken numba install
        HAVE_NUMBA = False

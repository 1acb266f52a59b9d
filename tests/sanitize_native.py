"""A pytest plugin that builds the C kernels with AddressSanitizer + UBSan.

Selected with ``-p``; the sanitizer runtimes must be loaded before Python
opens the library, so run it as::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so):$(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src:tests \\
        python -m pytest -p sanitize_native tests/test_native_identity.py

The flags are part of the build key, so the sanitized library is built
beside the plain one and never mistaken for it.  The session fails at its
start unless the library that loads really carries the sanitizer's checks.
"""

from __future__ import annotations

import pytest

from repro.core import native

native.CFLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                 "-ffp-contract=off", "-fPIC", "-shared")


def pytest_sessionstart(session):
    path = native.library_path()
    if path is None or b"__asan_report" not in path.read_bytes():
        raise pytest.UsageError(f"no sanitized kernel library loaded ({path}): is LD_PRELOAD set?")

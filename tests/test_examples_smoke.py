"""Smoke-run the fast examples as real subprocesses.

The heavyweight showcase examples (multi-minute Gray–Scott runs) are
exercised by the benchmark harness; here we run the quick ones exactly
as a user would (``python examples/<name>.py``) so import errors, API
drift, or broken output formatting in the examples fail CI.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"

FAST_EXAMPLES = ["quickstart.py", "tiered_storage.py", "multi_gpu_scaling.py"]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 7
    for script in scripts:
        text = script.read_text()
        assert text.startswith("#!/usr/bin/env python"), script.name
        assert '"""' in text.split("\n", 2)[1] or '"""' in text, script.name

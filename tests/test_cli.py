"""Tests for the repro-bench CLI."""

import pytest

from repro.cli import EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig7", "table5", "fig9", "ablations"):
        assert name in out


def test_default_is_list(capsys):
    assert main([]) == 0
    assert "fig7" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["fig99"]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig7", "table4", "table6", "fig8", "fig9"])
def test_individual_experiments_run(name, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "ci")
    assert main([name]) == 0
    assert capsys.readouterr().out.strip()


def test_fig10_prints_the_modeled_workflow_and_the_demo(capsys):
    assert main(["fig10"]) == 0
    out = capsys.readouterr().out
    assert "I/O cost" in out
    assert "streaming write, 100 steps (modeled)" in out and "overlap gain" in out
    assert "accuracy demo" in out


def test_experiment_registry_complete():
    assert set(EXPERIMENTS) == {
        "fig7", "table2", "table3", "table4", "table5", "table6",
        "fig8", "fig9", "fig10", "fig11", "offload", "validate", "lifecycle",
        "ablations", "chaos", "service",
    }

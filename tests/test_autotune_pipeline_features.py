"""Tests for the analytic pipeline model."""

import pytest

from repro.cluster.pipeline import PipelineModel, workflow_pipeline


class TestPipelineModel:
    def test_makespan_formula(self):
        p = PipelineModel(("a", "b", "c"), (1.0, 3.0, 2.0))
        assert p.makespan(1) == pytest.approx(6.0)
        assert p.makespan(5) == pytest.approx(6.0 + 4 * 3.0)
        assert p.bottleneck == "b"

    def test_overlap_gain_approaches_stage_ratio(self):
        p = PipelineModel(("a", "b"), (1.0, 1.0))
        # two equal stages: asymptotic gain -> 2
        assert p.overlap_gain(1000) == pytest.approx(2.0, rel=0.01)

    def test_throughput(self):
        p = PipelineModel(("x",), (0.5,))
        assert p.steady_state_throughput(10**9) == pytest.approx(2e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineModel(("a",), (1.0, 2.0))
        with pytest.raises(ValueError):
            PipelineModel((), ())
        with pytest.raises(ValueError):
            PipelineModel(("a",), (-1.0,))
        with pytest.raises(ValueError):
            PipelineModel(("a",), (1.0,)).makespan(0)

    def test_workflow_pipeline_write_bound(self):
        p = workflow_pipeline(k_classes=10)
        assert p.bottleneck == "write(PFS)"  # full data: I/O dominates
        # streaming hides nearly the whole refactor cost
        assert p.overlap_gain(100) > 1.05

    def test_gpudirect_removes_transfer_stage(self):
        with_dma = workflow_pipeline(gpudirect=True)
        without = workflow_pipeline(gpudirect=False)
        assert len(without.stage_names) == len(with_dma.stage_names) + 1
        assert without.makespan(10) >= with_dma.makespan(10)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            workflow_pipeline(k_classes=99)

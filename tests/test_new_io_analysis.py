"""Tests for streaming I/O (the step stream's refactored mode)."""

import json

import numpy as np
import pytest

from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError
from repro.workloads.synthetic import smooth


class TestStepStream:
    def test_write_read_roundtrip(self, tmp_path, rng):
        shape = (33, 33)
        writer = StepStreamWriter(tmp_path, shape)
        frames = [rng.standard_normal(shape) for _ in range(3)]
        for t, f in enumerate(frames):
            assert writer.append(f, time=float(t)) == t
        reader = StepStreamReader(tmp_path)
        assert reader.n_steps == 3
        for t, f in enumerate(frames):
            full, _ = reader.read(t, k=len(reader.steps[t]["class_bytes"]))
            np.testing.assert_allclose(full, f, atol=1e-9)

    def test_tolerance_driven_read(self, tmp_path):
        shape = (65, 65)
        writer = StepStreamWriter(tmp_path, shape)
        writer.append(smooth(shape))
        reader = StepStreamReader(tmp_path)
        coarse, coarse_bytes = reader.read(0, tol=1e-1)
        fine, fine_bytes = reader.read(0, tol=1e-8)
        assert coarse_bytes < fine_bytes
        assert coarse.shape == shape

    def test_read_arg_validation(self, tmp_path, rng):
        writer = StepStreamWriter(tmp_path, (17, 17))
        writer.append(rng.standard_normal((17, 17)))
        reader = StepStreamReader(tmp_path)
        with pytest.raises(ValueError):
            reader.read(0)
        with pytest.raises(ValueError):
            reader.read(0, k=1, tol=1e-3)
        with pytest.raises(StreamError):
            reader.read(5, k=1)

    @pytest.mark.parametrize("k", [0, -1, 100])
    def test_read_bad_k_is_a_stream_error(self, tmp_path, rng, k):
        # a caller's bad argument, not file corruption: refused before
        # the step file is opened, so deleting it changes nothing
        writer = StepStreamWriter(tmp_path, (17, 17))
        writer.append(rng.standard_normal((17, 17)))
        reader = StepStreamReader(tmp_path)
        (tmp_path / reader.steps[0]["file"]).unlink()
        with pytest.raises(StreamError, match=rf"k must be in \[1, 5\], got {k}"):
            reader.read(0, k=k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_read_k_bounds_accepted(self, tmp_path, rng, k):
        field = rng.standard_normal((17, 17))
        writer = StepStreamWriter(tmp_path, (17, 17))
        writer.append(field)
        reader = StepStreamReader(tmp_path)
        out, nbytes = reader.read(0, k=k)
        assert out.shape == (17, 17)
        assert nbytes == sum(reader.steps[0]["class_bytes"][:k])
        if k == 5:
            np.testing.assert_allclose(out, field, atol=1e-9)

    @pytest.mark.parametrize("tol", [None, 1e-3], ids=["refactored", "compressed"])
    def test_manifest_steps_record_no_tier_placement(self, tmp_path, rng, tol):
        writer = StepStreamWriter(tmp_path, (17, 17), tol=tol)
        for _ in range(2):
            writer.append(rng.standard_normal((17, 17)))
        steps = json.loads((tmp_path / "manifest.json").read_text())["steps"]
        assert len(steps) == 2
        assert all("tiers" not in s for s in steps)
        assert [s["file"] for s in steps] == [s["file"] for s in StepStreamReader(tmp_path).steps]

    def test_writer_has_no_reuse_codebooks_option(self, tmp_path):
        # the writer always reuses code books; the option is gone
        with pytest.raises(TypeError, match="reuse_codebooks"):
            StepStreamWriter(tmp_path / "stream", (17, 17), reuse_codebooks=False)
        assert not (tmp_path / "stream").exists()

    def test_reopen_appends(self, tmp_path, rng):
        shape = (17, 17)
        StepStreamWriter(tmp_path, shape).append(rng.standard_normal(shape))
        w2 = StepStreamWriter(tmp_path, shape)
        assert w2.n_steps == 1
        w2.append(rng.standard_normal(shape))
        assert StepStreamReader(tmp_path).n_steps == 2

    def test_shape_conflict_rejected(self, tmp_path, rng):
        StepStreamWriter(tmp_path, (17, 17))
        with pytest.raises(StreamError):
            StepStreamWriter(tmp_path, (9, 9))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StreamError):
            StepStreamReader(tmp_path / "nope")

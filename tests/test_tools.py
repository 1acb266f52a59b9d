"""Tests for repro-tool, the compressed-file format, and paper validation."""

import numpy as np
import pytest

from repro.compress.fileio import CompressedFileError, load_compressed, save_compressed
from repro.compress.mgard import MgardCompressor
from repro.core.grid import TensorHierarchy
from repro.experiments.paper_values import format_validation, validation_report
from repro.tools import main as tool_main
from repro.workloads.synthetic import smooth


@pytest.fixture
def npy_field(tmp_path):
    data = smooth((65, 65))
    path = tmp_path / "field.npy"
    np.save(path, data)
    return path, data


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        data = smooth((33, 33))
        hier = TensorHierarchy.from_shape((33, 33))
        comp = MgardCompressor(hier, 1e-3)
        blob = comp.compress(data)
        path = tmp_path / "x.mgz"
        nbytes = save_compressed(path, blob)
        assert nbytes == path.stat().st_size
        loaded, hier2 = load_compressed(path)
        back = MgardCompressor(hier2, loaded.tol, mode=loaded.mode).decompress(loaded)
        assert np.abs(back - data).max() <= 1e-3

    def test_nonuniform_coords_embedded(self, tmp_path, rng):
        from conftest import nonuniform_coords

        shape = (33, 33)
        coords = nonuniform_coords(shape, rng)
        hier = TensorHierarchy.from_shape(shape, coords)
        data = smooth(shape)
        blob = MgardCompressor(hier, 1e-3).compress(data)
        path = tmp_path / "x.mgz"
        save_compressed(path, blob, coords=coords)
        loaded, hier2 = load_compressed(path)
        np.testing.assert_allclose(hier2.dims[0].coords, coords[0])
        back = MgardCompressor(hier2, loaded.tol).decompress(loaded)
        assert np.abs(back - data).max() <= 1e-3

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mgz"
        p.write_bytes(b"GARBAGE!" * 4)
        with pytest.raises(CompressedFileError):
            load_compressed(p)

    def test_corruption_detected(self, tmp_path):
        data = smooth((33, 33))
        hier = TensorHierarchy.from_shape((33, 33))
        blob = MgardCompressor(hier, 1e-3).compress(data)
        p = tmp_path / "x.mgz"
        save_compressed(p, blob)
        raw = bytearray(p.read_bytes())
        raw[-3] ^= 0x55
        p.write_bytes(bytes(raw))
        with pytest.raises(CompressedFileError, match="checksum"):
            load_compressed(p)


class TestReproTool:
    def test_refactor_reconstruct_roundtrip(self, npy_field, tmp_path, capsys):
        path, data = npy_field
        rprc = tmp_path / "f.rprc"
        out = tmp_path / "out.npy"
        assert tool_main(["refactor", str(path), str(rprc)]) == 0
        assert tool_main(["reconstruct", str(rprc), str(out)]) == 0
        np.testing.assert_allclose(np.load(out), data, atol=1e-9)

    def test_reconstruct_prefix(self, npy_field, tmp_path):
        path, data = npy_field
        rprc = tmp_path / "f.rprc"
        out = tmp_path / "out.npy"
        tool_main(["refactor", str(path), str(rprc)])
        assert tool_main(["reconstruct", str(rprc), str(out), "-k", "2"]) == 0
        coarse = np.load(out)
        assert coarse.shape == data.shape
        assert np.abs(coarse - data).max() > 1e-6  # genuinely approximate

    @pytest.mark.parametrize("k", ["0", "-1", "99"])
    def test_reconstruct_bad_k_is_a_usage_error(self, npy_field, tmp_path, capsys, k):
        path, _ = npy_field
        rprc = tmp_path / "f.rprc"
        tool_main(["refactor", str(path), str(rprc)])
        with pytest.raises(SystemExit) as exc:
            tool_main(["reconstruct", str(rprc), str(tmp_path / "out.npy"), "-k", k])
        assert exc.value.code == 2
        assert f"error: k must be in [1, " in capsys.readouterr().err
        assert not (tmp_path / "out.npy").exists()

    def test_reconstruct_tolerance_hint(self, npy_field, tmp_path, capsys):
        path, data = npy_field
        rprc = tmp_path / "f.rprc"
        out = tmp_path / "out.npy"
        tool_main(["refactor", str(path), str(rprc)])
        assert tool_main(["reconstruct", str(rprc), str(out), "--tol", "1e-2"]) == 0
        msg = capsys.readouterr().out
        assert "classes" in msg

    def test_compress_decompress(self, npy_field, tmp_path):
        path, data = npy_field
        mgz = tmp_path / "f.mgz"
        out = tmp_path / "out.npy"
        assert tool_main(
            ["compress", str(path), str(mgz), "--rel-tol", "1e-3", "--verify"]
        ) == 0
        assert tool_main(["decompress", str(mgz), str(out)]) == 0
        rng = data.max() - data.min()
        assert np.abs(np.load(out) - data).max() <= 1e-3 * rng

    def test_compress_requires_tolerance(self, npy_field, tmp_path):
        path, _ = npy_field
        with pytest.raises(SystemExit):
            tool_main(["compress", str(path), str(tmp_path / "x.mgz")])

    def test_info_both_formats(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        rprc = tmp_path / "f.rprc"
        mgz = tmp_path / "f.mgz"
        tool_main(["refactor", str(path), str(rprc)])
        tool_main(["compress", str(path), str(mgz), "--tol", "1e-3"])
        capsys.readouterr()
        assert tool_main(["info", str(rprc)]) == 0
        assert "classes" in capsys.readouterr().out
        assert tool_main(["info", str(mgz)]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_info_lists_segments_and_sharded_steps(self, npy_field, tmp_path, capsys):
        """A batched blob is one payload of per-class segments, not a
        "class 0"; a sharded step (.rpsh) is a container like the others;
        and the file is closed again."""
        import warnings

        from repro.io.stream import StepStreamWriter

        path, data = npy_field
        mgz = tmp_path / "f.mgz"
        tool_main(["compress", str(path), str(mgz), "--tol", "1e-3", "--backend", "huffman"])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert tool_main(["info", str(mgz)]) == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        out = capsys.readouterr().out
        assert "payload 0" in out and "class 0:" not in out
        n_classes = len(load_compressed(mgz)[0].headers[0]["segments"])
        assert out.count("(huffman)") == n_classes > 1

        StepStreamWriter(tmp_path / "s", data.shape, tol=1e-3, shards=3).append(data)
        assert tool_main(["info", str(tmp_path / "s" / "step_000000.rpsh")]) == 0
        out = capsys.readouterr().out
        assert "RPSH" in out and "3 shards" in out and "shard 2: rows [" in out

    def test_info_rejects_unknown(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"\x00" * 32)
        with pytest.raises(SystemExit):
            tool_main(["info", str(p)])


class TestPaperValidation:
    @pytest.fixture(scope="class")
    def claims(self):
        return validation_report()

    def test_every_claim_in_band(self, claims):
        failures = [c for c in claims if not c.ok]
        assert not failures, format_validation(failures)

    def test_calibration_anchors_tight(self, claims):
        anchors = [c for c in claims if c.id.startswith("t4-")]
        assert len(anchors) == 4
        for c in anchors:
            assert 0.9 < c.ratio < 1.1

    def test_memory_claims_exact(self, claims):
        for c in claims:
            if c.id.startswith("mem-"):
                assert abs(c.ratio - 1.0) < 0.03

    def test_report_formats(self, claims):
        text = format_validation(claims)
        assert "Validation" in text and "ok" in text

"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro.analysis.isosurface import contour_length, feature_accuracy
from repro.compress.mgard import MgardCompressor
from repro.core.grid import TensorHierarchy
from repro.core.refactor import Refactorer
from repro.io.container import RefactoredFileReader, write_refactored
from repro.workloads.grayscott import simulate


class TestGrayScottPipeline:
    """The paper's data path: simulation -> refactor -> store -> analyze."""

    @pytest.fixture(scope="class")
    def field(self):
        return simulate((65, 65), steps=1200, params="stripes")

    def test_refactor_roundtrip_on_simulation_output(self, field):
        r = Refactorer(field.shape)
        np.testing.assert_allclose(
            r.recompose(r.decompose(field)), field, atol=1e-10
        )

    def test_progressive_feature_accuracy(self, field):
        r = Refactorer(field.shape)
        cc = r.refactor(field)
        iso = float(0.5 * (field.min() + field.max()))
        exact = contour_length(field, iso)
        accs = [
            feature_accuracy(contour_length(cc.reconstruct(k), iso), exact)
            for k in range(1, cc.n_classes + 1)
        ]
        assert accs[-1] > 0.9999
        # a strict prefix already reaches the paper's ~95% regime
        assert max(accs[:-2]) > 0.9

    def test_file_then_compress_consistency(self, field, tmp_path):
        r = Refactorer(field.shape)
        cc = r.refactor(field)
        path = tmp_path / "sim.rprc"
        write_refactored(path, cc, attrs={"source": "gray-scott"})
        reloaded = RefactoredFileReader(path).to_coefficient_classes()
        np.testing.assert_array_equal(
            reloaded.reconstruct(), cc.reconstruct()
        )
        # compress the same field with a bound tied to its range
        tol = 1e-3 * float(field.max() - field.min() + 1e-30)
        comp = MgardCompressor(r.hier, tol)
        blob = comp.compress(field)
        assert np.abs(comp.decompress(blob) - field).max() <= tol
        assert blob.compression_ratio() > 3


class TestEngineParityFullPipeline:
    def test_metered_speedup_matches_table5_regime(self):
        from repro.gpu.analytic import model_pass
        from repro.gpu.device import POWER9_CORE, V100
        from repro.kernels.launches import CPU_BASELINE_OPTIONS

        h = TensorHierarchy.from_shape((513, 513))
        gpu = model_pass(h, V100).total_seconds
        cpu = model_pass(h, POWER9_CORE, CPU_BASELINE_OPTIONS).total_seconds
        # paper Table V, 513^2 Summit: 19.46x; our model ~25x; demand the band
        assert 10 < cpu / gpu < 60


class TestRefactorerSurface:
    def test_repr_and_properties(self):
        r = Refactorer((33, 17))
        assert r.shape == (33, 17)
        assert r.levels == 5
        assert r.n_classes == 6
        assert "33" in repr(r)

    def test_reconstruct_checks_grid(self, rng):
        r1 = Refactorer((17, 17))
        r2 = Refactorer((9, 9))
        cc = r1.refactor(rng.standard_normal((17, 17)))
        with pytest.raises(ValueError):
            r2.reconstruct(cc)

    def test_public_package_exports(self):
        import repro

        assert repro.__version__
        for name in ("Refactorer", "TensorHierarchy", "decompose", "recompose"):
            assert hasattr(repro, name)

"""Tests for storage tiers, the refactored-data container, and workflows."""

import json

import numpy as np
import pytest

from repro.core.refactor import Refactorer
from repro.io.container import (
    ContainerError,
    RefactoredFileReader,
    write_refactored,
)
from repro.io.storage import ALPINE_PFS, ARCHIVE_TIER, NVME_TIER, StorageTier, TieredStorage
from repro.io.workflow import model_workflow, run_workflow_demo
from repro.workloads.synthetic import smooth


class TestStorageTier:
    def test_write_seconds_scaling(self):
        t1 = ALPINE_PFS.write_seconds(10**12, n_processes=4096)
        t2 = ALPINE_PFS.write_seconds(2 * 10**12, n_processes=4096)
        assert t2 > t1
        # aggregate-bound at high process counts: bytes dominate
        assert t2 - ALPINE_PFS.latency_s == pytest.approx(
            2 * (t1 - ALPINE_PFS.latency_s)
        )

    def test_per_process_cap(self):
        few = ALPINE_PFS.write_seconds(10**11, n_processes=1)
        many = ALPINE_PFS.write_seconds(10**11, n_processes=512)
        assert few > many

    def test_archive_slowest(self):
        n = 10**11
        assert ARCHIVE_TIER.read_seconds(n, 64) > ALPINE_PFS.read_seconds(n, 64)
        assert NVME_TIER.latency_s < ALPINE_PFS.latency_s

    def test_tiered_placement_spills(self):
        ts = TieredStorage([NVME_TIER, ALPINE_PFS, ARCHIVE_TIER])
        sizes = [100, 200, 400, 800, 1600]
        placement = ts.place_classes(sizes, fast_budget_bytes=750)
        assert placement[0] == 0
        assert placement[-1] >= 1
        assert all(a <= b for a, b in zip(placement[:-1], placement[1:]))

    def test_tiered_read_prefix_only(self):
        ts = TieredStorage([NVME_TIER, ARCHIVE_TIER])
        sizes = [10**9] * 4
        placement = [0, 0, 1, 1]
        fast_only = ts.read_seconds(sizes, placement, n_processes=8, k=2)
        with_archive = ts.read_seconds(sizes, placement, n_processes=8, k=3)
        assert with_archive > fast_only

    def test_empty_tier_list(self):
        with pytest.raises(ValueError):
            TieredStorage([])


class TestTierPlacement:
    """The greedy coarse-to-fine placement and the modeled tier times."""

    def test_class_filling_the_budget_stays_fast(self):
        ts = TieredStorage([NVME_TIER, ALPINE_PFS])
        assert ts.place_classes([100, 200], fast_budget_bytes=300) == [0, 0]
        assert ts.place_classes([100, 200], fast_budget_bytes=299) == [0, 1]

    def test_zero_budget_spills_every_class(self):
        ts = TieredStorage([NVME_TIER, ALPINE_PFS, ARCHIVE_TIER])
        assert ts.place_classes([1, 2, 3], fast_budget_bytes=0) == [1, 1, 1]

    def test_single_tier_takes_every_class(self):
        ts = TieredStorage([ALPINE_PFS])
        assert ts.place_classes([10**15, 10**15], fast_budget_bytes=0) == [0, 0]

    def test_spilled_tier_budget_is_its_capacity(self):
        mid = StorageTier("mid", 100.0, 100.0, 1.0, 0.1, capacity_tb=1e-9)  # 1000 B
        ts = TieredStorage([NVME_TIER, mid, ARCHIVE_TIER])
        assert ts.place_classes([100, 600, 400, 1], fast_budget_bytes=100) == [0, 1, 1, 2]

    def test_write_time_is_the_slowest_tier(self):
        ts = TieredStorage([NVME_TIER, ARCHIVE_TIER])
        sizes = [10**9, 2 * 10**9, 4 * 10**9]
        placement = [0, 0, 1]
        expected = max(
            NVME_TIER.write_seconds(3 * 10**9, 16),
            ARCHIVE_TIER.write_seconds(4 * 10**9, 16),
        )
        assert ts.write_seconds(sizes, placement, n_processes=16) == pytest.approx(expected)

    def test_reading_no_classes_is_free(self):
        ts = TieredStorage([NVME_TIER, ARCHIVE_TIER])
        assert ts.read_seconds([10**9, 10**9], [0, 1], n_processes=8, k=0) == 0.0


class TestContainer:
    def _cc(self, rng, shape=(33, 17)):
        return Refactorer(shape).refactor(rng.standard_normal(shape))

    def test_write_read_roundtrip(self, rng, tmp_path):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        nbytes = write_refactored(path, cc, attrs={"var": "v"})
        assert nbytes == path.stat().st_size
        reader = RefactoredFileReader(path)
        assert reader.shape == (33, 17)
        assert reader.attrs == {"var": "v"}
        back = reader.to_coefficient_classes()
        for a, b in zip(back.classes, cc.classes):
            np.testing.assert_array_equal(a, b)

    def test_prefix_read_bytes(self, rng, tmp_path):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        reader = RefactoredFileReader(path)
        classes = reader.read_classes(3)
        assert len(classes) == 3
        for got, ref in zip(classes, cc.classes):
            np.testing.assert_array_equal(got, ref)

    def test_reconstruction_from_file_prefix(self, rng, tmp_path):
        shape = (65, 65)
        data = smooth(shape)
        r = Refactorer(shape)
        cc = r.refactor(data)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        reader = RefactoredFileReader(path)
        from repro.core.classes import reconstruct_from_classes

        full = reconstruct_from_classes(reader.read_classes(), r.hier)
        np.testing.assert_allclose(full, data, atol=1e-9)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.rprc"
        p.write_bytes(b"NOTAFILE" * 4)
        with pytest.raises(ContainerError, match="magic"):
            RefactoredFileReader(p)

    def test_checksum_detects_corruption(self, rng, tmp_path):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # flip a payload bit in the last class
        path.write_bytes(bytes(raw))
        reader = RefactoredFileReader(path)
        with pytest.raises(ContainerError, match="checksum"):
            reader.read_classes()
        # unverified read still possible (e.g. best-effort recovery)
        reader.read_classes(verify=False)

    def test_class_index_range(self, rng, tmp_path):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        reader = RefactoredFileReader(path)
        with pytest.raises(ContainerError):
            reader.read_class(99)
        with pytest.raises(ValueError):  # a bad prefix length is the caller's
            reader.read_classes(0)

    def test_hierarchy_shape_mismatch(self, rng, tmp_path):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        from repro.core.grid import TensorHierarchy

        with pytest.raises(ContainerError):
            RefactoredFileReader(path).to_coefficient_classes(
                TensorHierarchy.from_shape((9, 9))
            )

    @pytest.mark.parametrize("k", [0, -1, 99])
    def test_a_bad_prefix_length_is_the_callers_error(self, rng, tmp_path, k):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        reader = RefactoredFileReader(path)
        with pytest.raises(ValueError, match=rf"k must be in \[1, {cc.n_classes}\], got {k}"):
            reader.read_classes(k)
        path.write_bytes(path.read_bytes()[:-8])  # a torn file is still the file's
        with pytest.raises(ContainerError):
            RefactoredFileReader(path).read_classes(cc.n_classes)

    def test_header_is_json(self, rng, tmp_path):
        cc = self._cc(rng)
        path = tmp_path / "d.rprc"
        write_refactored(path, cc)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[6:14], "little")
        header = json.loads(raw[14 : 14 + hlen])
        assert header["n_classes"] == cc.n_classes


class TestWorkflow:
    def test_model_monotone_bytes(self):
        pts = model_workflow(per_process_shape=(129, 129, 129), n_processes=64)
        sizes = [p.bytes_stored for p in pts]
        assert all(a < b for a, b in zip(sizes[:-1], sizes[1:]))
        assert sizes[-1] == 129**3 * 8 * 64

    def test_gpu_refactor_cheaper_than_cpu(self):
        gpu = model_workflow(use_gpu=True, ks=(3,))[0]
        cpu = model_workflow(use_gpu=False, ks=(3,))[0]
        assert gpu.refactor_seconds < cpu.refactor_seconds / 20
        assert gpu.io_seconds == cpu.io_seconds

    def test_refactoring_reduces_io_cost(self):
        """The paper's headline: storing 3/10 classes cuts total write cost
        (GPU refactor + write) well below writing the raw data."""
        pts = model_workflow(use_gpu=True, ks=(3, 10))
        raw_write = ALPINE_PFS.write_seconds(pts[-1].bytes_stored, 4096)
        assert pts[0].total_seconds < 0.5 * raw_write

    def test_model_validation(self):
        with pytest.raises(ValueError):
            model_workflow(operation="shred")
        with pytest.raises(ValueError):
            model_workflow(ks=(99,))

    def test_demo_2d(self, rng, tmp_path):
        data = smooth((65, 65))
        iso = float(np.median(data))
        res = run_workflow_demo(data, iso, workdir=tmp_path)
        assert res[-1].accuracy > 0.999
        assert all(a.bytes_read < b.bytes_read for a, b in zip(res[:-1], res[1:]))

    def test_demo_accuracy_reaches_high_before_full(self):
        data = smooth((65, 65, 65)[:2])  # 2D for speed
        iso = float(np.median(data))
        res = run_workflow_demo(data, iso)
        # a strict prefix should already be accurate for smooth data
        assert any(r.accuracy > 0.95 for r in res[:-2])

    def test_demo_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            run_workflow_demo(rng.standard_normal(65), 0.0)

"""Tests for launch-record builders and the Algorithm-3 walk."""

import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy
from repro.kernels import launches as L

from conftest import record_kernel_calls


class TestEngineOptions:
    def test_defaults(self):
        o = L.EngineOptions()
        assert o.framework == "lpf" and o.pack_nodes and o.divergence_free

    def test_invalid_framework(self):
        with pytest.raises(ValueError):
            L.EngineOptions(framework="magic")

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            L.EngineOptions(n_streams=0)


class TestBuilders:
    def test_coefficients_divergence_flag(self):
        a = L.coefficients_launch((9, 9), opts=L.EngineOptions(), level=1, stride=4)
        b = L.coefficients_launch(
            (9, 9), opts=L.EngineOptions(divergence_free=False), level=1, stride=4
        )
        assert a.divergence == 1.0 and b.divergence > 1.0

    def test_coefficients_3d_occupancy_cap(self):
        a = L.coefficients_launch((9, 9, 9), opts=L.EngineOptions(), level=1, stride=1)
        b = L.coefficients_launch((9, 9), opts=L.EngineOptions(), level=1, stride=1)
        assert a.occupancy_cap < b.occupancy_cap == 1.0

    def test_packing_removes_stride(self):
        packed = L.mass_launch((9, 9), 0, opts=L.EngineOptions(), level=1, stride=16)
        strided = L.mass_launch(
            (9, 9), 0, opts=L.EngineOptions(pack_nodes=False), level=1, stride=16
        )
        assert packed.stride == 1 and strided.stride == 16

    def test_naive_is_vector_wise(self):
        o = L.EngineOptions(framework="naive", pack_nodes=False)
        rec = L.mass_launch((64, 128), 1, opts=o, level=1, stride=2)
        assert rec.threads == 64  # one thread per vector
        assert rec.n_launches == 1

    def test_lpf_3d_slices(self):
        rec = L.mass_launch((65, 33, 17), 0, opts=L.EngineOptions(), level=1, stride=1)
        # plane = axis0 x largest other (33); slices along the remaining (17)
        assert rec.n_launches == 17

    def test_transfer_output_bytes_shrink(self):
        rec = L.transfer_launch((17, 17), 0, 9, opts=L.EngineOptions(), level=1, stride=1)
        assert rec.bytes_written < rec.bytes_read

    def test_solve_chain_length(self):
        rec = L.solve_launch((9, 17), 0, opts=L.EngineOptions(), level=1, stride=1)
        assert rec.chain_length == 18
        assert rec.threads == 17  # one per vector

    def test_solve_elementwise_pcr(self):
        rec = L.solve_launch(
            (9, 17), 0, opts=L.EngineOptions(framework="elementwise"), level=1, stride=1
        )
        assert rec.threads == 9 * 17
        assert rec.chain_length < 18  # log depth

    def test_category_mapping_total(self):
        h = TensorHierarchy.from_shape((17, 17))
        cats = {
            L.category_of(r)
            for r in L.iter_decompose_launches(h, L.EngineOptions(), "decompose")
        }
        assert cats == {"CC", "MM", "TM", "SC", "MC", "PN"}


def _assert_driver_kernels_equal_walk(h, opts, operation, rng, monkeypatch):
    """The kernel calls of one driver pass, turned into launch records with
    the builders above, are the walk's CC/MM/TM/SC records in order (the fused
    ``mass_transfer_apply`` is the paper's ``mass`` + ``transfer`` pair)."""
    calls = record_kernel_calls(monkeypatch)
    (decompose if operation == "decompose" else recompose)(rng.standard_normal(h.shape), h)
    monkeypatch.undo()
    records = []
    for name, args, _, _ in calls:
        shape, axis, l = args[0].shape, args[-1], args[-1]  # (v|c, ..., hier, l) or (f, ops, axis)
        if name in ("mass_transfer_apply", "solve_correction"):
            l = next(l for l in range(1, h.L + 1)
                     if h.coarsens(l, axis) and h.level_ops(l, axis) is args[1])
        common = dict(opts=opts, level=l, stride=h.level_stride(l, h.ndim - 1))
        if name == "solve_correction":
            records.append(L.solve_launch(shape, axis, **common))
        elif name == "mass_transfer_apply":
            records.append(L.mass_launch(shape, axis, **common))
            records.append(L.transfer_launch(shape, axis, args[1].m_coarse, **common))
        else:
            restore = name == "restore_from_coefficients"
            records.append(L.coefficients_launch(shape, restore=restore, **common))
    walk = [r for r in L.iter_decompose_launches(h, opts, operation)
            if L.category_of(r) in ("CC", "MM", "TM", "SC")]
    assert records and walk == records


class TestWalkMatchesEngines:
    """The walk against the one driver (once: against metered engines threaded
    through it).  ``MC``/``PN`` records have no functional counterpart — the
    host driver elides those movements — so the walk alone owns them."""

    @pytest.mark.parametrize("shape", [(33, 17), (9, 9, 9), (65,), (16, 7)])
    @pytest.mark.parametrize("operation", ["decompose", "recompose"])
    def test_gpu_engine_records_equal_walk(self, shape, operation, rng, monkeypatch):
        h = TensorHierarchy.from_shape(shape)
        _assert_driver_kernels_equal_walk(h, L.EngineOptions(), operation, rng, monkeypatch)

    def test_cpu_engine_records_equal_walk(self, rng, monkeypatch):
        h = TensorHierarchy.from_shape((33, 17))
        _assert_driver_kernels_equal_walk(h, L.CPU_BASELINE_OPTIONS, "decompose", rng, monkeypatch)

    def test_walk_rejects_unknown_operation(self):
        h = TensorHierarchy.from_shape((9,))
        with pytest.raises(ValueError):
            list(L.iter_decompose_launches(h, L.EngineOptions(), "transmogrify"))

    def test_trivial_hierarchy_single_copy(self):
        h = TensorHierarchy.from_shape((2, 2))
        recs = list(L.iter_decompose_launches(h, L.EngineOptions(), "decompose"))
        assert len(recs) == 1 and recs[0].name == "copy"


class TestMeteredEngineBookkeeping:
    def test_cpu_report_folds_pn_into_mc(self):
        """The CPU baseline packs nothing: its ``PN`` traffic is booked as ``MC``."""
        from repro.gpu.analytic import model_pass_shape
        from repro.gpu.device import POWER9_CORE, V100

        cpu = model_pass_shape((33, 33), POWER9_CORE, L.CPU_BASELINE_OPTIONS).category_seconds
        assert "PN" not in cpu and cpu["MC"] > 0
        assert model_pass_shape((33, 33), V100).category_seconds["PN"] > 0

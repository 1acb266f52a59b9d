"""Table IV: end-to-end time breakdown of decomposition/recomposition.

Functional part: times full decompositions and recompositions on the
host.  Modeled part: the paper-scale Table IV (2D 8193², 3D 513³).
"""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import hierarchy_for
from repro.experiments import bench_scale, format_table4, table4_breakdown


@pytest.fixture(scope="module")
def data_2d(rng):
    side = min(bench_scale().side_2d, 2049)
    return rng.standard_normal((side, side))


def test_decompose_2d(benchmark, data_2d):
    h = hierarchy_for(data_2d.shape)
    out = benchmark(decompose, data_2d, h)
    assert out.shape == data_2d.shape


def test_recompose_2d(benchmark, data_2d):
    h = hierarchy_for(data_2d.shape)
    ref = decompose(data_2d, h)
    out = benchmark(recompose, ref, h)
    np.testing.assert_allclose(out, data_2d, atol=1e-8)


def test_table4(benchmark, report):
    rows = benchmark(table4_breakdown)
    report("table4_time_breakdown", format_table4(rows))
    # CPU totals at paper scale land in the paper's tens-of-seconds regime
    cpu_2d = [r for r in rows if "POWER9" in r.hardware and len(r.shape) == 2]
    assert 8 < cpu_2d[0].total < 30  # paper: 15.07 s

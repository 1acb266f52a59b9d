"""Table V: one GPU vs one CPU core across grid sizes + extra memory.

The full modeled Table V sweep; at paper scale the speedups must land in
the paper's band.
"""

from repro.experiments import bench_scale, format_table5, table5_end_to_end


def test_table5(benchmark, report):
    s = bench_scale()
    rows = benchmark(table5_end_to_end, s.sweep_2d, s.sweep_3d)
    report("table5_end_to_end", format_table5(rows))
    largest_2d = [r for r in rows if len(r.shape) == 2][-1]
    if s.name == "paper":
        # paper: 311x Summit / 102x desktop at 8193^2
        assert 150 < largest_2d.summit_decompose < 600
        assert 50 < largest_2d.desktop_decompose < 250

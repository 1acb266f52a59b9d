"""Ablation benches: what each of the paper's design choices is worth."""

from repro.experiments import ablation_sweep, format_ablations


def test_ablation_tables(benchmark, report):
    def build():
        return {
            "2d": ablation_sweep((4097, 4097)),
            "3d": ablation_sweep((257, 257, 257)),
        }

    tables = benchmark(build)
    text = "\n\n".join(format_ablations(v) for v in tables.values())
    report("ablations", text)
    rows_2d = {r.name: r for r in tables["2d"]}
    assert rows_2d["no node packing"].slowdown > 1.1
    assert rows_2d["naive linear kernels"].slowdown > 2.0

"""Repository quality gates: docs consistency, docstring coverage, workloads.

Not algorithm tests — invariants about the repo itself, so documentation
and public API cannot silently drift from the code.
"""

import inspect
import pathlib

import numpy as np
import pytest

import repro
import repro.analysis as analysis
import repro.cluster as cluster
import repro.compress as compress
import repro.core as core
import repro.experiments as experiments
import repro.gpu as gpu
import repro.io as io_pkg
import repro.kernels as kernels
import repro.workloads as workloads
from repro.cli import EXPERIMENTS

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDocsConsistency:
    def test_every_cli_experiment_in_readme_or_experiments_md(self):
        text = (REPO / "README.md").read_text() + (REPO / "EXPERIMENTS.md").read_text()
        for name in EXPERIMENTS:
            if name in ("lifecycle",):
                continue  # extension experiments live in docs/
            assert name in text, f"experiment {name!r} undocumented"

    def test_design_md_names_the_right_paper(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "Accelerating Multigrid-based Hierarchical Scientific Data" in text
        assert "2007.04457" in text

    def test_examples_listed_in_readme_exist_and_vice_versa(self):
        readme = (REPO / "README.md").read_text()
        on_disk = {p.name for p in (REPO / "examples").glob("*.py")}
        listed = {
            line.split("`")[1].split("/")[-1]
            for line in readme.splitlines()
            if line.startswith("| `examples/")
        }
        assert listed <= on_disk, f"listed but missing: {listed - on_disk}"
        # every example on disk should be runnable documentation; allow at
        # most one unlisted scratch script
        assert len(on_disk - listed) <= 1, f"undocumented examples: {on_disk - listed}"

    def test_benchmarks_cover_every_paper_artifact(self):
        bench_names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for artifact in ("fig7", "table2", "table3", "table4", "table5",
                         "table6", "fig8", "fig9", "fig10", "fig11"):
            assert any(artifact in b for b in bench_names), artifact


class TestEveryModuleIsReached:
    """A module under ``src/repro`` has a caller under ``src/``: a script
    entry, or a module that itself has one.  A package ``__init__`` is not a
    caller — a re-export counts once some module imports that name through
    the package (or takes the package whole, as ``cli`` does ``experiments``)."""

    #: unreached on purpose — each entry with the reason it stays
    ALLOWED = {
        ("repro.kernels.jit",):
            "the frozen end-to-end benchmark stamps HAVE_NUMBA into its records",
        ("repro.kernels.grid_processing", "repro.kernels.linear_processing",
         "repro.kernels.batch3d"):
            "the paper's §III literal designs: the oracle of tests/literal_pipeline.py "
            "and benchmarks/bench_table3",
        ("repro.core.mass",):
            "the unfused mass kernel the R·M stencil is tested against",
        ("repro.workloads.synthetic",):
            "the fields tests/, benchmarks/ and examples/ run on; experiments use Gray–Scott",
    }

    def test_no_module_is_unreached(self):
        import ast
        import tomllib

        from tools.reprolint.core import load_module
        from tools.reprolint.rules.import_boundaries import _resolve

        mods = {m.modname: m for m in (load_module(path, REPO)[0]
                                       for path in sorted((REPO / "src/repro").rglob("*.py")))}
        project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
        scripts = {target.split(":")[0] for target in project["scripts"].values()}

        def imported(m):
            for node in ast.walk(m.tree):
                if isinstance(node, ast.Import):
                    yield from ((a.name, None) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    yield from ((_resolve(m, node), a.name) for a in node.names)

        def modules_behind(base, name):
            full = f"{base}.{name}" if name else base
            if full in mods and not mods[full].is_package_init:
                return {full}
            if full in mods:  # a package taken whole: whatever its __init__ imports
                return set().union(*(modules_behind(b, n) for b, n in imported(mods[full])))
            if base in mods and mods[base].is_package_init:  # one re-exported name
                return set().union(*(modules_behind(b, n)
                                     for b, n in imported(mods[base]) if n == name))
            return {base} if base in mods else set()

        uses = {name: set().union(*(modules_behind(b, n) for b, n in imported(m))) - {name}
                for name, m in mods.items() if not m.is_package_init}
        live, unreached = set(uses), set()
        while orphans := live - scripts.union(*(uses[name] for name in live)):
            unreached |= orphans  # and what only they imported goes with them
            live -= orphans
        allowed = {name for entry in self.ALLOWED for name in entry}
        assert len(self.ALLOWED) <= 5 and all(self.ALLOWED.values())
        assert not unreached - allowed, f"no caller under src/: {sorted(unreached - allowed)}"
        assert not allowed - unreached, f"allow-listed, yet reached: {sorted(allowed - unreached)}"


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module",
        [repro, core, gpu, kernels, cluster, compress, io_pkg, workloads,
         analysis, experiments],
        ids=lambda m: m.__name__,
    )
    def test_public_api_documented(self, module):
        missing = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.ismodule(obj) or isinstance(obj, (int, float, str, tuple, dict)):
                continue
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public API: {missing}"

    def test_all_exports_resolve(self):
        for module in (core, gpu, kernels, cluster, compress, io_pkg,
                       workloads, analysis, experiments):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestTurbulenceWorkload:
    def test_spectral_slope(self):
        from repro.workloads import turbulence

        f = turbulence((128, 128), slope=-5.0 / 3.0)
        # radially averaged power spectrum over unit-wide wavenumber shells
        freq = np.fft.fftfreq(128) * 128
        shell = np.hypot(*np.meshgrid(freq, freq, indexing="ij")).astype(int).ravel()
        p = np.bincount(shell, np.abs(np.fft.fft2(f)).ravel() ** 2) / np.bincount(shell)
        k = np.arange(p.size) + 0.5
        mask = (k > 3) & (k < 40) & (p > 0)
        slope = np.polyfit(np.log(k[mask]), np.log(p[mask]), 1)[0]
        assert slope == pytest.approx(-5.0 / 3.0, abs=0.4)

    def test_normalized(self):
        from repro.workloads import turbulence

        f = turbulence((64, 64))
        assert abs(f.mean()) < 1e-10
        assert f.std() == pytest.approx(1.0)

    def test_sits_between_smooth_and_noise_in_compressibility(self):
        from repro.compress.mgard import MgardCompressor
        from repro.core.grid import TensorHierarchy
        from repro.workloads import smooth, turbulence, white_noise

        shape = (65, 65)
        hier = TensorHierarchy.from_shape(shape)
        tol = 1e-2

        def ratio(d):
            span = float(d.max() - d.min())
            return MgardCompressor(hier, tol * span).compress(d).compression_ratio()

        r_smooth = ratio(smooth(shape))
        r_turb = ratio(turbulence(shape))
        r_noise = ratio(white_noise(shape))
        assert r_smooth > r_turb > r_noise

    def test_roundtrip(self, rng):
        from repro.core.refactor import Refactorer
        from repro.workloads import turbulence

        data = turbulence((33, 33, 33))
        r = Refactorer(data.shape)
        np.testing.assert_allclose(r.recompose(r.decompose(data)), data, atol=1e-9)

"""``repro-lint``: the whole-program invariant checker (PR 10).

Three layers of coverage:

* **framework** — suppression grammar (tokenized comments, mandatory
  justification, docstring markers inert), fingerprinted baseline,
  syntax-error findings, CLI exit codes and JSON shape;
* **per-rule seeded regressions** — for each of the seven rules, a tiny
  fixture tree that plants the exact regression the rule exists to
  catch, asserted through the same CLI entry CI runs (exit 1), plus the
  suppressed and clean variants (exit 0);
* **the real tree** — the repository itself lints clean, and the
  generated fault-site registry proves every site instrumented and
  exercised.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import make_rules, rule_names, run_lint
from tools.reprolint.cli import main as lint_main
from tools.reprolint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]

#: a minimal faults.py so the fault-site rule has a registry to check
FAULTS_SRC = """
KINDS = ("crash", "error", "truncate", "bitflip", "kill", "delay")
SITES = {
    "alpha.step.pre": "before the write",
    "alpha.read.*": "per-extent reads",
}
"""


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return root


def lint_json(root: Path, *args, capsys) -> tuple[int, dict]:
    code = lint_main(["--root", str(root), "--json", *args])
    return code, json.loads(capsys.readouterr().out)


def rules_of(doc: dict, *, new_only: bool = True) -> set[str]:
    return {
        f["rule"]
        for f in doc["findings"]
        if not new_only or not (f["suppressed"] or f["baselined"])
    }


# ----------------------------------------------------------------------
# framework: suppressions, baseline, hygiene, CLI


class TestFramework:
    def test_suppression_needs_justification(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                try:
                    step()
                except BaseException:  # reprolint: ok crash-swallow
                    pass
            """,
        })
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 1
        assert rules_of(doc) == {"lint-hygiene", "crash-swallow"}

    def test_justified_suppression_accepted(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                try:
                    step()
                except BaseException:  # reprolint: ok crash-swallow - recorded by the host harness
                    pass
            """,
        })
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 0
        supp = [f for f in doc["findings"] if f["suppressed"]]
        assert [f["rule"] for f in supp] == ["crash-swallow"]

    def test_standalone_comment_binds_next_line(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                try:
                    step()
                # reprolint: ok crash-swallow - host re-raises from the report
                except BaseException:
                    pass
            """,
        })
        code, _ = lint_json(tmp_path, capsys=capsys)
        assert code == 0

    def test_docstring_marker_is_inert(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": '''
                def f():
                    """Suppress findings with '# reprolint: ok <rule>'."""
                    return 1
            ''',
        })
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 0 and not doc["findings"]

    def test_syntax_error_is_a_finding(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/mod.py": "def broken(:\n"})
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 1
        assert rules_of(doc) == {"parse"}

    def test_baseline_grandfathers_then_catches_new(self, tmp_path, capsys):
        bad = """
            try:
                step()
            except BaseException:
                pass
        """
        make_tree(tmp_path, {"src/repro/mod.py": bad})
        assert lint_main(["--root", str(tmp_path), "--update-baseline"]) == 0
        capsys.readouterr()
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 0
        assert [f["rule"] for f in doc["findings"] if f["baselined"]] == ["crash-swallow"]
        # a second regression is new even with the baseline armed
        make_tree(tmp_path, {"src/repro/other.py": bad})
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 1
        assert [f["path"] for f in doc["findings"] if not f["baselined"]] == [
            "src/repro/other.py"
        ]

    def test_baseline_fingerprint_survives_line_drift(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                try:
                    step()
                except BaseException:
                    pass
            """,
        })
        assert lint_main(["--root", str(tmp_path), "--update-baseline"]) == 0
        capsys.readouterr()
        # prepend code: the finding moves lines but keeps its fingerprint
        p = tmp_path / "src/repro/mod.py"
        p.write_text("import os\n\n\n" + p.read_text())
        code, _ = lint_json(tmp_path, capsys=capsys)
        assert code == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in rule_names():
            assert name in out
        assert len(ALL_RULES) == 6

    def test_unknown_rule_and_path_are_usage_errors(self, tmp_path):
        make_tree(tmp_path, {"src/repro/mod.py": "x = 1\n"})
        assert lint_main(["--root", str(tmp_path), "--rules", "no-such"]) == 2
        assert lint_main(["--root", str(tmp_path), "no/such/dir"]) == 2

    def test_json_shape(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/mod.py": "x = 1\n"})
        code, doc = lint_json(tmp_path, capsys=capsys)
        assert code == 0
        assert doc["version"] == 1
        assert set(doc["summary"]) == {"total", "new", "suppressed", "baselined", "by_rule"}
        assert doc["files_checked"] == 1
        assert sorted(doc["rules"]) == sorted(rule_names())


# ----------------------------------------------------------------------
# per-rule seeded regressions, through the CLI entry that CI runs


class TestFaultSiteRule:
    def test_unregistered_literal_site(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/faults.py": FAULTS_SRC,
            "src/repro/mod.py": """
                from repro import faults
                faults.crash_point("alpha.step.typo")
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert code == 1
        msgs = [f["message"] for f in doc["findings"]]
        assert any("alpha.step.typo" in m and "not registered" in m for m in msgs)

    def test_family_pattern_matches(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/faults.py": FAULTS_SRC,
            "src/repro/mod.py": """
                from repro import faults
                faults.delay_point("alpha.read.extent 3")
                faults.crash_point("alpha.step.pre")
            """,
            "tests/test_mod.py": """
                PLAN = "crash@alpha.step.pre:count=1, delay@alpha.read.*"
            """,
        })
        lint_main(["--root", str(tmp_path), "--write-registry"])
        capsys.readouterr()
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert code == 0 and not doc["findings"]

    def test_dynamic_site_requires_annotation(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/faults.py": FAULTS_SRC,
            "src/repro/mod.py": """
                from repro import faults
                def f(what):
                    faults.crash_point(f"alpha.read.{what}")
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert code == 1
        assert any("dynamic fault-site" in f["message"] for f in doc["findings"])
        # the annotation names the family and clears the finding
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                from repro import faults
                def f(what):
                    faults.crash_point(f"alpha.read.{what}")  # reprolint: site alpha.read.*
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert not any("dynamic fault-site" in f["message"] for f in doc["findings"])

    def test_unexercised_and_uninstrumented_sites(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/faults.py": FAULTS_SRC,
            "src/repro/mod.py": """
                from repro import faults
                faults.crash_point("alpha.step.pre")
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert code == 1
        msgs = " | ".join(f["message"] for f in doc["findings"])
        assert "'alpha.step.pre' is not exercised" in msgs
        assert "'alpha.read.*' is never instrumented" in msgs

    def test_stale_registry_snapshot(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/faults.py": FAULTS_SRC,
            "src/repro/mod.py": """
                from repro import faults
                faults.crash_point("alpha.step.pre")
                faults.delay_point("alpha.read.x")
            """,
            "tests/test_mod.py": 'PLAN = "crash@alpha.*"\n',
        })
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert code == 1
        assert any("out of date" in f["message"] for f in doc["findings"])
        assert lint_main(["--root", str(tmp_path), "--write-registry"]) == 0
        capsys.readouterr()
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        assert code == 0

    def test_template_plan_widening_is_not_vacuous(self, tmp_path, capsys):
        # an f-string plan template exercises nothing by itself; the
        # site literals formatted into it carry the evidence
        make_tree(tmp_path, {
            "src/repro/faults.py": FAULTS_SRC,
            "src/repro/mod.py": """
                from repro import faults
                faults.crash_point("alpha.step.pre")
                faults.delay_point("alpha.read.x")
            """,
            "tests/test_mod.py": """
                SITES = ["alpha.step.pre"]
                def plan(site):
                    return f"crash@{site}:count=1"
            """,
        })
        lint_main(["--root", str(tmp_path), "--write-registry"])
        capsys.readouterr()
        code, doc = lint_json(tmp_path, "--rules", "fault-site", capsys=capsys)
        msgs = " | ".join(f["message"] for f in doc["findings"])
        assert "'alpha.read.*' is not exercised" in msgs  # template proved nothing
        assert "alpha.step.pre" not in msgs  # the literal proved this one


class TestCrashSwallowRule:
    BAD = {
        "bare": """
            try:
                step()
            except:
                pass
        """,
        "broad": """
            try:
                step()
            except BaseException as e:
                log(e)
        """,
        "tuple": """
            try:
                step()
            except (ValueError, BaseException):
                pass
        """,
    }

    @pytest.mark.parametrize("variant", sorted(BAD))
    def test_swallowing_handler_flagged(self, tmp_path, capsys, variant):
        make_tree(tmp_path, {"src/repro/mod.py": self.BAD[variant]})
        code, doc = lint_json(tmp_path, "--rules", "crash-swallow", capsys=capsys)
        assert code == 1 and rules_of(doc) == {"crash-swallow"}

    def test_propagating_handlers_pass(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                try:
                    step()
                except BaseException as e:
                    raise RuntimeError("wrapped") from e

                try:
                    step()
                except BaseException as e:
                    fut.set_exception(e)

                try:
                    step()
                except BaseException:
                    os._exit(17)

                try:
                    step()
                except Exception:
                    pass  # narrow: InjectedCrash still escapes
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "crash-swallow", capsys=capsys)
        assert code == 0 and not doc["findings"]


class TestAtomicPublishRule:
    def test_raw_final_name_write_flagged(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/io/bad.py": """
                def save(path, payload):
                    with open(path, "wb") as f:
                        f.write(payload)
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "atomic-publish", capsys=capsys)
        assert code == 1 and rules_of(doc) == {"atomic-publish"}

    def test_write_bytes_flagged_outside_io_pass(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/io/bad.py": """
                def save(path, payload):
                    path.write_bytes(payload)
            """,
            # the rule only patrols repro/io — the same write elsewhere is fine
            "src/repro/other/ok.py": """
                def save(path, payload):
                    path.write_bytes(payload)
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "atomic-publish", capsys=capsys)
        assert code == 1
        assert [f["path"] for f in doc["findings"]] == ["src/repro/io/bad.py"]

    def test_temp_then_replace_idiom_passes(self, tmp_path, capsys):
        """...in the publish primitive, and only there: a private copy of
        the idiom is a finding like any other write."""
        idiom = """
                import os
                def {name}(path, payload):
                    tmp = path.with_suffix(".tmp")
                    with open(tmp, "wb") as f:
                        f.write(payload)
                    os.replace(tmp, path)

                def read(path):
                    with open(path, "rb") as f:
                        return f.read()
            """
        make_tree(tmp_path, {
            "src/repro/io/publish.py": idiom.format(name="atomic_publish"),
            "src/repro/io/storage.py": idiom.format(name="put"),
        })
        code, doc = lint_json(tmp_path, "--rules", "atomic-publish", capsys=capsys)
        assert code == 1
        assert [f["path"] for f in doc["findings"]] == ["src/repro/io/storage.py"]


class TestImportBoundaryRule:
    def test_numba_outside_jit_flagged(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/kernels/fast.py": "import numba\n",
            "src/repro/kernels/jit.py": "import numba\n",  # the one legal door
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert [f["path"] for f in doc["findings"]] == ["src/repro/kernels/fast.py"]

    def test_ctypes_outside_the_loader_flagged(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/compress/fast.py": "import ctypes\n",
            "src/repro/kernels/launcher.py": "from ctypes import CDLL\n",
            "src/repro/core/native.py": "import ctypes\n",  # the one loader
            "src/tools/helper.py": "import ctypes\n",  # only the library is fenced
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/compress/fast.py", "src/repro/kernels/launcher.py"]

    def test_compress_to_io_edge_flagged(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/compress/enc.py": "from ..io import container\n",
            "src/repro/io/container.py": "x = 1\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert "repro.compress.enc -> repro.io" in doc["findings"][0]["message"]

    def test_service_to_experiments_and_tools_to_repro(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/service/api.py": "import repro.experiments.bench\n",
            "src/tools/helper.py": "from repro import faults\n",
            # the stack never reaches up into the service
            "src/repro/io/stream.py": "from ..service.cache import LRUCache\n",
            "src/repro/core/grid.py": "import repro.service\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert len(doc["findings"]) == 4

    def test_scipy_under_repro_flagged(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/core/solver.py": "from scipy.linalg import cho_solve_banded\n",
            "src/repro/core/grid.py": "import scipy.linalg\n",
            "src/tools/helper.py": "import scipy\n",  # only the library is NumPy-only
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/core/grid.py", "src/repro/core/solver.py",
        ]
        assert "thomas_solve" in doc["findings"][0]["message"]

    def test_core_stays_below_kernels_and_deleted_shims_stay_deleted(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/core/decompose.py": "from ..kernels.launches import copy_launch\n",
            "src/repro/core/refactor.py": "import repro.gpu.analytic\n",
            "src/repro/kernels/launches.py": "from ..core.grid import TensorHierarchy\n",
            "src/repro/compress/plan.py": "from .executor import get_executor\n",
            "src/repro/cli.py": "import repro.cluster.simmpi\n",
            "src/repro/cluster/__init__.py": "from .fabric import run_spmd\n",
            "src/repro/io/workflow.py": "from ..parallel.executors import get_executor\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/cli.py", "src/repro/cluster/__init__.py",
            "src/repro/compress/plan.py",
            "src/repro/core/decompose.py", "src/repro/core/refactor.py",
        ]

    def test_only_the_executor_imports_multiprocessing(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/cluster/ranks.py": "import multiprocessing\n",
            "src/repro/service/server.py": """
                def start():
                    from multiprocessing import Pool
            """,
            # repro.parallel owns it; everyone else schedules through it
            "src/repro/parallel/executors.py": """
                def pool():
                    import multiprocessing
            """,
            "src/repro/compress/mgard.py": "from ..parallel.executors import get_executor\n",
            "src/repro/experiments/service_exp.py": "import subprocess\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/cluster/ranks.py", "src/repro/service/server.py",
        ]
        assert all("fan out through executor.map" in f["message"] for f in doc["findings"])

    def test_shared_memory_staging_stays_deleted(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/cluster/sharded.py": "import repro.parallel.shm\n",
            "src/repro/service/server.py": """
                def start():
                    from multiprocessing import shared_memory
            """,
            # no exemption: not even the executors bring it back
            "src/repro/parallel/__init__.py": "from .shm import share_array\n",
            "src/repro/parallel/executors.py": """
                from multiprocessing.shared_memory import SharedMemory
                def pool():
                    import multiprocessing
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/cluster/sharded.py", "src/repro/parallel/__init__.py",
            "src/repro/parallel/executors.py", "src/repro/service/server.py",
        ]
        assert all("staging is deleted" in f["message"] for f in doc["findings"])
        assert all("fan out through executor.map" in f["message"] for f in doc["findings"])

    def test_plan_cache_stays_deleted(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/cluster/sharded.py": "import repro.compress.plan\n",
            "src/repro/io/stream.py": """
                def open_writer():
                    from repro.compress.plan import compression_plan
            """,
            # no exemption: not even the compress package brings it back
            "src/repro/compress/timeseries.py": "from .plan import compression_plan\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/cluster/sharded.py", "src/repro/compress/timeseries.py",
            "src/repro/io/stream.py",
        ]
        assert all("hierarchy_for is the one setup cache" in f["message"]
                   for f in doc["findings"])

    def test_block_partitioner_stays_deleted(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/io/stream.py": "import repro.cluster.partition\n",
            "src/repro/io/workflow.py": """
                def shard_plan():
                    from repro.cluster.partition import plan_blocks
            """,
            # no exemption: not even the cluster package brings it back
            "src/repro/cluster/sharded.py": "from .partition import BlockPlan\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/cluster/sharded.py", "src/repro/io/stream.py",
            "src/repro/io/workflow.py",
        ]
        assert all("plan_shards is the one partitioning" in f["message"]
                   for f in doc["findings"])

    def test_only_frame_packs_container_frames(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/io/container.py": "import struct\n",
            "src/repro/compress/fileio.py": "from struct import pack\n",
            # the frame itself, and the wire protocol's own trust boundary
            "src/repro/frame.py": "import struct\n",
            "src/repro/service/protocol.py": "import struct\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 1
        assert sorted(f["path"] for f in doc["findings"]) == [
            "src/repro/compress/fileio.py", "src/repro/io/container.py",
        ]
        assert all("repro.frame" in f["message"] for f in doc["findings"])

    def test_allowed_directions_pass(self, tmp_path, capsys):
        make_tree(tmp_path, {
            # io -> compress is the sanctioned direction
            "src/repro/io/fileio_user.py": "from ..compress import fileio\n",
            "src/repro/experiments/exp.py": "from repro.service import client\n",
            # what io and the service share lives in a leaf module
            "src/repro/io/stream.py": "from ..cache import LRUCache\n",
            "src/repro/service/server.py": "from ..cache import LRUCache\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "import-boundary", capsys=capsys)
        assert code == 0 and not doc["findings"]


class TestLockOrderRule:
    def test_inverted_acquisition_order_is_a_cycle(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                import threading

                class C:
                    def __init__(self):
                        self.a = threading.RLock()
                        self.b = threading.RLock()

                    def one(self):
                        with self.a:
                            with self.b:
                                pass

                    def two(self):
                        with self.b:
                            with self.a:
                                pass
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "lock-order", capsys=capsys)
        assert code == 1
        assert any("lock-order inversion" in f["message"] for f in doc["findings"])

    def test_self_deadlock_on_plain_lock(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                import threading

                class C:
                    def __init__(self):
                        self.a = threading.Lock()

                    def boom(self):
                        with self.a:
                            with self.a:
                                pass
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "lock-order", capsys=capsys)
        assert code == 1
        assert any("re-acquired" in f["message"] for f in doc["findings"])

    def test_one_hop_method_call_edge(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                import threading

                class C:
                    def __init__(self):
                        self.a = threading.Lock()

                    def helper(self):
                        with self.a:
                            pass

                    def boom(self):
                        with self.a:
                            self.helper()
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "lock-order", capsys=capsys)
        assert code == 1
        assert any("self.helper() re-takes" in f["message"] for f in doc["findings"])

    def test_blocking_call_under_lock(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                import threading
                _lock = threading.Lock()

                def pump(sock):
                    with _lock:
                        return sock.recv(4096)
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "lock-order", capsys=capsys)
        assert code == 1
        assert any(".recv() can block" in f["message"] for f in doc["findings"])

    def test_consistent_order_and_nested_defs_pass(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/mod.py": """
                import threading

                class C:
                    def __init__(self):
                        self.a = threading.RLock()
                        self.b = threading.RLock()

                    def one(self):
                        with self.a:
                            with self.b:
                                pass

                    def also(self):
                        with self.a:
                            with self.b:
                                pass

                    def deferred(self, sock):
                        with self.a:
                            def later():
                                return sock.recv(1)  # runs after release
                            return later
            """,
        })
        code, doc = lint_json(tmp_path, "--rules", "lock-order", capsys=capsys)
        assert code == 0 and not doc["findings"]


class TestDeterminismRule:
    BAD = {
        "wall clock": "import time\ndef enc(x):\n    return time.time()\n",
        "stdlib random": "import random\ndef enc(x):\n    return random.random()\n",
        "unseeded rng": "import numpy as np\ndef enc(x):\n    return np.random.default_rng()\n",
        "legacy global rng": "import numpy as np\ndef enc(x):\n    return np.random.rand(4)\n",
        "set iteration": "def enc(xs):\n    return [f(x) for x in set(xs)]\n",
        "set literal loop": "def enc():\n    for x in {1, 2}:\n        g(x)\n",
    }

    @pytest.mark.parametrize("variant", sorted(BAD))
    def test_nondeterminism_flagged(self, tmp_path, capsys, variant):
        make_tree(tmp_path, {"src/repro/compress/enc.py": self.BAD[variant]})
        code, doc = lint_json(tmp_path, "--rules", "determinism", capsys=capsys)
        assert code == 1 and rules_of(doc) == {"determinism"}

    def test_sanctioned_forms_pass(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/compress/enc.py": """
                import time
                import numpy as np

                def enc(x):
                    t0 = time.perf_counter()  # duration metadata, not bytes
                    rng = np.random.default_rng(1234)
                    for k in sorted({1, 2, 3}):
                        g(k)
                    return time.perf_counter() - t0
            """,
            # the byte-identity contract stops at the package boundary
            "src/repro/experiments/exp.py": "import time\nWALL = time.time()\n",
        })
        code, doc = lint_json(tmp_path, "--rules", "determinism", capsys=capsys)
        assert code == 0 and not doc["findings"]


# ----------------------------------------------------------------------
# the real tree


class TestRealTree:
    def test_repository_lints_clean(self):
        report = run_lint(REPO_ROOT, paths=("src", "tests"), rules=make_rules())
        fresh = [f for f in report.findings if not f.suppressed]
        assert not fresh, "\n".join(str(f) for f in fresh)
        # every accepted finding is a justified inline suppression
        assert all(f.suppressed for f in report.findings)
        assert report.exit_code == 0

    def test_fault_site_registry_is_complete(self):
        doc = json.loads(
            (REPO_ROOT / "src/tools/reprolint/fault_sites.json").read_text()
        )
        assert doc["sites"], "registry must not be empty"
        for site, info in doc["sites"].items():
            assert info["instrumented"], f"{site} has no instrumentation"
            assert info["exercised_by"], f"{site} is never exercised by a plan"

    def test_console_entry_matches_module_entry(self):
        import tools.reprolint.cli as cli

        assert callable(cli.main)

"""Fault injection, crash consistency, and recovery across the stack.

The PR 6 robustness surface: the :mod:`repro.faults` seam itself (spec
grammar, deterministic firing), the writer crash matrix (killed at
every commit-path crash site, for every stream mode, the stream must
reopen with zero corrupt visible steps), reader quarantine and
delta-chain roll-back, partial-shard region recovery, process-pool
rebuild under worker kills, durable commits, the hardened
:class:`~repro.errors.ContainerError` mapping, and the scrub CLI.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.compress.fileio import CompressedFileError, load_compressed
from repro.errors import ContainerError
from repro.io.container import RefactoredFileReader
from repro.io.scrub import main as scrub_main, scrub_stream
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError
from repro.parallel.executors import ProcessExecutor

SHAPE = (9, 8)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with fault injection off."""
    faults.clear()
    yield
    faults.clear()


def _frames(n, shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    drift = rng.normal(size=shape) * 0.05
    return [base + t * drift for t in range(n)]


# ----------------------------------------------------------------------
# spec grammar + deterministic firing


class TestFaultSpec:
    def test_parse_clause(self):
        spec = faults.FaultSpec.parse("truncate@stream.step.file:p=0.5:count=2:frac=0.25")
        assert spec.kind == "truncate"
        assert spec.site == "stream.step.file"
        assert spec.p == 0.5
        assert spec.count == 2
        assert spec.argument() == 0.25

    def test_defaults(self):
        spec = faults.FaultSpec.parse("crash@stream.manifest.pre_flush")
        assert spec.p == 1.0 and spec.count is None and spec.after == 0
        assert faults.FaultSpec.parse("bitflip@x").argument() == 1
        assert faults.FaultSpec.parse("delay@x").argument() == 0.01

    @pytest.mark.parametrize(
        "clause",
        [
            "crash",  # no site
            "@site",  # no kind
            "flood@site",  # unknown kind
            "crash@site:frac=1",  # option of the wrong kind
            "crash@site:p",  # option without '='
            "crash@site:p=2.0",  # probability out of range
            "kill@site:count=0",
        ],
    )
    def test_bad_clauses(self, clause):
        with pytest.raises(ValueError):
            faults.FaultSpec.parse(clause)

    def test_parse_plan(self):
        plan = faults.parse_plan(
            "kill@executor.process.map:count=1, bitflip@container.read.*:flips=3"
        )
        assert [s.kind for s in plan] == ["kill", "bitflip"]
        with pytest.raises(ValueError):
            faults.parse_plan("  ,  ")


class TestInjector:
    def test_count_budget_and_glob(self):
        inj = faults.FaultInjector("error@stream.step.*:count=2")
        assert inj.fire("stream.step.pre_tmp", ("error",)) is not None
        assert inj.fire("stream.step.post_tmp", ("error",)) is not None
        assert inj.fire("stream.step.pre_tmp", ("error",)) is None  # budget spent
        assert inj.fire("stream.manifest.pre_flush", ("error",)) is None  # no match
        assert inj.fired("error") == 2

    def test_after_skips_leading_hits(self):
        inj = faults.FaultInjector("crash@site:after=2:count=1")
        assert inj.fire("site", ("crash",)) is None
        assert inj.fire("site", ("crash",)) is None
        assert inj.fire("site", ("crash",)) is not None

    def test_kind_filter(self):
        inj = faults.FaultInjector("truncate@site")
        assert inj.fire("site", ("crash",)) is None
        assert inj.fire("site", ("truncate", "bitflip")) is not None

    def test_probabilistic_firing_is_seed_deterministic(self):
        def sequence(seed):
            inj = faults.FaultInjector("error@site:p=0.3", seed=seed)
            return [inj.fire("site", ("error",)) is not None for _ in range(64)]

        a, b = sequence(7), sequence(7)
        assert a == b
        assert 0 < sum(a) < 64  # actually probabilistic
        assert sequence(8) != a  # a different seed reorders firings


class TestAmbientInjector:
    def test_disarmed_sites_are_noops(self):
        faults.crash_point("anywhere")
        faults.error_point("anywhere")
        faults.delay_point("anywhere")
        data = b"payload"
        assert faults.corrupt_bytes("anywhere", data) is data
        assert faults.kill_indices("anywhere", 8) == frozenset()

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@boom:count=1")
        faults.clear()  # forces a re-read of the environment
        with pytest.raises(faults.InjectedCrash):
            faults.crash_point("boom")
        faults.crash_point("boom")  # budget spent

    def test_inject_restores_previous(self):
        outer = faults.install("error@outer")
        with faults.inject("error@inner"):
            assert faults.active() is not outer
            with pytest.raises(faults.InjectedFault):
                faults.error_point("inner")
        assert faults.active() is outer

    def test_injected_crash_not_an_exception(self):
        assert not issubclass(faults.InjectedCrash, Exception)


class TestPlanValidation:
    """install()/REPRO_FAULTS check plan site-globs against faults.SITES."""

    def test_unknown_site_warns_on_install(self):
        with pytest.warns(faults.UnknownFaultSiteWarning, match="no.such.site"):
            faults.install("crash@no.such.site:count=1")

    def test_env_plan_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@totally.wrong")
        faults.clear()  # forces a re-read of the environment
        with pytest.warns(faults.UnknownFaultSiteWarning, match="totally.wrong"):
            faults.error_point("stream.step.pre_tmp")

    def test_registered_sites_and_globs_accepted(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", faults.UnknownFaultSiteWarning)
            faults.install("crash@stream.step.*:count=1")
            faults.install("bitflip@container.read.shard 0:flips=1")  # family match
            faults.install("kill@executor.process.map:count=1")

    def test_validate_plan_reports_only_unmatched(self):
        plan = faults.parse_plan("crash@stream.step.pre_tmp, error@typo.site")
        assert faults.validate_plan(plan) == ["typo.site"]
        assert faults.site_registered("container.read.anything")
        assert not faults.site_registered("container.anything")


class TestCorruptionHelpers:
    def test_corrupt_bytes_truncate(self):
        with faults.inject("truncate@site:frac=0.25"):
            out = faults.corrupt_bytes("site", bytes(100))
        assert len(out) == 25

    def test_corrupt_bytes_bitflip(self):
        data = bytes(64)
        with faults.inject("bitflip@site:flips=1"):
            out = faults.corrupt_bytes("site", data)
        diff = [a ^ b for a, b in zip(data, out)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(100))
        with faults.inject("truncate@site:frac=0.5"):
            assert faults.corrupt_file("site", path)
        assert path.stat().st_size == 50

    def test_kill_indices_deterministic(self):
        with faults.inject("kill@pool:p=0.5", seed=3):
            first = faults.kill_indices("pool", 16)
        with faults.inject("kill@pool:p=0.5", seed=3):
            again = faults.kill_indices("pool", 16)
        assert first == again
        assert 0 < len(first) < 16


# ----------------------------------------------------------------------
# the writer crash matrix

MODES = {
    "refactored": {},
    "compressed": {"tol": 1e-3, "key_interval": 4},
    "sharded": {"tol": 1e-3, "shards": 2},
}

CRASH_SITES = (
    "stream.step.pre_tmp",
    "stream.step.post_tmp",
    "stream.commit.post_rename",
    "stream.manifest.pre_flush",
    "stream.manifest.pre_tmp",
    "stream.manifest.post_tmp",
)


@pytest.mark.parametrize("site", CRASH_SITES)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_crash_matrix(tmp_path, mode, site):
    """Kill the writer at every crash point: reopen + follower converge,
    every visible step is intact, and no temp debris survives reopen."""
    kwargs = MODES[mode]
    tol = kwargs.get("tol")
    frames = _frames(4)
    root = tmp_path / "stream"

    writer = StepStreamWriter(root, SHAPE, **kwargs)
    writer.append(frames[0])
    writer.append(frames[1])
    follower = StepStreamReader(root)  # live follower, opened pre-crash

    with faults.inject(f"crash@{site}:count=1"):
        with pytest.raises(faults.InjectedCrash):
            writer.append(frames[2])
    del writer  # the dead producer

    # reopen: sweeps temp debris, resumes from the committed prefix
    writer = StepStreamWriter(root, SHAPE, **kwargs)
    assert not list(root.glob("*.tmp"))
    visible = writer.n_steps
    assert visible in (2, 3)  # the crashed commit either published or not

    reader = StepStreamReader(root)
    assert len(reader.steps) == visible
    for s in range(visible):
        got = reader.read_region(s)
        err = float(np.abs(got - frames[s]).max())
        assert err <= (tol if tol is not None else 1e-8)
    assert not reader.quarantined

    # the resumed producer appends; the pre-crash follower converges
    next_frame = frames[visible] if visible < 4 else frames[3] + 1.0
    writer.append(next_frame)
    follower.refresh()
    assert len(follower.steps) == visible + 1
    got = follower.read_region(visible)
    err = float(np.abs(got - next_frame).max())
    assert err <= (tol if tol is not None else 1e-8)

    assert scrub_stream(root).clean


def test_unique_tmp_names_and_sweep(tmp_path):
    """Concurrent publishes never collide on temp names, and a crashed
    predecessor's temp files are swept on writer open."""
    from repro.io.publish import unique_tmp

    dst = tmp_path / "step_000000.rprc"
    names = {unique_tmp(dst).name for _ in range(32)}
    assert len(names) == 32
    assert all(n.endswith(".tmp") and n.startswith(dst.name) for n in names)

    root = tmp_path / "stream"
    root.mkdir()
    (root / "step_000007.rprc.123.4.tmp").write_bytes(b"debris")
    StepStreamWriter(root, SHAPE)
    assert not list(root.glob("*.tmp"))


def test_durability_fsync_roundtrip(tmp_path):
    frames = _frames(3)
    writer = StepStreamWriter(tmp_path / "s", SHAPE, tol=1e-3, durability="fsync")
    for f in frames:
        writer.append(f)
    reader = StepStreamReader(tmp_path / "s")
    for s, f in enumerate(frames):
        assert float(np.abs(reader.read_step(s) - f).max()) <= 1e-3


def test_durability_validated(tmp_path):
    with pytest.raises(ValueError, match="durability"):
        StepStreamWriter(tmp_path / "s", SHAPE, durability="eventually")


# ----------------------------------------------------------------------
# reader quarantine + delta-chain roll-back (compressed streams)


def _compressed_stream(root, n_steps=10):
    frames = _frames(n_steps)
    writer = StepStreamWriter(root, SHAPE, tol=1e-3, key_interval=4)
    for f in frames:
        writer.append(f)
    return frames


def _flip_byte(path: Path, offset: int = -20):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestQuarantineRollback:
    def test_mid_chain_corruption_degrades(self, tmp_path):
        frames = _compressed_stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000005.mgz")
        reader = StepStreamReader(tmp_path / "s")
        got = reader.read_step(5)
        rep = reader.last_recovery
        assert rep is not None and rep.degraded
        assert rep.requested == 5 and rep.served == 4
        assert rep.quarantined == [5]
        assert 5 in reader.quarantined
        # the served state is the last good chain step
        assert float(np.abs(got - frames[4]).max()) <= 1e-3

    def test_chain_cannot_cross_a_hole(self, tmp_path):
        _compressed_stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000005.mgz")
        reader = StepStreamReader(tmp_path / "s")
        reader.read_step(6)  # deltas at 6 depend on the quarantined 5
        rep = reader.last_recovery
        assert rep.degraded and rep.served == 4

    def test_corrupt_key_frame_rolls_to_earlier_chain(self, tmp_path):
        frames = _compressed_stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000004.mgz")  # a key frame
        reader = StepStreamReader(tmp_path / "s")
        got = reader.read_step(5)
        rep = reader.last_recovery
        assert rep.degraded and rep.served == 3  # key 0's chain, replayed
        assert float(np.abs(got - frames[3]).max()) <= 1e-3

    def test_clean_steps_stay_exact(self, tmp_path):
        frames = _compressed_stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000005.mgz")
        reader = StepStreamReader(tmp_path / "s")
        for s in (0, 3, 4, 8, 9):  # never touch the 4..7 chain
            got = reader.read_step(s)
            assert reader.last_recovery is None
            assert float(np.abs(got - frames[s]).max()) <= 1e-3

    def test_on_error_raise_is_fail_stop(self, tmp_path):
        _compressed_stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000005.mgz")
        reader = StepStreamReader(tmp_path / "s")
        with pytest.raises(ContainerError, match="checksum|truncated|corrupt"):
            reader.read_step(5, on_error="raise")
        with pytest.raises(ValueError, match="on_error"):
            reader.read_step(5, on_error="ignore")

    def test_every_key_frame_poisoned_raises(self, tmp_path):
        _compressed_stream(tmp_path / "s")
        for s in (0, 4, 8):
            _flip_byte(tmp_path / "s" / f"step_{s:06d}.mgz")
        reader = StepStreamReader(tmp_path / "s")
        with pytest.raises(StreamError, match="no decodable key-frame chain"):
            reader.read_step(2)

    def test_repaired_file_heals_on_fresh_reader(self, tmp_path):
        frames = _compressed_stream(tmp_path / "s")
        path = tmp_path / "s" / "step_000005.mgz"
        good = path.read_bytes()
        _flip_byte(path)
        reader = StepStreamReader(tmp_path / "s")
        reader.read_step(5)
        assert 5 in reader.quarantined
        path.write_bytes(good)  # operator restores the file
        healed = StepStreamReader(tmp_path / "s")
        got = healed.read_step(5)
        assert healed.last_recovery is None and not healed.quarantined
        assert float(np.abs(got - frames[5]).max()) <= 1e-3


# ----------------------------------------------------------------------
# partial-shard region recovery


class TestRegionRecovery:
    def _sharded_stream(self, root, n_shards=3):
        frames = _frames(1)
        writer = StepStreamWriter(root, SHAPE, tol=1e-3, shards=n_shards)
        writer.append(frames[0])
        return frames[0]

    def test_surviving_shards_served_failed_extent_nan(self, tmp_path):
        data = self._sharded_stream(tmp_path / "s")
        reader = StepStreamReader(tmp_path / "s")
        with faults.inject("bitflip@container.read.shard 1:flips=8"):
            got = reader.read_region(0)
        rep = reader.last_recovery
        assert rep is not None and rep.degraded
        lo, hi = reader.shard_bounds[1]
        assert rep.failed_extents == [(lo, hi)]
        assert np.isnan(got[lo:hi]).all()
        mask = np.ones(SHAPE[0], dtype=bool)
        mask[lo:hi] = False
        assert float(np.abs(got[mask] - data[mask]).max()) <= 1e-3

    def test_region_avoiding_bad_shard_is_exact(self, tmp_path):
        data = self._sharded_stream(tmp_path / "s")
        reader = StepStreamReader(tmp_path / "s")
        lo, hi = reader.shard_bounds[0]
        with faults.inject("bitflip@container.read.shard 1:flips=8"):
            got = reader.read_region(0, (slice(lo, hi),))
        assert reader.last_recovery is None  # shard 1 never read
        assert float(np.abs(got - data[lo:hi]).max()) <= 1e-3

    def test_all_shards_failing_raises(self, tmp_path):
        self._sharded_stream(tmp_path / "s")
        reader = StepStreamReader(tmp_path / "s")
        with faults.inject("bitflip@container.read.shard*:flips=8"):
            with pytest.raises(StreamError, match="shards covering"):
                reader.read_region(0)
        assert 0 in reader.quarantined

    def test_on_error_raise(self, tmp_path):
        self._sharded_stream(tmp_path / "s")
        reader = StepStreamReader(tmp_path / "s")
        with faults.inject("bitflip@container.read.shard 1:flips=8"):
            with pytest.raises(ContainerError):
                reader.read_region(0, on_error="raise")


# ----------------------------------------------------------------------
# process-pool recovery under worker kills


def _square(x):
    return x * x


# a broken pool's manager thread must not die while the pool recovers
@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
class TestProcessPoolRecovery:
    def test_kill_then_rebuild_retries_to_success(self):
        ex = ProcessExecutor(max_workers=2, backoff_s=0.01)
        try:
            with faults.inject("kill@executor.process.map:count=1"):
                out = ex.map(_square, list(range(6)))
            assert out == [x * x for x in range(6)]
            assert ex.stats["broken_pools"] >= 1
            assert ex.stats["rebuilds"] >= 1
            assert ex.stats["inline_fallbacks"] == 0
        finally:
            ex.shutdown()

    def test_persistent_kills_degrade_inline(self):
        ex = ProcessExecutor(max_workers=2, max_retries=1, backoff_s=0.01)
        try:
            with faults.inject("kill@executor.process.map:p=1.0"):
                out = ex.map(_square, list(range(6)))
            assert out == [x * x for x in range(6)]
            assert ex.stats["inline_fallbacks"] == 1
            assert ex.stats["broken_pools"] == 2  # initial try + 1 retry
        finally:
            ex.shutdown()

    def test_retry_knobs_validated(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProcessExecutor(max_retries=-1)


# ----------------------------------------------------------------------
# hardened error mapping: corruption -> ContainerError with context


class TestErrorMapping:
    def _container(self, tmp_path):
        from repro.core.refactor import Refactorer
        from repro.io.container import write_refactored

        cc = Refactorer(SHAPE).refactor(_frames(1)[0])
        path = tmp_path / "c.rprc"
        write_refactored(path, cc)
        return path

    def test_truncated_header_has_offset_context(self, tmp_path):
        path = self._container(tmp_path)
        path.write_bytes(path.read_bytes()[:9])  # magic + 3 length bytes
        with pytest.raises(ContainerError, match=r"truncated header length.*offset"):
            RefactoredFileReader(path)

    def test_garbage_header_is_container_error(self, tmp_path):
        path = self._container(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[6 + 8] ^= 0xFF  # first JSON byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="corrupt header"):
            RefactoredFileReader(path)

    def test_wrong_schema_header_is_container_error(self, tmp_path):
        path = tmp_path / "c.rprc"
        hbytes = json.dumps({"not": "a container"}).encode()
        path.write_bytes(b"RPRC\x01\x00" + struct.pack("<Q", len(hbytes)) + hbytes)
        with pytest.raises(ContainerError, match="class table"):
            RefactoredFileReader(path)

    def test_truncated_payload_has_offset_context(self, tmp_path):
        path = self._container(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        reader = RefactoredFileReader(path)
        with pytest.raises(ContainerError, match=r"truncated.*offset"):
            reader.read_classes()

    def test_compressed_file_error_is_container_error(self):
        assert issubclass(CompressedFileError, ContainerError)
        with pytest.raises(ContainerError):
            load_compressed(b"RPMG\x01\x00" + struct.pack("<Q", 4) + b"nul")

    def test_decode_shard_schema_junk(self):
        from repro.cluster.sharded import decode_shard

        hbytes = json.dumps({"shape": [4, 4]}).encode()
        payload = b"RPRC\x01\x00" + struct.pack("<Q", len(hbytes)) + hbytes
        with pytest.raises(ContainerError):
            decode_shard(payload, "refactored")
        with pytest.raises(ValueError, match="payload mode"):
            decode_shard(payload, "postcard")


# ----------------------------------------------------------------------
# the scrub CLI


class TestScrub:
    def _stream(self, root, n=3):
        writer = StepStreamWriter(root, SHAPE, tol=1e-3, key_interval=2)
        for f in _frames(n):
            writer.append(f)

    def test_clean_stream(self, tmp_path):
        self._stream(tmp_path / "s")
        report = scrub_stream(tmp_path / "s")
        assert report.clean
        assert report.ok == [0, 1, 2]
        assert not report.corrupt and not report.orphans and not report.stale_tmps

    def test_corruption_and_debris_reported(self, tmp_path):
        self._stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000001.mgz")
        (tmp_path / "s" / "old.tmp").write_bytes(b"x")
        (tmp_path / "s" / "step_000099.mgz").write_bytes(b"orphan")
        report = scrub_stream(tmp_path / "s")
        assert not report.clean
        assert list(report.corrupt) == [1] and "step_000001" in report.corrupt[1]
        assert report.stale_tmps == ["old.tmp"]
        assert report.orphans == ["step_000099.mgz"]

    def test_missing_step_file(self, tmp_path):
        self._stream(tmp_path / "s")
        (tmp_path / "s" / "step_000002.mgz").unlink()
        report = scrub_stream(tmp_path / "s")
        assert report.corrupt == {2: "missing file step_000002.mgz"}

    def test_size_mismatch_detected(self, tmp_path):
        self._stream(tmp_path / "s")
        path = tmp_path / "s" / "step_000000.mgz"
        path.write_bytes(path.read_bytes() + b"trailing garbage")
        report = scrub_stream(tmp_path / "s")
        assert 0 in report.corrupt and "manifest recorded" in report.corrupt[0]

    def test_quarantine_moves_files(self, tmp_path):
        self._stream(tmp_path / "s")
        _flip_byte(tmp_path / "s" / "step_000001.mgz")
        (tmp_path / "s" / "old.tmp").write_bytes(b"x")
        report = scrub_stream(tmp_path / "s", quarantine=True)
        assert sorted(report.quarantined) == ["old.tmp", "step_000001.mgz"]
        assert (tmp_path / "s" / "quarantine" / "step_000001.mgz").exists()
        assert not (tmp_path / "s" / "step_000001.mgz").exists()
        # a follower now sees a clean missing-file degradation
        reader = StepStreamReader(tmp_path / "s")
        reader.read_step(1)
        assert reader.last_recovery is not None and reader.last_recovery.degraded

    def test_sharded_stream_shard_table_checked(self, tmp_path):
        writer = StepStreamWriter(tmp_path / "s", SHAPE, tol=1e-3, shards=3)
        writer.append(_frames(1)[0])
        assert scrub_stream(tmp_path / "s").clean
        _flip_byte(tmp_path / "s" / "step_000000.rpsh", offset=-5)
        report = scrub_stream(tmp_path / "s")
        assert 0 in report.corrupt

    def test_unreadable_manifest(self, tmp_path):
        self._stream(tmp_path / "s")
        (tmp_path / "s" / "manifest.json").write_text("{ torn")
        report = scrub_stream(tmp_path / "s")
        assert not report.clean and report.manifest_error is not None

    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        self._stream(tmp_path / "s")
        assert scrub_main([str(tmp_path / "s"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] and doc["n_steps"] == 3
        _flip_byte(tmp_path / "s" / "step_000001.mgz")
        assert scrub_main([str(tmp_path / "s")]) == 1
        assert "NOT CLEAN" in capsys.readouterr().out


# ----------------------------------------------------------------------
# injected read-side faults flow through the recovery policy end to end


class TestContainerWriteCrash:
    """Standalone container publishes share the stream's crash contract
    (``container.write.{pre_tmp,post_tmp,file}`` through atomic_publish)."""

    def _cc(self):
        from repro.core.refactor import Refactorer

        return Refactorer(SHAPE).refactor(_frames(1)[0])

    def test_crash_pre_tmp_leaves_nothing(self, tmp_path):
        from repro.io.container import write_refactored

        path = tmp_path / "c.rprc"
        with faults.inject("crash@container.write.pre_tmp:count=1"):
            with pytest.raises(faults.InjectedCrash):
                write_refactored(path, self._cc())
        assert list(tmp_path.iterdir()) == []
        write_refactored(path, self._cc())  # clean retry succeeds
        RefactoredFileReader(path).read_classes()

    def test_crash_post_tmp_never_publishes_torn(self, tmp_path):
        from repro.io.container import write_refactored

        path = tmp_path / "c.rprc"
        with faults.inject("crash@container.write.post_tmp:count=1"):
            with pytest.raises(faults.InjectedCrash):
                write_refactored(path, self._cc())
        assert not path.exists()  # temp debris at worst, never the final name
        assert len(list(tmp_path.glob("*.tmp"))) == 1
        write_refactored(path, self._cc())
        RefactoredFileReader(path).read_classes()

    def test_corrupt_committed_file_detected(self, tmp_path):
        from repro.io.container import write_refactored

        path = tmp_path / "c.rprc"
        with faults.inject("truncate@container.write.file:frac=0.5:count=1"):
            write_refactored(path, self._cc())
        with pytest.raises(ContainerError):
            RefactoredFileReader(path).read_classes()


@pytest.mark.parametrize("text", [
    "{}",
    "[]",
    '{"shape": [9, 9]}',
    '{"shape": [9, 9], "steps": 3}',
    "not json",
    '{"shape": "x", "steps": []}',
    '{"shape": [17, 17], "steps": [{"time": 0.0}]}',
    '{"shape": [17, 17], "steps": [], "mode": "postcard"}',
    '{"shape": [17, 17], "steps": [], "shards": [[0, 9], [10, 17]]}',
    '{"shape": [17, 0], "steps": []}',
    b'{"shape": [17, 17], "steps": [], "tol": \xff}',
])
def test_malformed_manifest_is_stream_error(tmp_path, text):
    """One loader, one behaviour: opening a reader or a writer on any
    manifest that is not one raises StreamError (the parent raised
    KeyError, TypeError, JSONDecodeError, ValueError — or nothing)."""
    if isinstance(text, str):
        text = text.encode()
    (tmp_path / "manifest.json").write_bytes(text)
    with pytest.raises(StreamError, match="manifest"):
        StepStreamReader(tmp_path)
    with pytest.raises(StreamError, match="manifest"):
        StepStreamWriter(tmp_path, SHAPE)
    assert scrub_stream(tmp_path).manifest_error is not None


def test_corrupt_manifest_follower_keeps_snapshot(tmp_path):
    """A manifest that commits corrupt (``stream.manifest.file``) is a
    torn read to a follower — it keeps its last good snapshot — and the
    scrub reports the unreadable manifest."""
    frames = _frames(2)
    root = tmp_path / "s"
    writer = StepStreamWriter(root, SHAPE)
    writer.append(frames[0])
    follower = StepStreamReader(root)
    assert len(follower.steps) == 1
    with faults.inject("truncate@stream.manifest.file:frac=0.3:count=1"):
        writer.append(frames[1])
    follower.refresh()
    assert len(follower.steps) == 1
    report = scrub_stream(root)
    assert not report.clean and report.manifest_error is not None


def test_payload_read_bitflip_detected(tmp_path):
    """A flipped compressed-payload read (``fileio.read.payload``) fails
    the per-payload CRC and surfaces as ContainerError, not junk data."""
    root = tmp_path / "s"
    writer = StepStreamWriter(root, SHAPE, tol=1e-3, key_interval=2)
    for f in _frames(2):
        writer.append(f)
    reader = StepStreamReader(root)
    with faults.inject("bitflip@fileio.read.payload:flips=8"):
        with pytest.raises(ContainerError):
            reader.read_step(1, on_error="raise")
    assert float(np.abs(reader.read_step(1) - _frames(2)[1]).max()) <= 1e-3


def _sick_shard_append(root, executor=None):
    frame = _frames(1)[0]
    writer = StepStreamWriter(root, SHAPE, tol=1e-3, shards=2, executor=executor)
    with faults.inject("error@sharded.encode.shard:count=1"):
        with pytest.raises(faults.InjectedFault):
            writer.append(frame)
    assert writer.n_steps == 0
    writer.append(frame)  # the failed append released its step index
    reader = StepStreamReader(root)
    assert float(np.abs(reader.read_region(0) - frame).max()) <= 1e-3
    assert scrub_stream(root).clean


def test_nan_frame_does_not_wedge_a_sharded_writer(tmp_path):
    """A frame the codec refuses (one NaN) fails its own append only:
    the sharded writer takes the next good frame as the next step."""
    frames = _frames(2)
    root = tmp_path / "s"
    writer = StepStreamWriter(root, SHAPE, tol=1e-3, shards=2)
    writer.append(frames[0])
    sick = frames[1].copy()
    sick[3, 3] = np.nan
    with pytest.raises(ValueError):
        writer.append(sick)
    assert writer.append(frames[1]) == 1
    reader = StepStreamReader(root)
    for t, frame in enumerate(frames):
        assert float(np.abs(reader.read_region(t) - frame).max()) <= 1e-3
    assert scrub_stream(root).clean


_WRITER_MODES = {
    "refactored": {},
    "compressed": {"tol": 1e-3},
    "sharded-refactored": {"shards": 2},
    "sharded-compressed": {"tol": 1e-3, "shards": 2},
}


@pytest.mark.parametrize("mode", sorted(_WRITER_MODES))
def test_nan_frame_fails_only_its_own_append(tmp_path, mode):
    """In every writer mode a refused frame commits nothing: the next
    good frames take the next indices, every step reads back within its
    bound, and the stream scrubs clean."""
    kw = _WRITER_MODES[mode]
    frames = _frames(3)
    root = tmp_path / "s"
    writer = StepStreamWriter(root, SHAPE, **kw)
    writer.append(frames[0])
    sick = frames[1].copy()
    sick[2, 5] = np.nan
    with pytest.raises(ValueError):
        writer.append(sick)
    assert writer.n_steps == 1
    assert writer.append(frames[1]) == 1
    assert writer.append(frames[2]) == 2
    if mode == "compressed":
        # the failed step restarted the prediction loop
        steps = json.loads((root / "manifest.json").read_text())["steps"]
        assert [s["is_key"] for s in steps] == [True, True, False]
    reader = StepStreamReader(root)
    bound = kw.get("tol", 1e-9)
    for t, frame in enumerate(frames):
        if mode == "refactored":
            field, _ = reader.read(t, k=reader.hier.L + 1)
        else:
            field = reader.read_step(t)
        assert float(np.abs(field - frame).max()) <= bound, t
    assert scrub_stream(root).clean


def test_shard_encode_error_surfaces_and_writer_recovers(tmp_path):
    """A sick shard encode (``sharded.encode.shard``) fails the append
    without committing anything; the disarmed retry commits cleanly."""
    _sick_shard_append(tmp_path / "s")


def test_shard_encode_error_reaches_a_preforked_pool(tmp_path):
    """Workers forked before the fault was armed never see the parent's
    injector: the coordinator draws and ships the action with the job."""
    pool = ProcessExecutor(2)
    try:
        pool.map(abs, range(2))  # the workers exist before the fault is armed
        _sick_shard_append(tmp_path / "s", executor=pool)
    finally:
        pool.shutdown()


def test_env_spec_drives_reader_recovery(tmp_path, monkeypatch):
    """The REPRO_FAULTS seam reaches the reader: an ambient bitflip on
    container reads degrades a region read instead of crashing it."""
    writer = StepStreamWriter(tmp_path / "s", SHAPE, tol=1e-3, shards=3)
    writer.append(_frames(1)[0])
    monkeypatch.setenv("REPRO_FAULTS", "bitflip@container.read.shard 0:flips=8")
    faults.clear()
    reader = StepStreamReader(tmp_path / "s")
    got = reader.read_region(0)
    assert reader.last_recovery is not None
    lo, hi = reader.shard_bounds[0]
    assert np.isnan(got[lo:hi]).all()

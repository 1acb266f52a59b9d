"""The executed storage tier: bytes on disk behind the placement policy."""

import io
import json

import numpy as np
import pytest

from repro import faults
from repro.core.refactor import Refactorer
from repro.io import (
    LocalTierStore,
    StepStreamReader,
    StepStreamWriter,
    StorageError,
    container_extents,
    write_sharded_stream,
)
from repro.io.container import write_refactored_stream
from repro.io.storage import ALPINE_PFS, ARCHIVE_TIER, NVME_TIER


@pytest.fixture
def store(tmp_path):
    return LocalTierStore(
        tmp_path / "tiers",
        tiers=[NVME_TIER, ALPINE_PFS, ARCHIVE_TIER],
        tier_budget_bytes=[8192, 100_000, None],
    )


# ----------------------------------------------------------------------
# object layer


def test_put_get_roundtrip_and_tier_dirs(store):
    assert store.put("a/b", b"hello") == 0
    assert store.get("a/b") == b"hello"
    assert store.tier_of("a/b") == 0
    path = store.root / "tier0_node-local-nvme" / "a" / "b"
    assert path.read_bytes() == b"hello"


def test_budget_full_spills_to_next_tier(store):
    assert store.put("fits", b"x" * 8000) == 0
    assert store.put("spills", b"y" * 500) == 1  # tier 0 has 192 B left
    assert store.get("spills") == b"y" * 500
    assert store.used_bytes(0) == 8000 and store.used_bytes(1) == 500


def test_no_spill_raises(store):
    store.put("fits", b"x" * 8000)
    with pytest.raises(StorageError, match="budget"):
        store.put("wont", b"y" * 500, spill=False)


def test_replacing_a_key_reclaims_its_budget(store):
    store.put("k", b"x" * 8000)
    assert store.put("k", b"y" * 100) == 0  # old bytes released first
    assert store.used_bytes(0) == 100


def test_corruption_detected_on_get(store):
    store.put("k", b"payload")
    (store.root / "tier0_node-local-nvme" / "k").write_bytes(b"tampered")
    with pytest.raises(StorageError, match="corrupt"):
        store.get("k")


def test_missing_key_and_key_escape(store):
    with pytest.raises(StorageError, match="no object"):
        store.get("ghost")
    with pytest.raises(StorageError, match="no object"):
        store.tier_of("ghost")
    with pytest.raises(StorageError, match="escapes"):
        store.put("../../evil", b"x")


def test_index_survives_reopen(store, tmp_path):
    store.put("persist", b"z" * 100, tier=1)
    reopened = LocalTierStore(
        tmp_path / "tiers",
        tiers=[NVME_TIER, ALPINE_PFS, ARCHIVE_TIER],
        tier_budget_bytes=[8192, 100_000, None],
    )
    assert reopened.get("persist") == b"z" * 100
    assert reopened.tier_of("persist") == 1


def test_delete_removes_object_and_budget(store):
    store.put("k", b"x" * 100)
    store.delete("k")
    assert store.used_bytes(0) == 0
    with pytest.raises(StorageError):
        store.get("k")
    store.delete("k")  # idempotent


def test_put_fault_site(store):
    with faults.inject("error@storage.tier.put:count=1", seed=1):
        with pytest.raises(faults.InjectedFault):
            store.put("k", b"x")
    store.put("k", b"x")  # plan exhausted: next put succeeds


@pytest.mark.parametrize("site", ["storage.tier.pre_tmp", "storage.tier.post_tmp"])
def test_put_crash_matrix(store, tmp_path, site):
    """A put killed at either crash point of the publish primitive is
    invisible — to this store and to one reopened on the directory —
    leaves at worst one inert temp file, and lands when retried."""
    store.put("kept", b"old" * 100)
    with faults.inject(f"crash@{site}:count=1"):
        with pytest.raises(faults.InjectedCrash):
            store.put("a/new", b"new" * 100)
    reopened = LocalTierStore(
        tmp_path / "tiers",
        tiers=[NVME_TIER, ALPINE_PFS, ARCHIVE_TIER],
        tier_budget_bytes=[8192, 100_000, None],
    )
    for s in (store, reopened):
        assert s.get("kept") == b"old" * 100
        assert s.keys() == ["kept"]
    debris = [p.name for p in store.root.rglob("*.tmp")]
    assert len(debris) == (site == "storage.tier.post_tmp"), debris
    assert reopened.put("a/new", b"new" * 100) == 0
    assert reopened.get("a/new") == b"new" * 100


def test_corrupt_published_object_detected(store):
    with faults.inject("truncate@storage.tier.file:frac=0.5:count=1"):
        store.put("k", b"payload" * 50)
    with pytest.raises(StorageError, match="corrupt"):
        store.get("k")


# ----------------------------------------------------------------------
# container dissection


def test_container_extents_sharded():
    payloads = [b"a" * 100, b"b" * 200, b"c" * 50]
    buf = io.BytesIO()
    write_sharded_stream(buf, (30, 8), "refactored", [(0, 10), (10, 20), (20, 30)], payloads)
    blob = buf.getvalue()
    start, extents = container_extents(blob)
    assert [e["name"] for e in extents] == ["shard 0", "shard 1", "shard 2"]
    assert [e["nbytes"] for e in extents] == [100, 200, 50]
    # extents tile the payload exactly
    rebuilt = blob[:start] + b"".join(
        blob[start + e["offset"] : start + e["offset"] + e["nbytes"]] for e in extents
    )
    assert rebuilt == blob


def test_container_extents_refactored():
    cc = Refactorer((17, 17)).refactor(np.random.default_rng(0).random((17, 17)))
    buf = io.BytesIO()
    write_refactored_stream(buf, cc)
    start, extents = container_extents(buf.getvalue())
    assert len(extents) == cc.n_classes
    assert all(e["name"].startswith("class ") for e in extents)
    assert start + sum(e["nbytes"] for e in extents) == len(buf.getvalue())


def test_container_extents_opaque():
    start, extents = container_extents(b"not a container at all")
    assert start == 0
    assert extents == [{"name": "payload", "offset": 0, "nbytes": 22}]


# ----------------------------------------------------------------------
# executed placement


def test_place_container_roundtrips_byte_identical(store):
    payloads = [bytes([i]) * 3000 for i in range(3)]
    buf = io.BytesIO()
    write_sharded_stream(buf, (30, 8), "refactored", [(0, 10), (10, 20), (20, 30)], payloads)
    blob = buf.getvalue()
    record = store.place_container("steps/s0", blob)
    # coarse shards stay fast, the tail spills (8 KB tier-0 budget)
    tiers = [e["tier"] for e in record["extents"]]
    assert tiers[0] == 0 and tiers[-1] >= 1
    assert store.read_container("steps/s0") == blob
    assert store.container_record("steps/s0")["extents"] == record["extents"]


def test_place_container_unbudgeted_stays_fast(tmp_path):
    unbounded = LocalTierStore(tmp_path / "u", tiers=[NVME_TIER, ALPINE_PFS])
    blob = b"opaque blob " * 1000
    unbounded.place_container("k", blob)
    assert unbounded.read_container("k") == blob
    assert all(e["tier"] == 0 for e in unbounded.container_record("k")["extents"])


def test_read_container_unknown_key(store):
    with pytest.raises(StorageError, match="no placed container"):
        store.read_container("ghost")


# ----------------------------------------------------------------------
# stream integration: commits move real bytes through tiers


def test_stream_commit_places_steps_through_tiers(tmp_path):
    store = LocalTierStore(
        tmp_path / "tiers",
        tiers=[NVME_TIER, ALPINE_PFS],
        tier_budget_bytes=[40_000, None],
    )
    rng = np.random.default_rng(5)
    frames = [rng.random((48, 32)) for _ in range(3)]
    writer = StepStreamWriter(tmp_path / "stream", (48, 32), shards=3, tier_store=store)
    for f in frames:
        writer.append(f)

    manifest = json.loads((tmp_path / "stream" / "manifest.json").read_text())
    placed_tiers = set()
    for step in manifest["steps"]:
        assert "tiers" in step
        placed_tiers.update(t for _, t in step["tiers"]["extents"])
        canonical = (tmp_path / "stream" / step["file"]).read_bytes()
        assert store.read_container(f"steps/{step['file']}") == canonical
    assert placed_tiers == {0, 1}  # the 40 KB fast tier filled and spilled
    assert store.used_bytes() > 0

    # the canonical stream stays fully readable alongside the tier copy
    reader = StepStreamReader(tmp_path / "stream")
    for i, f in enumerate(frames):
        assert np.allclose(reader.read_step(i), f)


def test_stream_without_tier_store_writes_no_tier_entries(tmp_path):
    writer = StepStreamWriter(tmp_path / "stream", (16, 16))
    writer.append(np.zeros((16, 16)))
    manifest = json.loads((tmp_path / "stream" / "manifest.json").read_text())
    assert "tiers" not in manifest["steps"][0]

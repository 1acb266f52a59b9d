"""Multi-tier storage: performance model + an executed local-disk backend.

Stands in for Summit's Alpine parallel file system (and slower archive
tiers) in the visualization-workflow showcase.  Each
:class:`StorageTier` has aggregate bandwidth, per-operation latency,
and a per-process bandwidth cap; :class:`TieredStorage` routes
coefficient classes to tiers by a placement policy, which is how the
paper's Figure 1 "intelligently moves each coefficient class across
multi-tiered-storage systems".

Two halves share the one placement policy:

* the **analytic** half (:meth:`TieredStorage.write_seconds` /
  ``read_seconds``) models Summit-scale tiers for the Fig. 1 path —
  nothing moves;
* the **executed** half (:class:`LocalTierStore`) is a
  directory-per-tier local-disk object store that moves real bytes:
  per-tier byte budgets, CRC-verified puts with spill-to-next-tier on a
  full budget, a JSON index (objects and index both published through
  :func:`repro.io.publish.atomic_publish`: a put killed anywhere is
  invisible), and container-aware placement
  (:meth:`LocalTierStore.place_container` splits an ``RPSH`` / ``RPRC``
  container along its frame's extent table, places each extent per
  the policy, and :meth:`LocalTierStore.read_container` reassembles the
  original bytes exactly).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

from .. import faults
from .publish import atomic_publish

__all__ = [
    "StorageTier",
    "TieredStorage",
    "LocalTierStore",
    "StorageError",
    "ALPINE_PFS",
    "NVME_TIER",
    "ARCHIVE_TIER",
]


class StorageError(RuntimeError):
    """A tier-backend operation failed (budget, missing key, corruption)."""


@dataclass(frozen=True)
class StorageTier:
    """One storage tier's performance envelope.

    Attributes
    ----------
    write_gbps / read_gbps:
        Aggregate bandwidth across all writers/readers, GB/s.
    per_process_gbps:
        Bandwidth ceiling of one process (client-side limit).
    latency_s:
        Fixed per-operation cost (open/close, metadata).
    capacity_tb:
        Usable capacity; placement fails beyond it.
    """

    name: str
    write_gbps: float
    read_gbps: float
    per_process_gbps: float
    latency_s: float
    capacity_tb: float

    def write_seconds(self, nbytes: int, n_processes: int = 1) -> float:
        """Modeled time for ``n_processes`` to collectively write ``nbytes``."""
        bw = min(self.write_gbps, self.per_process_gbps * n_processes) * 1e9
        return self.latency_s + nbytes / bw

    def read_seconds(self, nbytes: int, n_processes: int = 1) -> float:
        bw = min(self.read_gbps, self.per_process_gbps * n_processes) * 1e9
        return self.latency_s + nbytes / bw


#: Summit's Alpine GPFS: ~2.5 TB/s peak, ~250 PB.
ALPINE_PFS = StorageTier(
    name="Alpine PFS",
    write_gbps=2500.0,
    read_gbps=2500.0,
    per_process_gbps=2.0,
    latency_s=0.5,
    capacity_tb=250_000.0,
)

#: Node-local burst buffer (NVMe).
NVME_TIER = StorageTier(
    name="node-local NVMe",
    write_gbps=9600.0,  # 2.1 GB/s x ~4600 nodes usable share
    read_gbps=26000.0,
    per_process_gbps=2.0,
    latency_s=0.01,
    capacity_tb=7_400.0,
)

#: HPSS-like archive: high latency, tape-limited bandwidth.
ARCHIVE_TIER = StorageTier(
    name="archive (HPSS)",
    write_gbps=200.0,
    read_gbps=60.0,
    per_process_gbps=0.4,
    latency_s=30.0,
    capacity_tb=1_000_000.0,
)


class TieredStorage:
    """A stack of tiers plus a coefficient-class placement policy."""

    def __init__(self, tiers: list[StorageTier]):
        if not tiers:
            raise ValueError("need at least one tier")
        self.tiers = list(tiers)

    def place_classes(self, class_bytes: list[int], fast_budget_bytes: int) -> list[int]:
        """Assign each class (coarse-to-fine) a tier index.

        Greedy policy mirroring the paper's Figure 1: the most important
        (coarsest) classes go to the fastest tier until its budget is
        exhausted; the remainder spills to the next tier(s).
        """
        placement = []
        tier = 0
        used = 0
        for nbytes in class_bytes:
            while tier < len(self.tiers) - 1 and used + nbytes > fast_budget_bytes:
                tier += 1
                used = 0
                fast_budget_bytes = int(self.tiers[tier].capacity_tb * 1e12)
            placement.append(tier)
            used += nbytes
        return placement

    def write_seconds(
        self, class_bytes: list[int], placement: list[int], n_processes: int
    ) -> float:
        """Modeled time to write all classes per the placement (tiers overlap)."""
        per_tier: dict[int, int] = {}
        for nbytes, t in zip(class_bytes, placement):
            per_tier[t] = per_tier.get(t, 0) + nbytes
        return max(
            self.tiers[t].write_seconds(nb, n_processes) for t, nb in per_tier.items()
        )

    def read_seconds(
        self, class_bytes: list[int], placement: list[int], n_processes: int, k: int
    ) -> float:
        """Modeled time to read the first ``k`` classes."""
        per_tier: dict[int, int] = {}
        for nbytes, t in zip(class_bytes[:k], placement[:k]):
            per_tier[t] = per_tier.get(t, 0) + nbytes
        if not per_tier:
            return 0.0
        return max(
            self.tiers[t].read_seconds(nb, n_processes) for t, nb in per_tier.items()
        )


# ----------------------------------------------------------------------
# executed backend: directory-per-tier on local disk


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")


class LocalTierStore:
    """Directory-per-tier object store executing the placement policy.

    Layout under ``root``::

        tier0_<slug>/...   one directory per tier, objects under their keys
        index.json         crash-safe object index (atomically replaced)

    ``tier_budget_bytes[i]`` caps tier ``i``'s stored bytes; a put that
    would exceed it spills to the next tier (mirroring how
    :meth:`TieredStorage.place_classes` spills by capacity), and only a
    full *last* tier raises :class:`StorageError`.  Every object (and
    the index) lands through :func:`~repro.io.publish.atomic_publish`,
    its CRC32 recorded in the index and verified on :meth:`get` — an
    interrupted put is invisible (at worst an inert ``*.tmp``), never a
    torn object.  Fault sites: ``storage.tier.put`` (``error`` fails a
    put, ``delay`` models a slow device) and the primitive's
    ``storage.tier.{pre_tmp,post_tmp,file}``.
    """

    _INDEX = "index.json"

    def __init__(
        self,
        root: str | Path,
        tiers: list[StorageTier] | None = None,
        tier_budget_bytes: list[int | None] | None = None,
    ):
        tiers = list(tiers) if tiers is not None else [NVME_TIER, ALPINE_PFS, ARCHIVE_TIER]
        self.policy = TieredStorage(tiers)
        if tier_budget_bytes is None:
            tier_budget_bytes = [None] * len(tiers)
        if len(tier_budget_bytes) != len(tiers):
            raise ValueError("one budget (or None) per tier required")
        self.tier_budget_bytes = list(tier_budget_bytes)
        self.root = Path(root)
        self._dirs = [
            self.root / f"tier{i}_{_slug(t.name)}" for i, t in enumerate(tiers)
        ]
        for d in self._dirs:
            d.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / self._INDEX
        if self._index_path.exists():
            try:
                doc = json.loads(self._index_path.read_text())
            except (OSError, json.JSONDecodeError) as e:
                raise StorageError(f"corrupt tier-store index at {self._index_path}") from e
            self._objects: dict[str, dict] = doc.get("objects", {})
            self._containers: dict[str, dict] = doc.get("containers", {})
        else:
            self._objects = {}
            self._containers = {}
            self._flush_index()

    @property
    def tiers(self) -> list[StorageTier]:
        return self.policy.tiers

    def _flush_index(self) -> None:
        doc = {"objects": self._objects, "containers": self._containers}
        atomic_publish(
            self._index_path, json.dumps(doc, indent=1).encode(), "rename", "storage.tier"
        )

    def _object_path(self, key: str, tier: int) -> Path:
        p = (self._dirs[tier] / key).resolve()
        if self._dirs[tier].resolve() not in p.parents:
            raise StorageError(f"key {key!r} escapes its tier directory")
        return p

    def used_bytes(self, tier: int | None = None) -> int:
        """Stored bytes in one tier (or across all tiers)."""
        return sum(
            meta["nbytes"]
            for meta in self._objects.values()
            if tier is None or meta["tier"] == tier
        )

    def keys(self) -> list[str]:
        return sorted(self._objects)

    def tier_of(self, key: str) -> int:
        """Which tier holds ``key``."""
        try:
            return int(self._objects[key]["tier"])
        except KeyError:
            raise StorageError(f"no object {key!r} in the store") from None

    def put(self, key: str, data, tier: int = 0, spill: bool = True) -> int:
        """Store one object on ``tier`` (or the first tier with room).

        Returns the tier the bytes actually landed on.  ``spill=False``
        turns a full budget into an immediate :class:`StorageError`.
        """
        data = bytes(data)
        faults.delay_point("storage.tier.put")
        faults.error_point("storage.tier.put")
        if not 0 <= tier < len(self.tiers):
            raise StorageError(f"tier {tier} out of range [0, {len(self.tiers)})")
        if key in self._objects:
            self.delete(key)
        placed = tier
        while True:
            budget = self.tier_budget_bytes[placed]
            if budget is None or self.used_bytes(placed) + len(data) <= budget:
                break
            if not spill or placed + 1 >= len(self.tiers):
                raise StorageError(
                    f"tier {placed} ({self.tiers[placed].name}) budget "
                    f"{budget} B cannot fit {len(data)} B for {key!r}"
                )
            placed += 1
        path = self._object_path(key, placed)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_publish(path, data, "rename", "storage.tier")
        self._objects[key] = {
            "tier": placed,
            "nbytes": len(data),
            "crc32": zlib.crc32(data),
        }
        self._flush_index()
        return placed

    def get(self, key: str) -> bytes:
        """One object's bytes, CRC-verified against the index."""
        meta = self._objects.get(key)
        if meta is None:
            raise StorageError(f"no object {key!r} in the store")
        path = self._object_path(key, meta["tier"])
        try:
            data = path.read_bytes()
        except OSError as e:
            raise StorageError(f"object {key!r} unreadable at {path}") from e
        if len(data) != meta["nbytes"] or zlib.crc32(data) != meta["crc32"]:
            raise StorageError(
                f"object {key!r} corrupt at {path} "
                f"({len(data)} of {meta['nbytes']} bytes)"
            )
        return data

    def delete(self, key: str) -> None:
        meta = self._objects.pop(key, None)
        if meta is None:
            return
        try:
            self._object_path(key, meta["tier"]).unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        self._flush_index()

    # -- executed container placement -------------------------------------
    def place_container(
        self, key: str, payload, fast_budget_bytes: int | None = None
    ) -> dict:
        """Split a container across tiers per the placement policy.

        The payload's header plus each shard/class extent (see
        :func:`repro.io.container.container_extents`) become separate
        objects; extents are assigned tiers by
        :meth:`TieredStorage.place_classes` over ``fast_budget_bytes``
        (default: what remains of tier 0's budget), then written with
        budget-full spill.  Returns the placement record (also kept in
        the index so :meth:`read_container` needs only the key)::

            {"key", "payload_start", "extents": [{"name", "tier", "nbytes"}]}
        """
        from .container import container_extents

        payload = bytes(payload)
        payload_start, extents = container_extents(payload)
        header_tier = self.put(f"{key}/header", payload[:payload_start], tier=0)
        if fast_budget_bytes is None:
            budget0 = self.tier_budget_bytes[0]
            fast_budget_bytes = (
                max(budget0 - self.used_bytes(0), 0)
                if budget0 is not None
                else len(payload) + 1
            )
        placement = self.policy.place_classes(
            [e["nbytes"] for e in extents], int(fast_budget_bytes)
        )
        rows = []
        for e, tier in zip(extents, placement):
            lo = payload_start + e["offset"]
            placed = self.put(
                f"{key}/{_slug(e['name'])}", payload[lo : lo + e["nbytes"]], tier=tier
            )
            rows.append({"name": e["name"], "tier": placed, "nbytes": e["nbytes"]})
        record = {
            "key": key,
            "payload_start": payload_start,
            "header_tier": header_tier,
            "extents": rows,
        }
        self._containers[key] = record
        self._flush_index()
        return record

    def read_container(self, key: str) -> bytes:
        """Reassemble a placed container byte-for-byte (header + extents)."""
        record = self._containers.get(key)
        if record is None:
            raise StorageError(f"no placed container {key!r} in the store")
        parts = [self.get(f"{key}/header")]
        parts.extend(self.get(f"{key}/{_slug(e['name'])}") for e in record["extents"])
        return b"".join(parts)

    def container_record(self, key: str) -> dict | None:
        """The placement record of one placed container (or None)."""
        rec = self._containers.get(key)
        return None if rec is None else json.loads(json.dumps(rec))

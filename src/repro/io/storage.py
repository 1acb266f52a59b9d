"""Multi-tier storage: a performance model of where coefficient classes live.

Stands in for Summit's Alpine parallel file system (and slower archive
tiers) in the visualization-workflow showcase.  Each
:class:`StorageTier` has aggregate bandwidth, per-operation latency,
and a per-process bandwidth cap; :class:`TieredStorage` routes
coefficient classes to tiers by a placement policy, which is how the
paper's Figure 1 "intelligently moves each coefficient class across
multi-tiered-storage systems".  :meth:`TieredStorage.write_seconds` /
``read_seconds`` model Summit-scale tiers for the Fig. 1 path — nothing
moves.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "StorageTier",
    "TieredStorage",
    "ALPINE_PFS",
    "NVME_TIER",
    "ARCHIVE_TIER",
]


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

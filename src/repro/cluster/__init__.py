"""Partitioned domains: the shard codec, node and scaling models.

Partitions are independent (the paper exchanges no halo), so running
them in parallel is an ``executor.map`` — see :mod:`repro.parallel`.
"""

from .pipeline import PipelineModel, workflow_pipeline
from .sharded import (
    BlockPlan,
    ShardCodec,
    decode_shard,
    encode_shards,
    plan_shards,
    shard_tolerance,
)
from .node import DESKTOP, NodeSpec, SUMMIT_NODE, node_speedup, partition_shape
from .scaling import (
    WeakScalingPoint,
    shape_for_bytes_2d,
    shape_for_bytes_3d,
    weak_scaling,
)

__all__ = [
    "BlockPlan",
    "DESKTOP",
    "NodeSpec",
    "PipelineModel",
    "SUMMIT_NODE",
    "ShardCodec",
    "WeakScalingPoint",
    "decode_shard",
    "encode_shards",
    "node_speedup",
    "partition_shape",
    "plan_shards",
    "shard_tolerance",
    "shape_for_bytes_2d",
    "shape_for_bytes_3d",
    "weak_scaling",
    "workflow_pipeline",
]

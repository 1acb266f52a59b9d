"""Partitioned domains: shard codecs, block plans, node and scaling models.

Partitions are independent (the paper exchanges no halo), so running
them in parallel is an ``executor.map`` — see :mod:`repro.parallel`.
"""

from .pipeline import PipelineModel, workflow_pipeline
from .partition import BlockPlan, BlockRefactorer, plan_blocks
from .sharded import (
    ShardCodec,
    ShardedCompressor,
    ShardedFrame,
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
    "BlockRefactorer",
    "DESKTOP",
    "NodeSpec",
    "PipelineModel",
    "SUMMIT_NODE",
    "ShardCodec",
    "ShardedCompressor",
    "ShardedFrame",
    "WeakScalingPoint",
    "decode_shard",
    "encode_shards",
    "node_speedup",
    "partition_shape",
    "plan_blocks",
    "plan_shards",
    "shard_tolerance",
    "shape_for_bytes_2d",
    "shape_for_bytes_3d",
    "weak_scaling",
    "workflow_pipeline",
]

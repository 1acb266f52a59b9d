"""Cluster substrate: SPMD fabrics, node models, weak-scaling model."""

from .fabric import (
    ProcessComm,
    RemoteRankError,
    SimComm,
    SpmdError,
    SpmdRunReport,
    SpmdTimeout,
    ThreadComm,
    last_run_report,
    run_spmd,
)
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
    "ProcessComm",
    "RemoteRankError",
    "SUMMIT_NODE",
    "ShardCodec",
    "ShardedCompressor",
    "ShardedFrame",
    "SimComm",
    "SpmdError",
    "SpmdRunReport",
    "SpmdTimeout",
    "ThreadComm",
    "WeakScalingPoint",
    "decode_shard",
    "encode_shards",
    "last_run_report",
    "node_speedup",
    "partition_shape",
    "plan_blocks",
    "plan_shards",
    "run_spmd",
    "shard_tolerance",
    "shape_for_bytes_2d",
    "shape_for_bytes_3d",
    "weak_scaling",
    "workflow_pipeline",
]

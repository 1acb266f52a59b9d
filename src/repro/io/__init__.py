"""I/O substrate: tiered-storage model, refactored-data container, workflows."""

from .container import (
    ContainerError,
    RefactoredFileReader,
    ShardedFileReader,
    write_refactored,
    write_sharded_stream,
)
from .lifecycle import AnalysisRequest, LifecycleOutcome, simulate_lifecycle, typical_request_trace
from .stream import (
    PredictedStep,
    PreparedStep,
    RecoveryReport,
    ShardedStep,
    StepStreamReader,
    StepStreamWriter,
    StreamError,
)
from .storage import (
    ALPINE_PFS,
    ARCHIVE_TIER,
    NVME_TIER,
    StorageTier,
    TieredStorage,
)
from .workflow import (
    DemoResult,
    WorkflowPoint,
    model_workflow,
    run_workflow_demo,
)

__all__ = [
    "ALPINE_PFS",
    "AnalysisRequest",
    "ARCHIVE_TIER",
    "ContainerError",
    "LifecycleOutcome",
    "DemoResult",
    "NVME_TIER",
    "PredictedStep",
    "PreparedStep",
    "RecoveryReport",
    "RefactoredFileReader",
    "ShardedFileReader",
    "ShardedStep",
    "StepStreamReader",
    "StepStreamWriter",
    "StorageTier",
    "StreamError",
    "TieredStorage",
    "WorkflowPoint",
    "model_workflow",
    "run_workflow_demo",
    "simulate_lifecycle",
    "typical_request_trace",
    "write_refactored",
    "write_sharded_stream",
]

"""Process/thread/serial concurrency substrate for the codec pipeline.

Every layer — entropy segments, zlib sub-blocks, Huffman sync ranges,
shards, streaming pipelines — schedules through this one interface.
See :mod:`repro.parallel.executors` for the backends and
:mod:`repro.parallel.shm` for the shared-memory transport the process
backend's ``map_shared`` ships heavy operands through.
"""

from .executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    default_spec,
    get_executor,
    set_default_executor,
)
from .shm import (
    ArrayRef,
    BytesRef,
    SharedBlock,
    ShmUnavailable,
    share_array,
    share_bytes,
    unlink_segment,
)

__all__ = [
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "set_default_executor",
    "default_spec",
    "available_workers",
    "ShmUnavailable",
    "SharedBlock",
    "ArrayRef",
    "BytesRef",
    "share_array",
    "share_bytes",
    "unlink_segment",
]

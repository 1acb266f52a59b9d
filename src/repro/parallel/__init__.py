"""The one concurrency substrate: serial, thread and process executors.

Every fan-out — entropy segments, zlib sub-blocks, Huffman sync ranges,
shards, independent partitions — schedules through this one interface,
and this is the only package that imports ``multiprocessing`` or creates
a shared-memory segment (``cluster.pipeline.run_pipeline`` sizes itself
from an executor but keeps its stateful in-order stages on a dedicated
thread pool).  See :mod:`repro.parallel.executors` for the
backends and :mod:`repro.parallel.shm` for the shared-memory transport
the process backend's ``map_shared`` ships heavy operands through.
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
]

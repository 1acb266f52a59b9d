"""The one concurrency substrate: serial, thread and process executors.

Every fan-out — entropy segments, zlib sub-blocks, Huffman sync ranges,
shards, independent partitions — schedules through this one interface,
``map``, each job carrying its own slice of the data, and this is the
only package that imports ``multiprocessing``.  See
:mod:`repro.parallel.executors` for the backends.
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

__all__ = [
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "set_default_executor",
    "default_spec",
    "available_workers",
]

"""Kernel-timeline tracing for the simulated GPU.

Turns the launch records of one pass
(``list(iter_decompose_launches(hier, opts, operation))``, see
:mod:`repro.kernels.launches`) into an inspectable timeline:
per-slice launches are scheduled onto their streams with
:class:`~repro.gpu.streams.StreamScheduler`, single launches run
back-to-back, and the result can be exported as Chrome ``chrome://tracing``
JSON (each kernel a complete event on its stream's row) — the
simulated-substrate analogue of an `nvprof` timeline, handy for seeing
*why* e.g. the single-stream 3D pipeline stalls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cost import KernelLaunch, gpu_kernel_time
from .device import DeviceSpec, V100

__all__ = ["TraceEvent", "build_timeline", "to_chrome_trace"]


@dataclass
class TraceEvent:
    """One kernel execution interval on a stream."""

    name: str
    category: str
    stream: int
    start_s: float
    end_s: float
    level: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def build_timeline(
    records: list[KernelLaunch], device: DeviceSpec = V100
) -> list[TraceEvent]:
    """Schedule launch records into a per-stream timeline.

    Records with ``n_launches > 1`` expand into that many per-slice
    events distributed round-robin over ``min(n_streams, device cap)``
    streams; everything else serializes on stream 0 after the previous
    record completes (the driver's default-stream semantics).
    """
    from ..kernels.launches import category_of

    events: list[TraceEvent] = []
    clock = 0.0
    for rec in records:
        total = gpu_kernel_time(rec, device)
        launches = max(1, rec.n_launches)
        streams = max(1, min(rec.n_streams, launches, device.max_concurrent_kernels))
        if launches == 1:
            events.append(
                TraceEvent(
                    name=rec.name,
                    category=category_of(rec),
                    stream=0,
                    start_s=clock,
                    end_s=clock + total,
                    level=rec.level,
                )
            )
            clock += total
            continue
        # expand into equal per-launch slices on a rotating stream set;
        # each stream executes ~ceil(launches/streams) waves, so one
        # event lasts total/waves and the streams end together at total
        waves = -(-launches // streams)
        per = total / waves
        stream_clock = [clock] * streams
        for i in range(launches):
            s = i % streams
            start = stream_clock[s]
            end = start + per
            events.append(
                TraceEvent(
                    name=f"{rec.name}[{i}]",
                    category=category_of(rec),
                    stream=s,
                    start_s=start,
                    end_s=end,
                    level=rec.level,
                )
            )
            stream_clock[s] = end
        clock = max(stream_clock)
    return events


def to_chrome_trace(events: list[TraceEvent]) -> str:
    """Serialize a timeline as Chrome tracing JSON (microsecond units)."""
    payload = [
        {
            "name": e.name,
            "cat": e.category,
            "ph": "X",
            "pid": 0,
            "tid": e.stream,
            "ts": e.start_s * 1e6,
            "dur": e.duration_s * 1e6,
            "args": {"level": e.level},
        }
        for e in events
    ]
    return json.dumps({"traceEvents": payload})

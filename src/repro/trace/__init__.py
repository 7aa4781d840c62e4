"""repro.trace — the typed I/O event spine.

One event stream, many consumers: the POSIX/stdio layers, the ADIOS2
engines and the MPI communicator emit typed, timestamped
:class:`~repro.trace.events.IOEvent` records onto a
:class:`~repro.trace.bus.TraceBus`; the Darshan monitor, the DXT
tracer, the ADIOS2 ``profiling.json`` counters and the exporters are
all *subscribers* that fold the same stream.  This replaces the three
separate accounting planes (Darshan counters, ``EngineProfile``,
inline clock charging) that previously tallied each physical operation
independently.

The bus is zero-cost when disabled: with no subscribers attached,
``emit`` returns before any event object is built.
"""

from repro.trace.bus import TraceBus
from repro.trace.events import EVENT_KINDS, FS_LAYERS, IOEvent, make_event
from repro.trace.export import (
    LayerBreakdown,
    chrome_trace,
    chrome_trace_json,
    dxt_dump,
    layer_breakdown,
    render_breakdown,
)
from repro.trace.session import TraceSession
from repro.trace.subscribers import EventRecorder, ProfileFold

__all__ = [
    "EVENT_KINDS",
    "EventRecorder",
    "FS_LAYERS",
    "IOEvent",
    "LayerBreakdown",
    "ProfileFold",
    "TraceBus",
    "TraceSession",
    "chrome_trace",
    "chrome_trace_json",
    "dxt_dump",
    "layer_breakdown",
    "make_event",
    "render_breakdown",
]

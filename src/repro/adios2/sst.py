"""The Sustainable Staging Transport (SST) engine — streaming, no files.

The paper's future work (§VI): "The ADIOS2 SST engine enables the direct
connection of data producers and consumers via the ADIOS2 write/read
APIs, facilitating the movement of data between processes for in-situ
processing, analysis, and visualization."

This implementation provides exactly that for the virtual cluster: a
writer-side engine with the BP step API whose steps never touch the
filesystem — each ``end_step`` publishes the step to an in-memory stream
that one or more :class:`SSTReader` consumers drain, paying network
(not storage) costs.  Consumers attach by stream name, as SST consumers
attach via the engine's contact file.

Flow control mirrors ADIOS2's SST engine parameters:

* the staging buffer is bounded (``queue_depth`` steps); an entry is
  retired once every attached consumer has taken it;
* ``policy="discard"`` (SST's ``QueueFullPolicy=Discard``) drops the
  oldest buffered step when the buffer is full — consumers that had not
  reached it skip ahead;
* ``policy="block"`` (``QueueFullPolicy=Block``) refuses to publish into
  a full buffer: :class:`StagingBackpressure` is raised so a transport
  (see :mod:`repro.streaming.staging`) can model the producer stall in
  virtual time instead;
* each consumer holds an independent cursor, so N readers each observe
  every surviving step exactly once and in publish order;
* reader-side ``begin_step`` follows ADIOS2 semantics: a step when one
  is buffered, ``BlockingIOError`` while the producer is alive but the
  buffer is empty (``StepStatus.NOT_READY``), ``None`` after the
  producer closed and the buffer drained (``StepStatus.END_OF_STREAM``).

Streams live in a :class:`StreamRegistry` — the "contact file"
directory.  Engines and readers default to the module registry (kept
for API compatibility and reset via :func:`reset_streams`), but runs
should pass their own registry so streams cannot leak across runs,
sweep-executor forks, or tests.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.adios2.engine import Engine, EngineConfig
from repro.adios2.variables import numpy_dtype
from repro.fs.payload import SyntheticPayload
from repro.mpi.comm import VirtualComm

#: valid backpressure policies (ADIOS2 ``QueueFullPolicy``)
POLICIES = ("discard", "block")


class StagingBackpressure(BlockingIOError):
    """Raised on publish into a full staging buffer under ``block``."""


class StepStatus(enum.Enum):
    """Reader-side step availability (ADIOS2 ``StepStatus``)."""

    OK = "OK"
    NOT_READY = "NotReady"
    END_OF_STREAM = "EndOfStream"


class StreamRegistry:
    """A scoped "contact file" directory: stream name → live stream.

    One registry per run/session keeps streams from leaking between
    runs; :meth:`reset` is the teardown hook.
    """

    def __init__(self) -> None:
        self._streams: dict[str, _Stream] = {}

    def lookup(self, name: str) -> "_Stream | None":
        return self._streams.get(name)

    def advertise(self, stream: "_Stream") -> None:
        existing = self._streams.get(stream.name)
        if existing is not None and not existing.closed:
            raise RuntimeError(
                f"SST stream {stream.name!r} already being produced")
        self._streams[stream.name] = stream

    def open_streams(self) -> list[str]:
        """Names of currently-advertised streams (debug/monitoring)."""
        return sorted(n for n, s in self._streams.items() if not s.closed)

    def reset(self) -> None:
        """Clear the registry (run teardown / test isolation)."""
        self._streams.clear()


#: the process-default registry — kept only so ad-hoc engine/reader use
#: (and the pre-existing API) works without threading a registry through;
#: runs are expected to scope their own StreamRegistry
_DEFAULT_REGISTRY = StreamRegistry()


def open_streams() -> list[str]:
    """Names advertised in the default registry (debug/monitoring)."""
    return _DEFAULT_REGISTRY.open_streams()


def reset_streams() -> None:
    """Clear the default stream registry (test isolation)."""
    _DEFAULT_REGISTRY.reset()


@dataclass
class StepData:
    """One published step: variable name → assembled payload info."""

    step: int
    variables: dict[str, dict] = field(default_factory=dict)
    total_bytes: int = 0
    #: producer-side step attributes (e.g. ``kind``/``time_step`` tags)
    attributes: dict = field(default_factory=dict)


@dataclass
class _Stream:
    """Shared state between one producer and its consumers.

    ``entries`` holds the buffered steps; ``base`` is the publish index
    of ``entries[0]``, so step *i* of the stream's lifetime lives at
    ``entries[i - base]`` while buffered.  ``cursors`` maps consumer id
    → next publish index to take; an entry is retired once every cursor
    has passed it (and nothing retires while no consumer is attached —
    late consumers then see the oldest surviving steps).
    """

    name: str
    queue_depth: int
    policy: str = "discard"
    entries: deque = field(default_factory=deque)
    base: int = 0
    published: int = 0
    closed: bool = False
    dropped: int = 0
    buffered_bytes: int = 0
    cursors: dict[int, int] = field(default_factory=dict)
    _next_cid: int = 0

    # -- consumer cursors -------------------------------------------------

    def attach(self) -> int:
        """Register a consumer; its cursor starts at the oldest entry."""
        cid = self._next_cid
        self._next_cid += 1
        self.cursors[cid] = self.base
        return cid

    def detach(self, cid: int) -> None:
        self.cursors.pop(cid, None)
        self._retire()

    def peek_for(self, cid: int) -> tuple[int, StepData] | None:
        """(publish index, step) next in line for one consumer, if any."""
        cursor = max(self.cursors[cid], self.base)  # skip dropped steps
        self.cursors[cid] = cursor
        if cursor - self.base >= len(self.entries):
            return None
        return cursor, self.entries[cursor - self.base]

    def advance(self, cid: int) -> None:
        self.cursors[cid] += 1
        self._retire()

    def status_for(self, cid: int) -> StepStatus:
        if self.peek_for(cid) is not None:
            return StepStatus.OK
        return StepStatus.END_OF_STREAM if self.closed else \
            StepStatus.NOT_READY

    def _retire(self) -> None:
        """Free entries every attached consumer has consumed."""
        if not self.cursors:
            return
        low = min(self.cursors.values())
        while self.entries and self.base < low:
            gone = self.entries.popleft()
            self.base += 1
            self.buffered_bytes -= gone.total_bytes

    # -- producer side ----------------------------------------------------

    def can_accept(self) -> bool:
        """Room for one more step without dropping?"""
        return len(self.entries) < self.queue_depth

    def publish(self, data: StepData) -> list[tuple[int, StepData]]:
        """Buffer one step; returns the (index, step) pairs dropped."""
        dropped: list[tuple[int, StepData]] = []
        while not self.can_accept():
            if self.policy == "block":
                raise StagingBackpressure(
                    f"stream {self.name!r} staging buffer full "
                    f"({len(self.entries)}/{self.queue_depth} steps, "
                    f"{self.buffered_bytes} bytes) under block policy")
            old = self.entries.popleft()
            dropped.append((self.base, old))
            self.base += 1
            self.buffered_bytes -= old.total_bytes
            self.dropped += 1
        self.entries.append(data)
        self.buffered_bytes += data.total_bytes
        self.published += 1
        return dropped


def assemble_variable(data: StepData, name: str) -> np.ndarray:
    """Assemble one variable of a received step from its chunks.

    Real payloads are placed at their (offset, extent) in the global
    shape — the reader-side counterpart of the §III-B ``storeChunk``
    procedure.  Synthetic chunks (modeled runs) carry no data.
    """
    entry = data.variables.get(name)
    if entry is None:
        raise KeyError(f"step {data.step} carries no variable {name!r}")
    if entry.get("chunks") is None:
        raise NotImplementedError(
            "synthetic chunks carry no data to assemble")
    out = np.zeros(entry["global_shape"],
                   dtype=numpy_dtype(entry["dtype"]))
    for chunk in entry["chunks"]:
        payload = chunk["payload"]
        if isinstance(payload, SyntheticPayload):
            raise NotImplementedError(
                "synthetic chunks carry no data to assemble")
        arr = np.frombuffer(payload.tobytes(), dtype=out.dtype)
        sel = tuple(slice(o, o + e) for o, e in
                    zip(chunk["offset"], chunk["extent"]))
        out[sel] = arr.reshape(chunk["extent"])
    return out


class SSTEngine(Engine):
    """Writer side of the staging transport."""

    engine_type = "SST"
    extension = ".sst"

    def __init__(self, posix, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None,
                 queue_depth: int = 2, policy: str = "discard",
                 registry: StreamRegistry | None = None):
        if mode != "w":
            raise ValueError("SSTEngine is write-side; use SSTReader to read")
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r}; "
                             f"valid: {POLICIES}")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.registry = registry if registry is not None else \
            _DEFAULT_REGISTRY
        name = path.rsplit("/", 1)[-1]
        if name.endswith(".sst"):
            name = name[: -len(".sst")]
        self.stream = _Stream(name=name, queue_depth=queue_depth,
                              policy=policy)
        self.registry.advertise(self.stream)
        # ``posix`` may be None: a stream needs no filesystem, and an
        # engine without one folds its profile directly
        super().__init__(posix, comm, path, mode, config)
        self._cur_attrs: dict = {}
        #: (index, StepData) pairs the most recent end_step discarded
        self.last_dropped: list[tuple[int, StepData]] = []

    def _scope_name(self) -> str:
        return self.stream.name

    # -- write protocol (shared with the BP engines) ------------------------

    def put_attribute(self, name: str, value) -> None:
        """Tag the current step (rides along in ``StepData.attributes``)."""
        self._check_in_step()
        self._cur_attrs[name] = value

    def end_step(self) -> StepData:
        """Publish the step to the stream (network cost, no storage)."""
        self._check_in_step()
        data = StepData(step=self._step, attributes=dict(self._cur_attrs))
        for name, var in self._cur_vars.items():
            data.variables[name] = {
                "dtype": var.dtype,
                "global_shape": var.global_shape,
                "chunks": [{"rank": c.rank, "offset": c.offset,
                            "extent": c.extent, "payload": c.payload}
                           for c in var.chunks],
            }
            data.total_bytes += var.total_bytes
        for name, ranks_g, sizes_g, entropy in self._cur_bulk:
            total = int(sizes_g.sum())
            data.variables[name] = {
                "dtype": "uint8_t",
                "global_shape": (total,),
                "chunks": None,  # synthetic: sizes only
                "group_ranks": ranks_g,
                "group_sizes": sizes_g,
                "entropy": entropy,
            }
            data.total_bytes += total
        # under block policy, refuse before charging any cost so the
        # caller (a staging transport) can drain consumers, model the
        # stall in virtual time, and re-issue the end_step
        if self.stream.policy == "block" and \
                not self.stream.can_accept():
            raise StagingBackpressure(
                f"stream {self.stream.name!r} staging buffer full "
                f"({len(self.stream.entries)}/{self.stream.queue_depth} "
                f"steps) under block policy")
        # producers ship their chunks over the NIC (derated live by any
        # active NIC-flap fault — the repro.cluster network model, not
        # the storage model)
        per_rank = self._staged_bytes()
        cost = per_rank / self.comm.effective_bandwidth()
        self.comm.clocks += cost
        ranks = np.arange(self.comm.size)
        bus = self.posix.trace if self._fold is not None else None
        if bus is not None:
            with bus.scope(self._trace_scope):
                bus.emit("shuffle", ranks, nbytes=per_rank, duration=cost,
                         start=self.comm.clocks - cost, api="ENGINE",
                         layer="engine")
                if bus.wants("publish"):
                    with bus.step(self._step):
                        bus.emit("publish", ranks, nbytes=per_rank,
                                 duration=cost,
                                 start=self.comm.clocks - cost,
                                 api="SST", layer="stream")
        else:  # no POSIX layer attached: fold directly
            self.profile.add("aggregation", ranks, cost)
        self.last_dropped = self.stream.publish(data)
        if bus is not None and self.last_dropped and bus.wants("drop"):
            for _idx, old in self.last_dropped:
                with bus.step(old.step):
                    bus.emit("drop", np.array([0]), nbytes=old.total_bytes,
                             start=self.comm.clocks[:1], api="SST",
                             layer="stream")
        self._in_step = False
        self._cur_attrs = {}
        return data

    def _finish(self) -> None:
        self.stream.closed = True

    def abandon(self) -> None:
        """Drop the producer as a crash would: its contact file goes.

        The stream is marked closed, so readers drain the steps already
        published and then reach end of stream, and a restarted producer
        may advertise the same name.
        """
        self.stream.closed = True
        super().abandon()


class SSTReader:
    """Consumer side: an independent cursor over a live stream."""

    def __init__(self, name: str, comm: VirtualComm | None = None,
                 registry: StreamRegistry | None = None, bus=None):
        if name.endswith(".sst"):
            name = name[: -len(".sst")]
        registry = registry if registry is not None else _DEFAULT_REGISTRY
        stream = registry.lookup(name)
        if stream is None:
            raise ConnectionError(
                f"no SST stream named {name!r} is being produced; "
                f"advertised: {registry.open_streams()}"
            )
        self.stream = stream
        self.comm = comm
        self.bus = bus
        self.consumed = 0
        self._cid = stream.attach()

    def status(self) -> StepStatus:
        """ADIOS2 ``BeginStep`` status without taking the step."""
        return self.stream.status_for(self._cid)

    def begin_step(self) -> StepData | None:
        """Next available step, or None if the producer closed.

        Raises ``BlockingIOError`` while the producer is alive but no
        step is buffered for this cursor (``StepStatus.NOT_READY``).
        """
        peek = self.stream.peek_for(self._cid)
        if peek is None:
            if self.stream.closed:
                return None
            raise BlockingIOError("no step available yet (producer active)")
        _index, data = peek
        self.stream.advance(self._cid)
        self.consumed += 1
        if self.comm is not None:
            cost = data.total_bytes / self.comm.effective_bandwidth()
            self.comm.clocks += cost
            if self.bus is not None and self.bus.wants("deliver"):
                ranks = np.arange(self.comm.size)
                with self.bus.step(data.step):
                    self.bus.emit(
                        "deliver", ranks,
                        nbytes=data.total_bytes / self.comm.size,
                        duration=cost, start=self.comm.clocks - cost,
                        api="SST", layer="stream")
        return data

    def detach(self) -> None:
        """Release this cursor (entries it gated can retire)."""
        self.stream.detach(self._cid)

    def get(self, data: StepData, name: str) -> np.ndarray:
        """Assemble a variable from a received step (real payloads)."""
        return assemble_variable(data, name)

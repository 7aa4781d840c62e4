"""ADIOS2 BP engine: steps, staging, operators, aggregation, subfiles.

Reproduces the write path of the BP4/BP5 file engines (§II-A, Fig. 1):
an output "file" is a *directory* containing one data subfile per
aggregator (``data.0`` … ``data.M-1``), a metadata file (``md.0``), an
index table (``md.idx``) and, when profiling is on, ``profiling.json``
(BP5 adds a second metadata file ``mmd.0``).

Within a step, ranks ``put`` chunks of variables.  ``end_step``:

1. stages every chunk — an uncompressed put pays a staging **memcpy**
   (profiled; this is what Fig. 8 shows), a compressed put instead pays
   operator CPU and *skips the copy* (compressors emit straight into the
   staging buffer);
2. shuffles chunks to their aggregator ranks (network cost);
3. appends each aggregator's block to its subfile with the collective
   write-rate model, or overwrites in place when the step is a rewrite of
   an earlier step (BIT1's iteration-0 checkpoint semantics — on-disk
   size stays one copy while transferred bytes accumulate);
4. appends index/metadata records (rank 0).

Functional mode (real payloads) produces a self-describing container:
``md.0`` holds JSON-lines chunk records and the subfiles hold the (maybe
compressed) bytes, so a fresh engine can re-open the directory and read
every variable back — checkpoint/restart round-trips work end to end.

:class:`Engine`, the base of these engines, holds the step protocol
once for every backend: the BP engines here, the HDF5 and JSON backends
of :mod:`repro.openpmd` and the SST writer.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.adios2.aggregation import (
    AggregationPlan,
    BlockedShuffle,
    ShuffleDerivation,
    gather_cost_seconds,
    plan_aggregation,
    two_level_gather_cost,
)
from repro.mem import SplitValues, current_budget
from repro.adios2.profiling import EngineProfile
from repro.adios2.variables import Attribute, Chunk, Variable, numpy_dtype
from repro.compression.api import Compressor, get_compressor
from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.posix import PosixIO
from repro.mpi.comm import VirtualComm
from repro.trace.events import StepRow
from repro.trace.subscribers import ProfileFold
from repro.util.scatter import as_index, scatter_add

#: metadata size model (bytes) — calibrated so BP directory md files stay
#: in the few-hundred-KiB range Table II implies
MD0_HEADER = 1024
MD0_STEP_BASE = 512
MD0_PER_AGG = 64
MDIDX_HEADER = 64
MDIDX_PER_STEP = 64
#: staging-copy bandwidth for the memcpy accounting, bytes/s
MEMCPY_BANDWIDTH = 8.0e9


def _extra_md_bytes(md_bytes: int) -> int:
    """Bytes an extra metadata file (BP5's ``mmd.0``) appends beside an
    ``md.0`` record of ``md_bytes``."""
    return max(md_bytes // 2, 16)


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs (the paper's tuning surface)."""

    #: number of subfiles/aggregators; None = ADIOS2 default (1 per node).
    #: This is the ``OPENPMD_ADIOS2_BP5_NumAgg`` parameter of §IV-C.
    num_aggregators: int | None = None
    #: operator applied to every put ("blosc", "bzip2", or None)
    compressor: str | None = None
    #: emit profiling.json on close (OPENPMD_ADIOS2_HAVE_PROFILING=1)
    profiling: bool = False
    #: staging-buffer bound per aggregator; None = unbounded (BP4's
    #: "aggressive optimization"), a value = BP5's "tighter control over
    #: the host memory usage": flushes happen in bounded batches
    buffer_chunk_size: int | None = None
    #: BP5 ``AsyncWrite``: drain subfiles asynchronously behind the next
    #: step's compute instead of blocking ``end_step`` (double-buffered:
    #: a new flush waits for the previous drain of its subfile)
    async_drain: bool = False
    #: cap on resident staging bytes per aggregator when async draining;
    #: ``Put()`` blocks until the old buffer drains below it (BP5's
    #: MaxShmSize-style control), so peak host memory never exceeds
    #: ``max(bound, step_bytes)`` while total wait time is unchanged
    host_memory_bound: int | None = None
    #: memory plane: evaluate span-staged flushes in rank blocks of this
    #: size — bit-identical accounting with O(block) temporaries instead
    #: of O(ranks) (million-rank runs); None = whole-job evaluation
    rank_block_size: int | None = None
    #: "rank" (real ADIOS2 layout) or "node": resolution of the
    #: profiling.json counter axis — "node" keeps the profile O(nodes)
    profile_granularity: str = "rank"

    def __post_init__(self) -> None:
        """Normalise names to lower case and counts and sizes to int,
        then reject values no engine can run."""
        setattr_ = partial(object.__setattr__, self)  # frozen dataclass
        setattr_("compressor", str(self.compressor).lower()
                 if self.compressor else None)
        setattr_("profile_granularity", str(self.profile_granularity).lower())
        for name in ("num_aggregators", "buffer_chunk_size",
                     "host_memory_bound", "rank_block_size"):
            if getattr(self, name) is not None:
                setattr_(name, int(getattr(self, name)))
        for name in ("num_aggregators", "rank_block_size"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.profile_granularity not in ("rank", "node"):
            raise ValueError(
                "profile_granularity must be 'rank' or 'node', got "
                f"{self.profile_granularity!r}")


@dataclass
class _IndexEntry:
    """One stored chunk (functional mode)."""

    step_key: str
    var: str
    dtype: str
    rank: int
    subfile: int
    offset: int
    stored_nbytes: int
    raw_nbytes: int
    global_shape: tuple[int, ...]
    chunk_offset: tuple[int, ...]
    chunk_extent: tuple[int, ...]
    compressed: bool
    #: crc32 of the stored bytes; 0 for synthetic/no-verify chunks
    checksum: int = 0

    @property
    def selection(self) -> tuple[slice, ...]:
        """The chunk's slab within the variable's global shape."""
        return tuple(slice(o, o + x)
                     for o, x in zip(self.chunk_offset, self.chunk_extent))


class _SlotSpans:
    """Reserved in-place regions for a rewritable step, run-length-coded.

    One (offset, reserved) pair per subfile, but subfile loads come
    from integer spreads, so both vectors are piecewise-constant over
    the subfile index: a rewritable step's slot table encodes in a
    handful of segments instead of O(aggregators) objects per key —
    the difference between kilobytes and hundreds of megabytes when a
    long run touches many step keys at million-rank scale.
    """

    __slots__ = ("counts", "offsets", "reserved")

    def __init__(self, counts: np.ndarray, offsets: np.ndarray,
                 reserved: np.ndarray):
        self.counts = counts
        self.offsets = offsets
        self.reserved = reserved

    @classmethod
    def encode(cls, offsets: np.ndarray, reserved: np.ndarray) \
            -> "_SlotSpans":
        change = np.flatnonzero((np.diff(offsets) != 0)
                                | (np.diff(reserved) != 0))
        starts = np.concatenate(([0], change + 1))
        counts = np.diff(np.concatenate((starts, [len(offsets)])))
        return cls(counts, offsets[starts].copy(), reserved[starts].copy())

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.repeat(self.offsets, self.counts),
                np.repeat(self.reserved, self.counts))

    @property
    def nbytes(self) -> int:
        return (self.counts.nbytes + self.offsets.nbytes
                + self.reserved.nbytes)


@dataclass(frozen=True)
class _StepDerivation:
    """What a flush derives from its declaration alone, per rank.

    Every field is a pure function of the staged byte counts, the
    operator, the aggregation plan and the NIC bandwidth the gather legs
    were costed at (``nic``); the flush applies them (clock adds, emits,
    subfile writes) itself, in one order whether the values are fresh
    or memoised.  The arrays are read-only, so a consumer that would
    change one in place raises instead of corrupting later steps.
    """

    staged: np.ndarray
    #: operator seconds: staging memcpy, or codec CPU when compressing
    op_s: np.ndarray
    stored: np.ndarray
    gather: np.ndarray
    per_agg: np.ndarray
    nic: float

    def __post_init__(self) -> None:
        for arr in self._arrays():
            arr.setflags(write=False)

    def _arrays(self):
        """The distinct arrays (``stored`` is ``staged`` without a codec)."""
        arrays = (self.staged, self.op_s, self.stored, self.gather,
                  self.per_agg)
        return {id(a): a for a in arrays}.values()

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())


class IntegrityError(RuntimeError):
    """Stored data failed its checksum (corrupt checkpoint/diagnostics).

    Carries structured ``context`` (path, rank, step, expected/actual
    checksum) so restart orchestration can report *what* was corrupt,
    not just that something was.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 rank: int | None = None, step: str | int | None = None,
                 expected: int | None = None, actual: int | None = None):
        super().__init__(message)
        self.context = {"path": path, "rank": rank, "step": step,
                        "expected": expected, "actual": actual}


class Engine:
    """The step protocol every engine shares: BP4/BP5, HDF5, JSON, SST.

    A writer opens a step (``begin_step``), declares variables and puts
    chunks into them (``put`` for one rank's payload, ``put_group`` for
    per-rank byte counts or a span descriptor), then flushes the step
    with the engine's own ``end_step``.  Attributes may be defined at
    any time and persist on ``close``.

    The base owns the step state and its guards, the staged variables
    and their per-rank byte sum, the attributes and their serialiser,
    the profile with its scoped fold, the context manager and the crash
    semantics.  An engine supplies ``end_step``, its closing I/O
    (``_finish``), the descriptors it holds open (``_descriptors``) and
    its read side.
    """

    engine_type = "ENGINE"
    extension = ""

    def __init__(self, posix: PosixIO | None, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None):
        if mode not in ("w", "r", "a"):
            raise ValueError(f"unsupported engine mode {mode!r}")
        self.posix = posix
        self.comm = comm
        self.path = path if path.endswith(self.extension) else path + self.extension
        self.mode = mode
        self.config = config or EngineConfig()
        self.profile = EngineProfile(
            comm.size, self.engine_type,
            bin_of_rank=(comm.node_of_rank
                         if self.config.profile_granularity == "node"
                         else None))
        # this engine's profiling.json is a fold over the event spine:
        # the engine emits typed events (scoped to itself, so two open
        # engines on one bus stay separate) and the fold accumulates;
        # an engine with no POSIX layer has no bus to subscribe to
        self._trace_scope = f"{self.engine_type}:{self._scope_name()}"
        self._fold = None
        if posix is not None:
            self._fold = ProfileFold(self.profile, scope=self._trace_scope)
            posix.trace.subscribe(self._fold)
        self._step = -1
        self._in_step = False
        self._closed = False
        self._cur_vars: dict[str, Variable] = {}
        self._cur_bulk: list[tuple[str, np.ndarray | None,
                                   np.ndarray | SplitValues, str]] = []
        self._attributes: dict[str, Attribute] = {}
        #: high-water staging bytes per subfile buffer, per-rank drain
        #: stalls and per-subfile drain seconds: only engines with
        #: aggregators fill them
        self.peak_host_bytes = np.zeros(0, dtype=np.float64)
        self.drain_wait_seconds = np.zeros(0, dtype=np.float64)
        self.drain_seconds = np.zeros(0, dtype=np.float64)

    def _scope_name(self) -> str:
        """The name this engine's events are scoped under."""
        return self.path

    # -- write-side API -----------------------------------------------------------

    def begin_step(self) -> int:
        self._check_writable()
        if self._in_step:
            raise RuntimeError("previous step not ended")
        self._step += 1
        self._in_step = True
        self._cur_vars = {}
        self._cur_bulk = []
        return self._step

    def define_attribute(self, name: str, value) -> Attribute:
        attr = Attribute(name, value)
        self._attributes[name] = attr
        return attr

    @property
    def attributes(self) -> dict:
        """Attribute values (write side: as defined; read side: loaded)."""
        return {name: attr.value for name, attr in self._attributes.items()}

    def _adopt_attributes(self, values: dict) -> None:
        """Take the attributes a writer stored (read side)."""
        for name, value in values.items():
            self._attributes[name] = Attribute(name, value)

    def _attributes_doc(self) -> dict:
        """Attribute values as JSON data; a value JSON cannot encode is
        stored as its ``repr``, and only that value."""
        doc = {}
        for name, attr in self._attributes.items():
            try:
                json.dumps(attr.value)
            except TypeError:
                doc[name] = repr(attr.value)
            else:
                doc[name] = attr.value
        return doc

    def declare_variable(self, name: str, dtype: str,
                         global_shape: tuple[int, ...],
                         entropy: str = "particle_float32") -> Variable:
        self._check_in_step()
        var = self._cur_vars.get(name)
        if var is None:
            var = Variable(name=name, dtype=dtype,
                           global_shape=tuple(global_shape), entropy=entropy)
            self._cur_vars[name] = var
        return var

    def put(self, name: str, dtype: str, global_shape: tuple[int, ...],
            rank: int, offset: tuple[int, ...], extent: tuple[int, ...],
            data, entropy: str = "particle_float32") -> Chunk:
        """Stage one rank's chunk (functional path)."""
        var = self.declare_variable(name, dtype, global_shape, entropy)
        return var.put_chunk(rank, tuple(offset), tuple(extent), data)

    def put_group(self, name: str, ranks: np.ndarray | None,
                  nbytes_each,
                  entropy: str = "particle_float32") -> None:
        """Stage symmetric synthetic chunks for many ranks (modeled path).

        ``ranks=None`` with a :class:`~repro.mem.SplitValues` spanning
        every rank stages the group as a compact descriptor — no
        O(ranks) array is retained, and a chunked flush materialises
        only one rank block at a time.
        """
        self._check_in_step()
        if ranks is None:
            if not isinstance(nbytes_each, SplitValues):
                raise TypeError(
                    "ranks=None requires a SplitValues byte descriptor")
            if len(nbytes_each) != self.comm.size:
                raise ValueError(
                    f"span covers {len(nbytes_each)} ranks, "
                    f"comm has {self.comm.size}")
            self._cur_bulk.append((name, None, nbytes_each, entropy))
            return
        ranks = np.asarray(ranks)
        nbytes = np.broadcast_to(
            np.asarray(nbytes_each, dtype=np.int64), ranks.shape).copy()
        self._cur_bulk.append((name, ranks, nbytes, entropy))

    def end_steps(self, keys, trace_steps) -> bool:
        """Flush the open step's declaration once per overwrite key in
        ``keys`` in one pass, step ``k`` under trace step
        ``trace_steps[k]`` (the step lane; see :class:`BPEngineBase`).

        Returns False, having flushed nothing, when the engine cannot
        take the run: the caller then ends the open step with
        :meth:`end_step` and flushes the rest one step at a time.  Only
        the BP engines have the lane.
        """
        return False

    def _staged_bytes(self) -> np.ndarray:
        """Bytes the open step stages, per rank."""
        n = self.comm.size
        staged = np.zeros(n, dtype=np.float64)
        for var in self._cur_vars.values():
            staged += var.per_rank_bytes(n)
        for _name, ranks, nbytes, _entropy in self._cur_bulk:
            if ranks is None:
                staged += nbytes.slice(0, n).astype(np.float64)
            else:
                scatter_add(staged, ranks, nbytes.astype(np.float64))
        return staged

    # -- fault plane --------------------------------------------------------------------

    def handle_rank_failure(self, dead_ranks) -> None:
        """Fail aggregation over when ranks die (no aggregators: no-op)."""

    def abandon(self) -> None:
        """Drop the engine as a crashed process would: no closing I/O.

        Descriptors are reaped without metadata cost and the profile fold
        is unsubscribed; whatever was flushed stays on disk exactly as
        the crash left it.
        """
        if self._closed:
            return
        for fds in self._descriptors():
            self.posix.release_fds(fds)
        self._release_fold()
        self._in_step = False
        self._closed = True

    def _descriptors(self) -> list:
        """The descriptors the engine holds open (fds or fd arrays)."""
        return []

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self._in_step:
            raise RuntimeError("cannot close an engine mid-step")
        self._finish()
        self._release_fold()
        self._closed = True

    def _finish(self) -> None:
        """The engine's closing I/O."""

    def _release_fold(self) -> None:
        if self._fold is not None:
            self.posix.trace.unsubscribe(self._fold)

    # -- guards --------------------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.mode == "r":
            raise RuntimeError("engine opened read-only")

    def _check_in_step(self) -> None:
        self._check_writable()
        if not self._in_step:
            raise RuntimeError("call begin_step() first")

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BPEngineBase(Engine):
    """Shared implementation of the BP-family file engines."""

    engine_type = "BP"
    extension = ".bp"
    extra_meta_files: tuple[str, ...] = ()
    #: engine-default staging bound (overridden per subclass); None =
    #: buffer the whole step (BP4)
    default_buffer_chunk: int | None = None
    #: BP5 ships chunks through a node-local shm funnel before the
    #: inter-node subfile shuffle; BP4/BP3 shuffle rank→owner directly
    two_level_shuffle: bool = False

    def __init__(self, posix: PosixIO, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None):
        config = config or EngineConfig()
        self.compressor: Compressor | None = (
            get_compressor(config.compressor) if config.compressor else None)
        super().__init__(posix, comm, path, mode, config)
        self.plan: AggregationPlan = plan_aggregation(
            comm, self.config.num_aggregators)
        self._index: list[_IndexEntry] = []
        self._slots: dict[str, _SlotSpans] = {}
        self._subfile_tails = np.zeros(self.plan.num_aggregators, dtype=np.int64)
        m = self.plan.num_aggregators
        #: async-drain bookkeeping (virtual time the in-flight drain of
        #: each subfile completes, plus its batch schedule for residual
        #: host-memory accounting) — inert in sync mode.  The schedule
        #: is an aggregator × batch ledger: when each batch of the last
        #: drain ends and how many bytes it holds; an unused slot ends
        #: at -inf and holds 0 bytes
        self._drain_until = np.zeros(m, dtype=np.float64)
        self._drain_ends = np.full((m, 1), -np.inf)
        self._drain_bytes = np.zeros((m, 1))
        self.peak_host_bytes = np.zeros(m, dtype=np.float64)
        #: only the async path writes the per-rank drain stalls, so the
        #: sync path keeps an empty array instead of an O(ranks) block
        #: of zeros
        if self.config.async_drain:
            self.drain_wait_seconds = np.zeros(comm.size, dtype=np.float64)
        #: the engine's host-resident bytes on the ambient memory budget:
        #: the flush memo's entries and the rewritable steps' slot
        #: tables.  Modeled staging is not host memory of this process;
        #: ``peak_host_bytes`` reports it per subfile
        self._mem_account = current_budget().account("engine")
        #: flush memo: one derivation per span-only declaration
        #: signature (a shuffle derivation on the rank-blocked path),
        #: resident (and charged) until close or abandon
        self._memo: dict[tuple, _StepDerivation | ShuffleDerivation] = {}
        self.drain_seconds = np.zeros(m, dtype=np.float64)
        if mode in ("w", "a"):
            self._create_layout(truncate=(mode == "w"))
        else:
            self._open_for_read()

    # -- layout ---------------------------------------------------------------

    def _subfile_path(self, i: int) -> str:
        return f"{self.path}/data.{i}"

    def _create_layout(self, truncate: bool) -> None:
        root_rank = 0
        if not self.posix.exists(self.path):
            self.posix.mkdir(root_rank, self.path, parents=True)
        m = self.plan.num_aggregators
        self._data_fds = self.posix.open_group(
            self._aggregators(), [self._subfile_path(i) for i in range(m)],
            create=True, truncate=truncate,
        )
        self._md_fd = self.posix.open(root_rank, f"{self.path}/md.0",
                                      create=True, truncate=truncate)
        self._idx_fd = self.posix.open(root_rank, f"{self.path}/md.idx",
                                       create=True, truncate=truncate)
        self._extra_fds = {
            name: self.posix.open(root_rank, f"{self.path}/{name}",
                                  create=True, truncate=truncate)
            for name in self.extra_meta_files
        }
        if truncate:
            self._append_md(MD0_HEADER, real=self._header_json())
            self._append_idx(MDIDX_HEADER)

    def _header_json(self) -> bytes:
        head = {
            "engine": self.engine_type,
            "nranks": self.comm.size,
            "aggregators": int(self.plan.num_aggregators),
            "compressor": self.config.compressor,
        }
        return (json.dumps({"header": head}) + "\n").encode()

    def _append_md(self, nbytes_model: int, real: bytes | None = None) -> None:
        # metadata appends are buffered rank-0 stream writes, not part of
        # the contended data phase — cost them uncontended
        payload = (RealPayload(real, entropy="metadata") if real is not None
                   else SyntheticPayload(nbytes_model, "metadata"))
        with self.posix.phase(writers=1):
            self.posix.write(0, self._md_fd, payload, meta=True)
            for fd in self._extra_fds.values():
                self.posix.write(0, fd, SyntheticPayload(
                    _extra_md_bytes(nbytes_model), "metadata"), meta=True)

    def _step_appends(self) -> list[tuple[int, int]]:
        """``(fd, bytes)`` of the metadata appends that end a chunkless
        step, in write order: ``md.0``, the extra files, ``md.idx``."""
        n = MD0_STEP_BASE + MD0_PER_AGG * self.plan.num_aggregators
        return ([(self._md_fd, n)]
                + [(fd, _extra_md_bytes(n))
                   for fd in self._extra_fds.values()]
                + [(self._idx_fd, MDIDX_PER_STEP)])

    def _append_idx(self, nbytes: int) -> None:
        with self.posix.phase(writers=1):
            self.posix.write(0, self._idx_fd,
                             SyntheticPayload(nbytes, "metadata"), meta=True)

    # -- flush ------------------------------------------------------------------------

    def end_step(self, overwrite_key: str | None = None) -> None:
        """Flush the step; ``overwrite_key`` names a rewritable slot.

        Passing the same key again overwrites the earlier step's extents
        in place — the paper's "iteration 0 is chosen to record data that
        is periodically overwritten" checkpoint pattern.
        """
        self._check_in_step()
        with self.posix.trace.scope(self._trace_scope):
            self._flush_step(overwrite_key)
        self._in_step = False
        self.comm.barrier()

    def _flush_step(self, overwrite_key: str | None) -> None:
        """The staged→shuffled→written pipeline, inside the trace scope.

        All accounting here goes through the event spine: stage copies
        emit ``memcpy``/``compress``, the aggregator shuffle emits
        ``shuffle``, and the subfile flushes emit ``collective_write``
        from inside :meth:`~repro.fs.posix.PosixIO.write_aggregate`.
        ``self.profile`` is one subscriber folding them back.
        """
        block = self.config.rank_block_size
        # every staged byte a span descriptor: memoise the derivation,
        # chunk-evaluated when blocked
        spans_only = self._spans_only()
        if block is not None and block < self.comm.size and spans_only:
            per_agg = self._flush_blocked(block)
        else:
            self._store_chunks()
            d = self._derive(memoise=spans_only)
            ranks = self.comm.rank_range()
            self.comm.clocks += d.op_s
            self._emit("memcpy" if self.compressor is None else "compress",
                       ranks, d.staged, d.op_s)
            self.comm.clocks += d.gather
            self._emit("shuffle", ranks, d.stored, d.gather)
            per_agg = d.per_agg
        offsets = self._allocate(overwrite_key, per_agg)
        active = per_agg > 0
        agg_ranks = self.plan.aggregator_ranks
        if active.any():
            if self.config.async_drain:
                self._drain_async(per_agg, offsets, active)
            else:
                self.peak_host_bytes = np.maximum(
                    self.peak_host_bytes, per_agg)
                bound = (self.config.buffer_chunk_size
                         or self.default_buffer_chunk)
                if bound is not None and int(per_agg[active].max()) > bound:
                    # memory-bounded staging (BP5): drain the buffer in
                    # bounded batches -- more, smaller collective writes
                    remaining = per_agg[active].astype(np.int64).copy()
                    offs = offsets[active].astype(np.int64).copy()
                    while (remaining > 0).any():
                        batch = np.minimum(remaining, bound)
                        live = batch > 0
                        self.posix.write_aggregate(
                            agg_ranks[active][live],
                            self._data_fds[active][live],
                            batch[live], overwrite_offset=offs[live],
                        )
                        offs += batch
                        remaining -= batch
                elif active.all():
                    self.posix.write_aggregate(
                        self._aggregators(), self._data_fds, per_agg,
                        overwrite_offset=offsets)
                else:
                    self.posix.write_aggregate(
                        agg_ranks[active], self._data_fds[active],
                        per_agg[active], overwrite_offset=offsets[active],
                    )
        self._materialize_chunks(offsets)
        self._write_step_metadata(overwrite_key)
        self.profile.steps += 1

    def _spans_only(self) -> bool:
        """Whether every byte the open step stages is a span descriptor;
        declared-but-chunkless variables (the usual series metadata
        declarations) contribute exact zeros."""
        return (all(not v.chunks for v in self._cur_vars.values())
                and all(r is None for _nm, r, _b, _e in self._cur_bulk))

    #: the kinds a step of the lane emits (one of the first two)
    _STEP_KINDS = ("memcpy", "compress", "shuffle", "collective_write",
                   "meta_append", "barrier")

    def end_steps(self, keys, trace_steps) -> bool:
        """Flush the open step's span-only declaration once per overwrite
        key in ``keys``, as :meth:`end_step` would flush it ``K`` times,
        in one pass: the step lane (docs/architecture.md "Step lane").

        :meth:`_steps_batchable` decides; when it does not hold nothing
        is flushed and False is returned (see :meth:`Engine.end_steps`).
        """
        self._check_in_step()
        if len(keys) < 2 or not self._steps_batchable():
            return False
        self._flush_steps(self._derive(memoise=True), keys, trace_steps)
        self._step += len(keys) - 1
        self._in_step = False
        return True

    def _steps_batchable(self) -> bool:
        """Whether a run of steps of the open declaration can take the
        step lane: the run's shape alone decides.

        It holds for a span-only, whole-job, synchronous step with no
        fault plane and no memory quota (whose watermark events would
        interleave), every subfile written in one unbounded batch, on a
        bus whose subscribers for the step's kinds all fold step batches.
        Deriving the step for the subfile check fills the flush memo
        exactly where the step's own flush would.  Tests patch this to
        return False for the per-step reference.
        """
        comm, posix = self.comm, self.posix
        bus = posix.trace
        block = self.config.rank_block_size
        if (self.config.async_drain
                or (block is not None and block < comm.size)
                or posix.faults is not None
                or comm.fault_state is not None
                or posix.fs.perf.fault_state is not None
                or self._mem_account.budget.has_quotas
                or comm.trace not in (None, bus)
                or not bus.takes_steps(self._STEP_KINDS)
                or not self._spans_only()):
            return False
        per_agg = self._derive(memoise=True).per_agg
        bound = self.config.buffer_chunk_size or self.default_buffer_chunk
        return bool(per_agg.min() > 0) and (
            bound is None or int(per_agg.max()) <= bound)

    def _flush_steps(self, d: _StepDerivation, keys,
                     trace_steps) -> None:
        """K steps of derivation ``d``, one per overwrite key, in one
        pass: one slot allocation per step in step order, one vfs and
        descriptor update and one noise block for the run's file I/O
        (:meth:`~repro.fs.posix.PosixIO.write_steps`), a clock loop that
        builds no event, and one step batch on the bus.

        Each step adds to the clocks what its flush would, in the same
        order: operator seconds, gather legs, the collective write, rank
        0's metadata appends, then the barrier.  The barrier ends every
        step at the slowest clock, so the steps cannot be one cumulative
        sum over the run.
        """
        count = len(keys)
        comm, posix = self.comm, self.posix
        bus = posix.trace
        per_agg = d.per_agg
        offsets = np.stack([self._allocate(key, per_agg) for key in keys])
        self.peak_host_bytes = np.maximum(self.peak_host_bytes, per_agg)
        aggregators = self._aggregators()
        with bus.scope(self._trace_scope), posix.phase(writers=1):
            write, metas = posix.write_steps(aggregators, self._data_fds,
                                             per_agg, offsets,
                                             self._step_appends())
        barrier = comm.trace is not None and bus.wants("barrier")
        waits = []
        clocks = comm.clocks
        for k in range(count):
            clocks += d.op_s
            clocks += d.gather
            posix.charge(aggregators, write.duration[k])
            for row in metas:
                posix.charge(0, row.duration[k])
            entered = clocks.copy() if barrier else None
            t = comm.barrier_time()
            clocks[:] = t
            if barrier:
                waits.append(t - entered)
        ranks = comm.rank_range()
        engine_row = partial(StepRow, layer="engine", api="ENGINE",
                             scope=self._trace_scope, ranks=ranks,
                             varying=False)
        rows = [engine_row("memcpy" if self.compressor is None
                           else "compress", nbytes=d.staged,
                           duration=d.op_s),
                engine_row("shuffle", nbytes=d.stored, duration=d.gather),
                write, *metas]
        if barrier:
            rows.append(StepRow("barrier", "mpi", "MPI", bus.current_scope,
                                ranks, 0.0, waits, True))
        bus.emit_steps(rows, trace_steps)
        self.profile.steps += count

    def _aggregators(self) -> np.ndarray | range:
        """The plan's aggregator ranks, as a range when they form an
        increasing arithmetic progression (one or two per node, or every
        rank: the paper's configs), so the subfile writes take the range
        lane.  A failed-over plan, whose survivors own several subfiles,
        stays an array."""
        plan = self.plan
        step = plan.aggregator_stride
        if step is None:
            return plan.aggregator_ranks
        first = int(plan.aggregator_ranks[0])
        return self.comm.rank_range(
            first, first + step * plan.num_aggregators, step)

    def _stored_block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Staged and post-operator bytes for ranks ``[lo, hi)``.

        Recomputed per pass from the span descriptors (cheaper than
        retaining O(ranks) arrays); values are identical to the slices
        the unchunked path would take of its whole-job arrays.
        """
        staged = np.zeros(hi - lo, dtype=np.float64)
        for _name, _ranks, sv, _entropy in self._cur_bulk:
            staged += sv.slice(lo, hi).astype(np.float64)
        if self.compressor is None:
            return staged, staged
        stored = np.zeros(hi - lo, dtype=np.float64)
        for _name, _ranks, sv, entropy in self._cur_bulk:
            ratio = self.compressor.synthetic_ratio(entropy)
            stored += np.round(sv.slice(lo, hi).astype(np.float64) * ratio)
        return staged, stored

    def _flush_blocked(self, block: int) -> np.ndarray:
        """Stage/operate/shuffle in rank blocks; returns per-subfile bytes.

        Bit-identical to the unchunked pipeline (see
        :class:`~repro.adios2.aggregation.BlockedShuffle` for the
        exactness argument) while touching O(block) ranks at a time.
        The shuffle's derivation comes from the flush memo or fresh; the
        flush applies it in one window pass either way.  Each rank's
        clock receives the same per-step additions in the same order:
        operator cost, then its sender leg (owners get an exact ``+0.0``
        here), then — owners only — one receiver-side add at the end.
        """
        n = self.comm.size
        shuffle = BlockedShuffle(self.plan, self.comm,
                                 two_level=self.two_level_shuffle)
        windows = [(lo, min(n, lo + block)) for lo in range(0, n, block)]
        d = self._derive(True, partial(self._blocked_derivation, shuffle,
                                       windows))
        if self.compressor is None:
            kind, bandwidth = "memcpy", MEMCPY_BANDWIDTH
        else:
            kind, bandwidth = "compress", self.compressor.compress_bandwidth
        for lo, hi in windows:
            staged, stored = self._stored_block(lo, hi)
            ranks = self.comm.rank_range(lo, hi)
            op_s = staged / bandwidth
            self.comm.clocks[lo:hi] += op_s
            self._emit(kind, ranks, staged, op_s)
            send = shuffle.send_legs(d, lo, hi, stored)
            self.comm.clocks[lo:hi] += send
            self._emit("shuffle", ranks, stored, send)
        self.comm.clocks[d.uranks] += d.recv
        self._emit("shuffle", d.uranks, np.zeros(len(d.uranks)), d.recv)
        return d.per_agg

    def _blocked_derivation(self, shuffle: BlockedShuffle,
                            windows: list[tuple[int, int]],
                            nic: float) -> ShuffleDerivation:
        """What ``shuffle`` derives from the open step's spans over
        ``windows``: the rank-blocked counterpart of :meth:`_derivation`."""
        return shuffle.derive(
            windows, lambda lo, hi: self._stored_block(lo, hi)[1], nic)

    def _drain_async(self, per_agg: np.ndarray, offsets: np.ndarray,
                     active: np.ndarray) -> None:
        """Schedule this step's subfile writes as a background drain.

        BP5 ``AsyncWrite`` semantics in virtual time: ``end_step``
        returns once the shuffle lands the buffers on the aggregators;
        the collective writes are costed *now* (identical batches, RNG
        draws and Darshan durations as the sync path) but stamped at
        their scheduled future start times, and only ``_drain_until``
        remembers when each subfile's drain completes.  Double-buffered:
        a flush that arrives before the previous drain of its subfile
        finished stalls the owner (``drain_wait``) until it has.
        """
        act = np.nonzero(active)[0]
        own = self.plan.aggregator_ranks[act]
        clocks = self.comm.clocks
        entry = clocks[own].copy()

        # residual bytes of the previous drain still resident at entry:
        # the old and new buffer coexist until the old one finishes.
        # Every ledger entry is a whole byte count, so the float64 row
        # sum is exact in any grouping (below 2**53 bytes per subfile)
        in_flight = self._drain_ends[act] > entry[:, None]
        residual = self._drain_bytes[act].sum(axis=1, where=in_flight)
        peak = per_agg[act] + residual
        bound_bytes = self.config.host_memory_bound
        if bound_bytes is not None:
            # Put() blocks until the old buffer drains below the bound,
            # so residency is capped while total wait time is unchanged
            peak = np.minimum(peak, np.maximum(bound_bytes, per_agg[act]))
        self.peak_host_bytes[act] = np.maximum(self.peak_host_bytes[act],
                                               peak)

        wait = np.maximum(self._drain_until[act] - entry, 0.0)
        stalled = wait > 0
        if stalled.any():
            scatter_add(self.drain_wait_seconds, own[stalled], wait[stalled])
            self.posix.charge(own[stalled], wait[stalled], "drain_wait",
                              api="ENGINE", layer="engine")

        begin = clocks[own].copy()
        starts = begin.copy()
        bound = self.config.buffer_chunk_size or self.default_buffer_chunk
        fds = self._data_fds[act]
        most = int(per_agg[act].max())
        batched = bound is not None and most > bound
        n_batches = -(-most // bound) if batched else 1
        self._widen_drain_ledger(n_batches)
        ends = np.full((len(act), self._drain_ends.shape[1]), -np.inf)
        nbytes = np.zeros(ends.shape)
        if batched:
            remaining = per_agg[act].astype(np.int64).copy()
            offs = offsets[act].astype(np.int64).copy()
            for b in range(n_batches):
                batch = np.minimum(remaining, bound)
                live = batch > 0
                costs = self.posix.write_aggregate(
                    own[live], fds[live], batch[live],
                    overwrite_offset=offs[live], start_at=starts[live],
                )
                starts[live] += costs
                ends[live, b] = starts[live]
                nbytes[:, b] = batch
                offs += batch
                remaining -= batch
        else:
            costs = self.posix.write_aggregate(
                own, fds, per_agg[act], overwrite_offset=offsets[act],
                start_at=starts,
            )
            starts = starts + costs
            ends[:, 0] = starts
            nbytes[:, 0] = per_agg[act]

        self._drain_until[act] = starts
        self.drain_seconds[act] += starts - begin
        self._drain_ends[act] = ends
        self._drain_bytes[act] = nbytes
        bus = self.posix.trace
        if bus.wants("drain"):
            # explicit future start: _emit would back-date from the
            # owner clocks, which the drain deliberately did not advance
            bus.emit("drain", own, nbytes=per_agg[act].astype(np.float64),
                     duration=starts - begin, start=begin,
                     api="ENGINE", layer="engine")

    def _widen_drain_ledger(self, n_batches: int) -> None:
        """Give the ledger at least ``n_batches`` batch columns."""
        extra = n_batches - self._drain_ends.shape[1]
        if extra > 0:
            m = len(self._drain_ends)
            self._drain_ends = np.hstack(
                (self._drain_ends, np.full((m, extra), -np.inf)))
            self._drain_bytes = np.hstack(
                (self._drain_bytes, np.zeros((m, extra))))

    def _settle_drains(self) -> None:
        """Block until every in-flight drain completes (close barrier).

        An owner adopting several subfiles waits for the *latest* of its
        drains; the stall is charged and emitted like any other
        ``drain_wait``.
        """
        if not self.config.async_drain:
            return
        owners = self.plan.aggregator_ranks
        clocks = self.comm.clocks
        target = np.zeros(self.comm.size, dtype=np.float64)
        np.maximum.at(target, owners, self._drain_until)
        ranks = np.unique(owners)
        wait = np.maximum(target[ranks] - clocks[ranks], 0.0)
        stalled = wait > 0
        if stalled.any():
            self.drain_wait_seconds[ranks[stalled]] += wait[stalled]
            self.posix.charge(ranks[stalled], wait[stalled], "drain_wait",
                              api="ENGINE", layer="engine")
        self._drain_until[:] = 0.0

    def _emit(self, kind: str, ranks: np.ndarray | range, nbytes,
              seconds) -> None:
        """Emit one engine-plane event (clocks already charged).

        The stage and shuffle legs charge whole rank ranges with one
        slice add (``clocks[lo:hi] += s``) and only stamp their events
        here; their ranks come as a ``range``, so the start stamp is a
        slice too and the folds behind the bus take the range lane.
        """
        bus = self.posix.trace
        if bus.wants(kind):
            bus.emit(kind, ranks, nbytes=nbytes, duration=seconds,
                     start=self.comm.clocks[as_index(ranks)] - seconds,
                     api="ENGINE", layer="engine")

    def _store_chunks(self) -> None:
        """Run the operator over real chunks: ``chunk.stored`` is the
        payload as-is, or compressed when the engine has a codec."""
        codec = self.compressor
        for var in self._cur_vars.values():
            for chunk in var.chunks:
                stored = (chunk.payload if codec is None
                          else codec.compress(chunk.payload).payload)
                chunk.stored = stored  # type: ignore[attr-defined]
                chunk.stored_compressed = codec is not None  # type: ignore[attr-defined]

    def _derive(self, memoise: bool, derivation=None) \
            -> _StepDerivation | ShuffleDerivation:
        """The open step's derivation, from the memo when ``memoise``.

        ``derivation(nic)`` derives it afresh: the whole-job
        :meth:`_derivation` by default, :meth:`_blocked_derivation` on
        the rank-blocked path.  The memo keys a span-only step on its
        declaration signature, the ``(SplitValues, entropy)`` of every
        span put in put order; the entry also records the NIC bandwidth
        its shuffle legs were costed at and is replaced when a NIC fault
        has changed it since.
        """
        derivation = derivation or self._derivation
        nic = self.comm.effective_bandwidth()
        if not memoise:
            return derivation(nic)
        key = tuple((sv, entropy) for _nm, _r, sv, entropy in self._cur_bulk)
        d = self._memo.get(key)
        if d is None or d.nic != nic:
            if d is not None:
                self._mem_account.release(d.nbytes)
            d = self._memo[key] = derivation(nic)
            self._mem_account.charge(d.nbytes)
        return d

    def _derivation(self, nic: float) -> _StepDerivation:
        """Staged → operator seconds → stored → gather legs → per-subfile
        bytes, from the open step's staged chunks and spans."""
        n = self.comm.size
        staged = self._staged_bytes()
        if self.compressor is None:
            op_s = staged / MEMCPY_BANDWIDTH
            stored = staged
        else:
            op_s = staged / self.compressor.compress_bandwidth
            stored = np.zeros(n, dtype=np.float64)
            for var in self._cur_vars.values():
                for chunk in var.chunks:
                    stored[chunk.rank] += chunk.stored.nbytes
            for _name, ranks_b, nbytes, entropy in self._cur_bulk:
                ratio = self.compressor.synthetic_ratio(entropy)
                if ranks_b is None:
                    stored += np.round(nbytes.slice(0, n).astype(np.float64)
                                       * ratio)
                else:
                    scatter_add(stored, ranks_b, np.round(nbytes * ratio))
        gather_fn = (two_level_gather_cost if self.two_level_shuffle
                     else gather_cost_seconds)
        return _StepDerivation(
            staged=staged, op_s=op_s, stored=stored,
            gather=gather_fn(self.plan, stored, self.comm),
            per_agg=self.plan.per_aggregator_bytes(stored), nic=nic)

    def _drop_memo(self) -> None:
        for d in self._memo.values():
            self._mem_account.release(d.nbytes)
        self._memo.clear()

    def _drop_tables(self) -> None:
        """Release the memo and the slot tables: the engine flushes no
        more steps."""
        self._drop_memo()
        for spans in self._slots.values():
            self._mem_account.release(spans.nbytes)
        self._slots.clear()

    def _allocate(self, key: str | None, per_agg: np.ndarray) -> np.ndarray:
        """Subfile offsets for this step's blocks (append or in-place)."""
        m = self.plan.num_aggregators
        offsets = np.empty(m, dtype=np.int64)
        if key is None:
            offsets[:] = self._subfile_tails
            self._subfile_tails += per_agg
            return offsets
        slots = self._slots.get(key)
        if slots is None:
            offsets[:] = self._subfile_tails
            self._subfile_tails += per_agg
            self._store_slots(key, offsets, per_agg)
            return offsets
        off, res = slots.decode()
        grow = np.asarray(per_agg, dtype=np.int64) > res
        offsets[:] = off  # in-place overwrite where the step still fits
        if grow.any():
            offsets[grow] = self._subfile_tails[grow]
            self._subfile_tails[grow] += per_agg[grow]
            off[grow] = offsets[grow]
            res[grow] = per_agg[grow]
            self._store_slots(key, off, res)
        return offsets

    def _store_slots(self, key: str, offsets: np.ndarray,
                     reserved: np.ndarray) -> None:
        old = self._slots.get(key)
        spans = _SlotSpans.encode(np.asarray(offsets, dtype=np.int64),
                                  np.asarray(reserved, dtype=np.int64))
        self._slots[key] = spans
        if old is not None:
            self._mem_account.release(old.nbytes)
        self._mem_account.charge(spans.nbytes)

    def _materialize_chunks(self, agg_offsets: np.ndarray) -> None:
        """Lay real chunk bytes into the subfiles and index them."""
        if not self._cur_vars:
            return
        cursor = agg_offsets.astype(np.int64).copy()
        vfs = self.posix.fs.vfs
        step_key = f"step{self._step}"
        for name in sorted(self._cur_vars):
            var = self._cur_vars[name]
            for chunk in var.chunks:
                stored = getattr(chunk, "stored", chunk.payload)
                sub = int(self.plan.agg_index_of_rank[chunk.rank])
                off = int(cursor[sub])
                checksum = 0
                if isinstance(stored, RealPayload):
                    blob = stored.tobytes()
                    checksum = zlib.crc32(blob)
                    ino = vfs.lookup(self._subfile_path(sub))
                    vfs.write_content(ino, off, blob)
                self._index.append(_IndexEntry(
                    step_key=step_key,
                    var=name,
                    dtype=var.dtype,
                    rank=chunk.rank,
                    subfile=sub,
                    offset=off,
                    stored_nbytes=stored.nbytes,
                    raw_nbytes=chunk.nbytes,
                    global_shape=var.global_shape,
                    chunk_offset=chunk.offset,
                    chunk_extent=chunk.extent,
                    compressed=bool(getattr(chunk, "stored_compressed", False)),
                    checksum=checksum,
                ))
                cursor[sub] += stored.nbytes

    def _write_step_metadata(self, overwrite_key: str | None) -> None:
        n_entries = sum(len(v.chunks) for v in self._cur_vars.values())
        if n_entries:
            lines = []
            start = len(self._index) - n_entries
            for e in self._index[start:]:
                d = vars(e).copy()
                d["global_shape"] = list(e.global_shape)
                d["chunk_offset"] = list(e.chunk_offset)
                d["chunk_extent"] = list(e.chunk_extent)
                lines.append(json.dumps(d))
            self._append_md(0, real=("\n".join(lines) + "\n").encode())
            self._append_idx(MDIDX_PER_STEP)
            return
        with self.posix.phase(writers=1):
            for fd, nbytes in self._step_appends():
                self.posix.write(0, fd, SyntheticPayload(nbytes, "metadata"),
                                 meta=True)

    # -- read-side API ------------------------------------------------------------------

    def _open_for_read(self) -> None:
        self._data_fds = np.zeros(0, dtype=np.int64)
        md_fd = self.posix.open(0, f"{self.path}/md.0")
        size = self.posix.fs.vfs.size_of(self.posix.ino_of(md_fd))
        blob = self.posix.read(0, md_fd, size)
        self.posix.close(0, md_fd)
        for line in blob.decode(errors="ignore").splitlines():
            line = line.strip().rstrip("\x00")
            if not line or not line.startswith("{"):
                continue
            d = json.loads(line)
            if "header" in d:
                continue
            if "attributes" in d:
                self._adopt_attributes(d["attributes"])
                continue
            d["global_shape"] = tuple(d["global_shape"])
            d["chunk_offset"] = tuple(d["chunk_offset"])
            d["chunk_extent"] = tuple(d["chunk_extent"])
            self._index.append(_IndexEntry(**d))

    def available_variables(self) -> dict[str, list[str]]:
        """Map variable name → step keys in which it appears."""
        out: dict[str, list[str]] = {}
        for e in self._index:
            out.setdefault(e.var, [])
            if e.step_key not in out[e.var]:
                out[e.var].append(e.step_key)
        return out

    def chunk_entries(self, name: str,
                      step_key: str | None = None) -> list[_IndexEntry]:
        """The stored chunks assembling one variable, in index order.

        ``step_key=None`` selects the latest version — which, for
        overwritten checkpoint steps, is the most recent rewrite.  This
        is the chunk-granular request surface the serving plane's cache
        keys and prefetches over.
        """
        entries = [e for e in self._index if e.var == name]
        if step_key is not None:
            entries = [e for e in entries if e.step_key == step_key]
        if not entries:
            raise KeyError(f"no stored chunks for variable {name!r}"
                           + (f" at {step_key!r}" if step_key else ""))
        last_key = entries[-1].step_key
        return [e for e in entries if e.step_key == last_key]

    def read_chunk(self, e: _IndexEntry, rank: int = 0) -> np.ndarray:
        """Read, verify and decode one stored chunk (functional mode).

        Charges ``rank`` the chunk's modeled read cost and emits the
        posix-layer ``read`` event; ``e.selection`` places the returned
        array in the variable's global shape.
        """
        vfs = self.posix.fs.vfs
        ino = vfs.lookup(self._subfile_path(e.subfile))
        raw = vfs.read(ino, e.offset, e.stored_nbytes)
        if e.checksum and zlib.crc32(raw) != e.checksum:
            raise IntegrityError(
                f"checksum mismatch reading {e.var!r} "
                f"(subfile data.{e.subfile} @ {e.offset}): the "
                f"checkpoint is corrupt",
                path=self._subfile_path(e.subfile), rank=e.rank,
                step=e.step_key, expected=e.checksum,
                actual=zlib.crc32(raw))
        cost = float(self.posix.fs.perf.read_op_cost(e.stored_nbytes))
        self.posix.charge(rank, cost, "read", nbytes=e.stored_nbytes,
                          inos=ino)
        if e.compressed:
            codec = self.compressor or get_compressor("blosc")
            raw = codec.decompress_bytes(raw)
        arr = np.frombuffer(raw[: e.raw_nbytes], dtype=numpy_dtype(e.dtype))
        return arr.reshape(e.chunk_extent)

    def get(self, name: str, step_key: str | None = None,
            rank: int = 0) -> np.ndarray:
        """Assemble a variable from its chunks (functional mode)."""
        entries = self.chunk_entries(name, step_key)
        dtype = numpy_dtype(entries[0].dtype)
        out = np.zeros(entries[0].global_shape, dtype=dtype)
        for e in entries:
            out[e.selection] = self.read_chunk(e, rank)
        return out

    # -- fault plane --------------------------------------------------------------------

    def handle_rank_failure(self, dead_ranks) -> None:
        """Fail this engine's subfiles over when aggregator ranks die.

        Survivor aggregators adopt the dead owners' subfiles (same fds,
        same on-disk layout); subsequent flushes charge the doubled-up
        survivors, reproducing the post-failover bandwidth skew.  Emits
        one ``failover`` event per adopted subfile.
        """
        if self.mode == "r" or self._closed:
            return
        new_plan = self.plan.failover(dead_ranks)
        if new_plan is self.plan:
            return
        changed = np.nonzero(
            new_plan.aggregator_ranks != self.plan.aggregator_ranks)[0]
        bus = self.posix.trace
        if bus.wants("failover"):
            ranks = new_plan.aggregator_ranks[changed]
            bus.emit("failover", ranks,
                     start=self.comm.clocks[ranks],
                     api="AGG", layer="faults",
                     inos=self.posix.ino_of(self._data_fds[changed]))
        self.plan = new_plan
        self._drop_memo()  # every derivation was costed on the old plan

    def abandon(self) -> None:
        """Drop the engine as a crashed process would (see
        :meth:`Engine.abandon`); ``md.0`` is JSON-lines appended per step,
        so it stays readable up to the last completed flush."""
        # a crashed process's drain thread dies with it: pending drains
        # are dropped, nobody waits on them
        self._drain_until[:] = 0.0
        self._drop_tables()
        super().abandon()

    def _descriptors(self) -> list:
        if self.mode == "r":
            return []
        return [self._data_fds, self._md_fd, self._idx_fd,
                *self._extra_fds.values()]

    # -- lifecycle ----------------------------------------------------------------------

    def _finish(self) -> None:
        if self.mode == "r":
            return
        self._drop_tables()
        with self.posix.trace.scope(self._trace_scope):
            self._settle_drains()
        if self._attributes:
            doc = {"attributes": self._attributes_doc()}
            self._append_md(0, real=(json.dumps(doc) + "\n").encode())
        if self.config.profiling:
            fd = self.posix.open(0, f"{self.path}/profiling.json",
                                 create=True, truncate=True)
            self.posix.write(0, fd, RealPayload(
                self.profile.to_json().encode(), entropy="metadata"))
            self.posix.close(0, fd)
        self.posix.close_group(self._aggregators(), self._data_fds)
        self.posix.close(0, self._md_fd)
        self.posix.close(0, self._idx_fd)
        for fd in self._extra_fds.values():
            self.posix.close(0, fd)

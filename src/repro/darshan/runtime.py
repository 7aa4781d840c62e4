"""Darshan runtime: per-rank, per-module, per-file I/O instrumentation.

The :class:`DarshanMonitor` is a *subscriber* on the ``repro.trace``
event spine — the same boundary real Darshan wraps with link-time
interposition — and folds every filesystem-plane event into columnar
per-rank counters, cheap enough to instrument 25600-rank virtual jobs.
It performs no timing or byte arithmetic of its own: all quantities
arrive pre-computed on the events and are only accumulated here.

Lifecycle mirrors the real tool: create a monitor per job, run the job,
then :meth:`finalize` to freeze a :class:`~repro.darshan.log.DarshanLog`
record that the parser/report tooling consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.darshan.counters import (
    BYTE_FIELDS,
    COUNT_FIELDS,
    MODULES,
    OP_TO_COUNT,
    OP_TO_TIME,
    READ_KINDS,
    SIZE_BUCKET_NAMES,
    TIME_FIELDS,
    WRITE_KINDS,
    size_bucket_index,
    size_bucket_of,
)
from repro.darshan.log import (
    FILE_FIELDS,
    DarshanLog,
    FileRecord,
    FileTable,
    ModuleRecord,
)
from repro.trace.events import FS_LAYERS, IOEvent, StepBatch
from repro.util.scatter import as_index, as_run, scatter_add, scatter_add2

#: fs event kind → (per-rank bytes counter, per-file op count column,
#: per-file bytes column), None where the kind adds nothing.  The array
#: fold and the scalar lane both route through this one table; a kind
#: with a bytes counter also adds to the access-size histogram.
_ROUTE = {
    **dict.fromkeys(OP_TO_TIME, (None, None, None)),
    **dict.fromkeys(WRITE_KINDS, ("BYTES_WRITTEN", "writes", "bytes_written")),
    **dict.fromkeys(READ_KINDS, ("BYTES_READ", "reads", "bytes_read")),
    "fsync": (None, "fsyncs", None),
    "open": (None, "opens", None),
    "create": (None, "opens", None),
}


def _copies(values, times: int):
    """``times`` copies of a whole-number column, as one addend."""
    return values if times == 1 else values * times


class _ModuleCounters:
    """Columnar per-rank counters for one module (POSIX or STDIO)."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.counts = {f: np.zeros(nprocs, dtype=np.float64) for f in COUNT_FIELDS}
        self.bytes = {f: np.zeros(nprocs, dtype=np.float64) for f in BYTE_FIELDS}
        self.times = {f: np.zeros(nprocs, dtype=np.float64) for f in TIME_FIELDS}
        self.size_hist = np.zeros((nprocs, len(SIZE_BUCKET_NAMES)), dtype=np.int64)


class _LiveFiles:
    """Columnar per-file counters, indexed directly by inode id.

    Group operations touch tens of thousands of files at once, so the
    per-file plane is numpy arrays grown on demand — the same columnar
    idiom as the virtual filesystem's inode table.  Rows are allocated
    lazily (the table only grows to the largest inode actually
    instrumented) and the growth is charged to the ``darshan`` memory
    account when one is attached.
    """

    _FIELDS = ("opens", "reads", "writes", "fsyncs",
               "bytes_read", "bytes_written", "time")

    #: unfolded registration rows tolerated before compaction — keeps
    #: residency at O(distinct files) when chunked group opens register
    #: the same paths once per rank block
    COMPACT_THRESHOLD = 65536

    def __init__(self, capacity: int = 256, account=None):
        self._cap = capacity
        self.account = account
        # registrations arrive in (possibly huge) batches from group
        # opens; they are kept as appended batches — O(1) per group —
        # and only folded into the dict when someone asks for it
        self._path_batches: list[tuple] = []
        self._path_rows = 0
        self._paths: dict[int, str] = {}
        for f in self._FIELDS:
            setattr(self, f, np.zeros(capacity))
        if account is not None:
            account.charge(capacity * len(self._FIELDS) * 8)

    def ensure(self, max_ino: int) -> None:
        if max_ino < self._cap:
            return
        new_cap = max(self._cap * 2, max_ino + 1)
        for f in self._FIELDS:
            old = getattr(self, f)
            new = np.zeros(new_cap)
            new[: self._cap] = old
            setattr(self, f, new)
        if self.account is not None:
            self.account.charge((new_cap - self._cap) * len(self._FIELDS) * 8)
        self._cap = new_cap

    def register(self, ino: int, path: str) -> None:
        self.ensure(ino)
        self._path_batches.append(((int(ino),), (path,)))
        self._path_rows += 1

    def register_batch(self, inos: np.ndarray, paths: Sequence[str]) -> None:
        if inos.size:
            self.ensure(int(inos.max()))
            self._path_batches.append((inos, paths))
            self._path_rows += len(paths)
            if self._path_rows > self.COMPACT_THRESHOLD:
                self.paths  # fold + drop the raw batches

    @property
    def paths(self) -> dict[int, str]:
        """Materialised ino → path registry (first registration wins)."""
        if self._path_batches:
            setdefault = self._paths.setdefault
            for inos, paths in self._path_batches:
                for ino, path in zip(inos, paths):
                    setdefault(int(ino), path)
            self._path_batches.clear()
            self._path_rows = 0
        return self._paths

    def registered(self) -> tuple[np.ndarray, list[str]]:
        """Registered inodes and their paths in first-registration order
        (first registration wins), without folding the batches into
        :attr:`paths`: arrays and one path list, no per-file objects."""
        inos = [np.fromiter(self._paths, dtype=np.int64,
                            count=len(self._paths))]
        inos += [np.asarray(i, dtype=np.int64) for i, _ in self._path_batches]
        inos = np.concatenate(inos)
        paths = list(self._paths.values())
        for _, batch in self._path_batches:
            paths.extend(batch)
        _, first = np.unique(inos, return_index=True)
        if len(first) < len(inos):  # an inode registered again
            first.sort()
            inos = inos[first]
            paths = [paths[i] for i in first.tolist()]
        return inos, paths


class DarshanMonitor:
    """Runtime counter collection for one simulated job.

    ``granularity`` picks the counter resolution: ``"rank"`` (the
    default, one counter cell per MPI rank — real Darshan's layout) or
    ``"node"`` (cells binned by ``node_of_rank``, so resident counter
    state is O(nodes) for million-rank virtual jobs).  Binning changes
    only the counter axis; totals are conserved.

    ``evict_on_close=True`` folds a file's live row into a frozen
    partial record each time it closes (zeroing the row), mirroring how
    real Darshan sheds per-file state at shutdown rather than keeping
    event logs; partials are merged back at :meth:`finalize`.
    """

    def __init__(self, nprocs: int, jobid: int = 1, exe: str = "bit1",
                 granularity: str = "rank", node_of_rank=None,
                 mem_account=None, evict_on_close: bool = False):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if granularity not in ("rank", "node"):
            raise ValueError(
                f"granularity must be 'rank' or 'node', got {granularity!r}")
        self.nprocs = nprocs
        self.jobid = jobid
        self.exe = exe
        self.granularity = granularity
        if granularity == "node":
            if node_of_rank is None:
                raise ValueError("granularity='node' requires node_of_rank")
            # keep lazy maps (e.g. BlockNodeMap) as-is: indexing works
            # and materialising one would defeat its O(1) residency
            self._bin_of_rank = (node_of_rank
                                 if hasattr(node_of_rank, "max")
                                 else np.asarray(node_of_rank))
            self.nbins = int(self._bin_of_rank.max()) + 1
        else:
            self._bin_of_rank = None
            self.nbins = nprocs
        self.mem_account = mem_account
        self.evict_on_close = evict_on_close
        self._evicted: dict[int, FileRecord] = {}
        self._modules = {m: _ModuleCounters(self.nbins) for m in MODULES}
        self._files = _LiveFiles(account=mem_account)
        if mem_account is not None:
            per_bin = (len(COUNT_FIELDS) + len(BYTE_FIELDS)
                       + len(TIME_FIELDS) + len(SIZE_BUCKET_NAMES)) * 8
            mem_account.charge(len(MODULES) * self.nbins * per_bin)
        self._finalized: DarshanLog | None = None

    # -- registration hooks (called by the POSIX layer) ---------------------

    def register_file(self, ino: int, path: str) -> None:
        self._files.register(ino, path)

    def register_files(self, inos: np.ndarray, paths: Sequence[str]) -> None:
        self._files.register_batch(np.asarray(inos), paths)

    # -- the folding entry points ---------------------------------------------

    #: spine event kinds this subscriber folds (everything fs-plane)
    kinds = frozenset(OP_TO_TIME)

    def on_event(self, event: IOEvent) -> None:
        """Fold one spine event into the counters.

        Events arrive with ``ranks``/``nbytes``/``duration``/``n_ops``
        already broadcast to a common per-rank shape; ``inos``
        optionally attributes the op to files.  An event over a range of
        ranks folds through slices and never builds its rank array.
        """
        if self._finalized is not None:
            # after shutdown real Darshan no longer interposes; post-job
            # I/O (e.g. reading results back) is simply not recorded
            return
        if event.layer not in FS_LAYERS:
            return  # engine/MPI-plane events are not Darshan's to count
        ranks = event.rank_range
        fold = self._add_ops(
            self._modules.get(event.api) or self._modules["POSIX"],
            event.kind, event.ranks if ranks is None else ranks,
            event.nbytes, event.n_ops, event.inos, 1)
        self._add_time(fold, event.duration)

    def on_steps(self, batch: StepBatch) -> None:
        """Fold a step batch, a run of flush steps, without events.

        A row over many ranks folds through the bodies of
        :meth:`on_event`: :meth:`_add_ops` adds ``nsteps`` copies of its
        whole-number columns once, and :meth:`_add_time` adds its
        seconds step by step.  A row over one rank folds through
        :meth:`on_scalar`, once per step.  Either way the seconds add
        step after step, each step's rows in order, so a cell that
        several rows reach (rank 0's, under a collective write and the
        metadata appends after it) takes the per-step sequence of adds.
        """
        if self._finalized is not None:
            return
        folds = []
        for row in batch.rows:
            if row.layer not in FS_LAYERS:
                continue
            fold = None
            if not isinstance(row.ranks, (int, np.integer)):
                fold = self._add_ops(
                    self._modules.get(row.api) or self._modules["POSIX"],
                    row.kind, row.ranks, row.column(row.nbytes),
                    row.column(row.n_ops), row.inos, batch.nsteps)
            folds.append((row, fold))
        for k in range(batch.nsteps):
            for row, fold in folds:
                seconds = row.duration[k] if row.varying else row.duration
                if fold is None:
                    self.on_scalar(row.kind, row.layer, row.api, row.ranks,
                                   row.nbytes, seconds, None, row.n_ops,
                                   row.inos)
                else:
                    self._add_time(fold, row.column(seconds))

    def _add_ops(self, mod: _ModuleCounters, kind: str, ranks, nbytes, ops,
                 inos, times: int):
        """Add ``times`` copies of one op's whole-number columns: op
        counts, bytes, the access-size histogram and the files' ops and
        bytes.  Every partial sum is an integer below 2**53, so one add
        of ``times`` copies equals ``times`` adds of one.

        ``ranks`` is an array or a range (the range lane: every counter
        adds through a slice).  Returns what :meth:`_add_time` needs to
        add the op's seconds.
        """
        if self._bin_of_rank is not None:
            # node bins repeat, so the scatters below take np.add.at
            ranks = self._bin_of_rank[as_index(ranks)]
        count_field = OP_TO_COUNT.get(kind)
        if count_field is not None:
            scatter_add(mod.counts[count_field], ranks, _copies(ops, times))
        bytes_field, ops_col, bytes_col = _ROUTE[kind]
        if bytes_field is not None:
            scatter_add(mod.bytes[bytes_field], ranks, _copies(nbytes, times))
            if nbytes.size and nbytes.strides == ops.strides == (0,):
                # one byte count and one op count for every rank (scalars
                # the event broadcast): one bucket, one increment
                per_op = nbytes[:1] / np.maximum(ops[:1], 1.0)
                scatter_add2(mod.size_hist, ranks,
                             int(size_bucket_index(per_op)[0]),
                             int(ops[:1].astype(np.int64)[0]) * times)
            else:
                per_op = nbytes / np.maximum(ops, 1.0)
                scatter_add2(mod.size_hist, ranks, size_bucket_index(per_op),
                             _copies(ops.astype(np.int64), times))
        files = widen = evict = None
        if inos is not None:
            inos = np.atleast_1d(np.asarray(inos, dtype=np.int64))
        if inos is not None and inos.size:
            if kind == "close" and self.evict_on_close:
                evict = inos
            # one shared file touched by many ranks broadcasts the ino
            # up; one op per file broadcasts the metrics up — take the
            # widest
            shape = np.broadcast_shapes(inos.shape, nbytes.shape)
            if inos.shape == shape:
                # files of one group open are one consecutive inode run:
                # recognised here once, every scatter then slices
                files = as_run(inos)
            else:
                files = np.broadcast_to(inos, shape)
            ft = self._files
            ft.ensure(files[-1] if type(files) is range else int(files.max()))
            if nbytes.shape != shape:
                widen = shape
                nbytes = np.broadcast_to(nbytes, shape)
                ops = np.broadcast_to(ops, shape)
            if ops_col is not None:
                scatter_add(getattr(ft, ops_col), files, _copies(ops, times))
            if bytes_col is not None:
                scatter_add(getattr(ft, bytes_col), files,
                            _copies(nbytes, times))
        return mod.times[OP_TO_TIME[kind]], ranks, files, widen, evict

    def _add_time(self, fold, seconds: np.ndarray) -> None:
        """Add one op's per-rank ``seconds`` to the cells
        :meth:`_add_ops` routed it to: the ranks' time counter, then the
        files' time; then shed the rows of the files a close names
        (``evict_on_close``)."""
        out, ranks, files, widen, evict = fold
        scatter_add(out, ranks, seconds)
        if files is not None:
            scatter_add(self._files.time, files, seconds if widen is None
                        else np.broadcast_to(seconds, widen))
        if evict is not None:
            self._evict(evict)

    def on_scalar(self, kind: str, layer: str, api: str, rank, nbytes,
                  duration, start, n_ops, ino) -> None:
        """Fold one single-rank event given as scalars (the bus's
        scalar lane, :meth:`~repro.trace.bus.TraceBus.emit_scalar`).

        Bit-identical to :meth:`on_event` on the one-element event with
        the same fields: every counter cell gets the same float64 adds,
        in the same order, as :meth:`_add_ops` and :meth:`_add_time`
        make — only without building arrays to hold one value.  It is
        the one fold with a body of its own: a serving round makes tens
        of thousands of these folds, and routing them through the array
        bodies slows that round down.  :meth:`on_steps` folds its
        one-rank rows through it.
        """
        if self._finalized is not None or layer not in FS_LAYERS:
            return
        mod = self._modules.get(api)
        if mod is None:
            mod = self._modules["POSIX"]
        if self._bin_of_rank is not None:
            rank = int(self._bin_of_rank[rank])
        nbytes = float(nbytes)
        duration = float(duration)
        n_ops = float(n_ops)
        count_field = OP_TO_COUNT.get(kind)
        if count_field is not None:
            mod.counts[count_field][rank] += n_ops
        mod.times[OP_TO_TIME[kind]][rank] += duration

        bytes_field, ops_col, bytes_col = _ROUTE[kind]
        if bytes_field is not None:
            mod.bytes[bytes_field][rank] += nbytes
            bucket = size_bucket_of(nbytes / max(n_ops, 1.0))
            mod.size_hist[rank, bucket] += int(n_ops)

        if ino is not None:
            ino = int(ino)
            ft = self._files
            ft.ensure(ino)
            if ops_col is not None:
                getattr(ft, ops_col)[ino] += n_ops
            if bytes_col is not None:
                getattr(ft, bytes_col)[ino] += nbytes
            ft.time[ino] += duration
            if kind == "close" and self.evict_on_close:
                self._evict_one(ino)

    def _evict(self, inos) -> None:
        """Fold live rows of just-closed files into frozen partials."""
        for ino in np.unique(
                np.atleast_1d(np.asarray(inos, dtype=np.int64))).tolist():
            self._evict_one(ino)

    def _evict_one(self, ino: int) -> None:
        ft = self._files
        rec = self._evicted.get(ino)
        if rec is None:
            rec = self._evicted[ino] = FileRecord(
                path=ft.paths.get(ino, f"<ino {ino}>"))
        rec.opens += float(ft.opens[ino])
        rec.reads += float(ft.reads[ino])
        rec.writes += float(ft.writes[ino])
        rec.fsyncs += float(ft.fsyncs[ino])
        rec.bytes_read += float(ft.bytes_read[ino])
        rec.bytes_written += float(ft.bytes_written[ino])
        rec.cumulative_time += float(ft.time[ino])
        for f in _LiveFiles._FIELDS:
            getattr(ft, f)[ino] = 0.0

    # -- queries used while the job runs --------------------------------------

    def total_bytes_written(self, module: str | None = None) -> float:
        mods = [self._modules[module]] if module else self._modules.values()
        return float(sum(m.bytes["BYTES_WRITTEN"].sum() for m in mods))

    def total_bytes_read(self, module: str | None = None) -> float:
        mods = [self._modules[module]] if module else self._modules.values()
        return float(sum(m.bytes["BYTES_READ"].sum() for m in mods))

    def per_rank_time(self, field: str) -> np.ndarray:
        """Per-bin cumulative time for one of the F_*_TIME fields.

        One entry per rank at ``granularity='rank'``, per node at
        ``'node'``.
        """
        out = np.zeros(self.nbins)
        for m in self._modules.values():
            out += m.times[field]
        return out

    def per_rank_io_time(self) -> np.ndarray:
        """Per-bin read+write+meta time across modules."""
        out = np.zeros(self.nbins)
        for f in TIME_FIELDS:
            out += self.per_rank_time(f)
        return out

    # -- finalization -----------------------------------------------------------

    def _file_table(self) -> FileTable:
        """The registered files' counters as a :class:`FileTable`: one
        gather per column over the registered inodes, plus the partials
        of evicted files, added once."""
        ft = self._files
        inos, paths = ft.registered()
        columns = {f: getattr(ft, col)[inos]
                   for f, col in zip(FILE_FIELDS, _LiveFiles._FIELDS)}
        if self._evicted:
            # an evicted file without a registration has no row and
            # stays out of the table
            row = np.full(ft._cap, -1, dtype=np.int64)
            row[inos] = np.arange(len(inos))
            evicted = [(int(row[ino]), rec)
                       for ino, rec in self._evicted.items() if row[ino] >= 0]
            at = [r for r, _ in evicted]
            for f in FILE_FIELDS:
                columns[f][at] += [getattr(rec, f) for _, rec in evicted]
        return FileTable(paths, **columns)

    def finalize(self, runtime_seconds: float | None = None,
                 machine: str = "", config: str = "") -> DarshanLog:
        """Freeze the counters into an immutable log record."""
        if self._finalized is not None:
            return self._finalized
        modules = {}
        for name, m in self._modules.items():
            counters: dict[str, np.ndarray] = {}
            for f, arr in m.counts.items():
                counters[f"{name}_{f}"] = arr.copy()
            for f, arr in m.bytes.items():
                counters[f"{name}_{f}"] = arr.copy()
            for f, arr in m.times.items():
                counters[f"{name}_{f}"] = arr.copy()
            for j, bname in enumerate(SIZE_BUCKET_NAMES):
                counters[f"{name}_{bname}"] = m.size_hist[:, j].astype(np.float64)
            modules[name] = ModuleRecord(name=name, counters=counters)
        files = self._file_table()
        if runtime_seconds is None:
            runtime_seconds = float(self.per_rank_io_time().max())
        self._finalized = DarshanLog(
            jobid=self.jobid,
            exe=self.exe,
            nprocs=self.nprocs,
            runtime_seconds=runtime_seconds,
            machine=machine,
            config=config,
            modules=modules,
            files=files,
            granularity=self.granularity,
            nbins=self.nbins,
        )
        return self._finalized

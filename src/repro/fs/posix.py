"""POSIX-like syscall layer over a mounted virtual filesystem.

This is the boundary Darshan instruments on a real system, reproduced so
the monitoring layer can hook the same call sites (§II-C of the paper).
Every call:

1. performs the namespace/data operation on the virtual filesystem;
2. computes its virtual duration with the storage performance model
   (using the current *phase context* — how many ranks are concurrently
   writing / hammering the MDS);
3. charges that duration to the issuing rank's clock; and
4. emits one typed event (op class, byte count, duration) on the trace
   spine, which Darshan and every other subscriber fold.

Steps 3 and 4 are :meth:`PosixIO.charge`, which the planes above this
layer call too.

Single-op calls serve the functional small-scale runs; the ``*_group``
variants express "K symmetric ranks do this op" in one vectorised call,
which is how the 25600-rank experiments stay fast (see the HPC guides:
vectorise, don't loop).  A group op given its ranks as a ``range`` takes
the range lane: clock adds, start stamps and counter folds slice instead
of scanning and gathering, and one byte count over files that share
striping is costed once — the same bits as the call with ``np.arange``
of the range.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.fs.mount import MountedFilesystem
from repro.fs.payload import Payload, as_payload
from repro.mpi.comm import VirtualComm
from repro.trace.bus import TraceBus
from repro.trace.events import StepRow
from repro.util.scatter import (
    as_index,
    as_run,
    range_view,
    rank_array,
    scatter_add,
)

#: api string → spine layer tag (everything else is the POSIX boundary)
_API_LAYER = {"STDIO": "stdio", "MPIIO": "mpiio"}

#: a single rank: single-op calls with one of these take the scalar lane
_RANK = (int, np.integer)

#: one byte count or op count for a whole group: with a range of ranks,
#: the group's cost is computed once
_COUNT = (int, float, np.integer, np.floating)

#: metadata-op weights (an exclusive create touches the MDS more than a stat)
MD_OPS = {
    "open": 1.0,
    "create": 2.0,
    "close": 1.0,
    "stat": 1.0,
    "mkdir": 2.0,
    "unlink": 2.0,
    "seek": 0.0,  # client-local
}


class PosixIO:
    """The syscall surface: open/read/write/fsync/close + group variants."""

    def __init__(self, fs: MountedFilesystem,
                 comm: VirtualComm | None = None,
                 monitor: "object | None" = None,
                 trace: TraceBus | None = None):
        self.fs = fs
        self.comm = comm
        self.monitor = monitor
        #: the event spine this layer emits onto; shared with the
        #: engines and the communicator when a TraceSession built it
        self.trace = trace if trace is not None else TraceBus(
            node_of_rank=getattr(comm, "node_of_rank", None))
        if monitor is not None:
            # a monitor passed directly becomes the first subscriber
            # (modern callers subscribe via the session)
            self.trace.subscribe(monitor)
        # the descriptor table: one row per fd, columnar like the vfs
        # inode table; ``_fd_ino`` is -1 on a free row
        self._new_fd_table(256)
        self._next_fd = 3  # 0-2 are stdin/out/err, as tradition demands
        self._n_open = 0
        #: ``_fd_api`` codes: index into the api names seen so far
        self._api_names: list[str] = []
        self._api_codes: dict[str, int] = {}
        self._writers = comm.size if comm is not None else 1
        self._md_clients = comm.size if comm is not None else 1
        #: optional :class:`repro.faults.injector.FaultInjector`; when
        #: installed (see ``repro.faults.install_faults``), data ops pass
        #: through its guard before touching the vfs, so injected
        #: EIO/timeout/OST faults fire (and retries happen) exactly where
        #: a real middleware layer would intercept them
        self.faults = None

    # -- phase context ------------------------------------------------------

    @contextmanager
    def phase(self, writers: int | None = None,
              md_clients: int | None = None) -> Iterator[None]:
        """Declare the concurrency of the enclosed I/O phase.

        The adaptors wrap each output event in a phase so that per-op
        costs reflect the true contention (all ranks for the original
        file-per-process output; only the aggregators for BP4 writes).
        """
        old = (self._writers, self._md_clients)
        if writers is not None:
            self._writers = max(1, writers)
        if md_clients is not None:
            self._md_clients = max(1, md_clients)
        try:
            yield
        finally:
            self._writers, self._md_clients = old

    # -- the accounting boundary ---------------------------------------------

    def charge(self, ranks, seconds, kind: str | None = None, *,
               nbytes=0, api: str = "POSIX", layer: str | None = None,
               inos=None, n_ops=1, start=None) -> None:
        """Charge ``seconds`` to the ranks' virtual clocks; with a
        ``kind``, also emit that event on the spine.

        This layer's syscalls and the planes above it (engines, serving
        readers, the fault and resilience planes) charge through here.
        The event is stamped at ``clock - seconds`` after the add; a
        caller that read the clock before the add passes that value as
        ``start`` instead.  ``layer`` defaults to the fs layer of
        ``api`` (``stdio``, ``mpiio``, else ``posix``).

        A single rank with a float cost takes the scalar lane (one clock
        add, :meth:`~repro.trace.bus.TraceBus.emit_scalar`); a ``range``
        of ranks the range lane (one slice add); rank arrays take the
        scatter lane.  All give the same bits.
        """
        comm = self.comm
        if comm is not None:
            if isinstance(ranks, _RANK) and isinstance(seconds, float):
                comm.clocks[ranks] += seconds  # the scalar lane
            else:
                # a rank may appear twice (post-failover an aggregator
                # owns several subfiles); scatter_add falls back to the
                # unbuffered ufunc there so duplicates are not dropped
                scatter_add(comm.clocks, ranks, seconds)
        if kind is not None:
            self._notify(kind, ranks, seconds, nbytes=nbytes, api=api,
                         layer=layer, inos=inos, n_ops=n_ops, start=start)

    def _notify(self, kind: str, ranks, seconds, *, nbytes=0,
                api: str = "POSIX", layer: str | None = None, inos=None,
                n_ops=1, start=None) -> None:
        """Emit one event for an operation whose clock charge is already
        made, or deliberately not made: a write or read scheduled in the
        future (the async drains, prefetch fills) passes its ``start``.
        """
        bus = self.trace
        if not bus.wants(kind):
            return
        if layer is None:
            layer = _API_LAYER.get(api, "posix")
        if isinstance(ranks, _RANK):
            if start is None and self.comm is not None:
                start = float(self.comm.clocks[ranks]) - seconds
            bus.emit_scalar(kind, ranks, nbytes=nbytes, duration=seconds,
                            start=start, n_ops=n_ops, api=api, layer=layer,
                            ino=inos)
            return
        if start is None and self.comm is not None:
            if type(ranks) is not range:
                ranks = np.atleast_1d(np.asarray(ranks))
            start = self._clocks_at(ranks) - np.asarray(
                seconds, dtype=np.float64)
        bus.emit(kind, ranks, nbytes=nbytes, duration=seconds, start=start,
                 n_ops=n_ops, api=api, layer=layer, inos=inos)

    def _clocks_at(self, ranks) -> np.ndarray:
        """The ranks' clocks: a view for a range, a gathered copy for an
        array — read it, never keep it."""
        clocks = self.comm.clocks
        if type(ranks) is range:
            return range_view(clocks, ranks)
        return clocks[ranks]

    def ino_of(self, fd):
        """Inode behind one descriptor (an int) or an fd array (an array).

        Raises ``KeyError`` when a descriptor is closed or was never a
        row of the table (negative, or past its end) — one bounds check
        per call, however many descriptors an array holds.
        """
        table = self._fd_ino
        if isinstance(fd, np.ndarray):
            if fd.size and (fd.min() < 0 or fd.max() >= len(table)):
                raise KeyError("operation on unknown file descriptor")
        elif not 0 <= fd < len(table):
            raise KeyError(f"operation on unknown file descriptor {fd}")
        inos = table[fd]
        if np.any(inos < 0):
            raise KeyError("operation on closed file descriptor")
        return inos if isinstance(inos, np.ndarray) else int(inos)

    # -- descriptors ----------------------------------------------------------

    def _new_fd_table(self, rows: int) -> None:
        self._fd_ino = np.full(rows, -1, dtype=np.int64)
        self._fd_rank = np.zeros(rows, dtype=np.int64)
        self._fd_pos = np.zeros(rows, dtype=np.int64)
        self._fd_api = np.zeros(rows, dtype=np.uint8)

    def _alloc_fds(self, k: int, inos, ranks, api: str, pos=0) -> int:
        """Allocate ``k`` consecutive descriptors; returns the first.

        ``inos``, ``ranks`` and ``pos`` are scalars or length-``k``
        arrays.  A group open costs one slice assignment per column,
        however many ranks it spans.
        """
        fd0 = self._next_fd
        end = self._next_fd = fd0 + k
        rows = len(self._fd_ino)
        if end > rows:
            old = (self._fd_ino, self._fd_rank, self._fd_pos, self._fd_api)
            while end > rows:
                rows *= 2
            self._new_fd_table(rows)
            for new, col in zip((self._fd_ino, self._fd_rank, self._fd_pos,
                                 self._fd_api), old):
                new[: len(col)] = col
        code = self._api_codes.get(api)
        if code is None:
            code = self._api_codes[api] = len(self._api_names)
            self._api_names.append(api)
        self._fd_ino[fd0:end] = inos
        self._fd_rank[fd0:end] = ranks
        self._fd_pos[fd0:end] = pos
        self._fd_api[fd0:end] = code
        self._n_open += k
        return fd0

    def _row(self, fd: int, api: str | None) -> tuple[int, str]:
        """Inode and api of one open descriptor (a given ``api`` wins).

        Raises ``KeyError`` when the descriptor is not open.
        """
        ino = self._fd_ino.item(fd) if 0 <= fd < len(self._fd_ino) else -1
        if ino < 0:
            raise KeyError(f"operation on closed file descriptor {fd}")
        return ino, api or self._api_names[self._fd_api.item(fd)]

    def _maybe_recycle_fds(self) -> None:
        """Reset descriptor numbering once every file is closed.

        Real kernels reuse the lowest free fd; the monotonic counter
        here would instead grow the descriptor table to O(total opens)
        when a chunked workload opens and closes rank-blocks repeatedly.
        A full drain is the cheap safe point to rewind at.
        """
        if not self._n_open:
            self._next_fd = 3
            if len(self._fd_ino) > 4096:
                self._new_fd_table(256)

    def _md(self, rank: int, op: str, api: str = "POSIX",
            ino: int | None = None) -> None:
        cost = float(self.fs.perf.metadata_op_cost(self._md_clients,
                                                   MD_OPS[op]))
        self.charge(rank, cost, op, api=api, inos=ino)

    # -- namespace ------------------------------------------------------------

    def mkdir(self, rank: int, path: str, parents: bool = False,
              api: str = "POSIX") -> None:
        self.fs.vfs.mkdir(path, parents=parents)
        self._md(rank, "mkdir", api)

    def stat(self, rank: int, path: str, api: str = "POSIX"):
        st = self.fs.vfs.stat(path)
        self._md(rank, "stat", api)
        return st

    def unlink(self, rank: int, path: str, api: str = "POSIX") -> None:
        self.fs.vfs.unlink(path)
        self._md(rank, "unlink", api)

    def exists(self, path: str) -> bool:
        """Existence probe without cost (used by harness assertions)."""
        return self.fs.vfs.exists(path)

    # -- open/close -------------------------------------------------------------

    def open(self, rank: int, path: str, create: bool = False,
             exclusive: bool = False, truncate: bool = False,
             append: bool = False, api: str = "POSIX") -> int:
        if create:
            ino = self.fs.vfs.create(path, exclusive=exclusive)
            self.fs.assign_ost(ino)
            op = "create"
        else:
            ino = self.fs.vfs.lookup(path)
            op = "open"
        if truncate:
            self.fs.vfs.truncate(ino, 0)
        pos = self.fs.vfs.size_of(ino) if append else 0
        fd = self._alloc_fds(1, ino, rank, api, pos)
        self.trace.register_file(ino, path)
        self._md(rank, op, api, ino=ino)
        return fd

    def close(self, rank: int, fd: int, api: str | None = None) -> None:
        ino, api = self._row(fd, api)  # before a recycle drops the table
        self._fd_ino[fd] = -1
        self._n_open -= 1
        self._maybe_recycle_fds()
        self._md(rank, "close", api, ino=ino)

    # -- data ---------------------------------------------------------------------

    def write(self, rank: int, fd: int,
              data: Payload | bytes | np.ndarray,
              offset: int | None = None,
              chunk_size: int | None = None,
              sync_each_chunk: bool = False,
              api: str | None = None,
              meta: bool = False) -> int:
        """Write a payload; returns bytes written.

        ``chunk_size`` models buffered-stdio flush chains: the payload is
        charged as ``ceil(n/chunk_size)`` write RPC ops, and with
        ``sync_each_chunk`` every chunk is followed by an fsync — BIT1's
        original output behaviour.  ``meta=True`` marks the write as a
        metadata/index append (engine ``md.0``/``md.idx`` maintenance):
        same cost and Darshan accounting, but the spine types it
        ``meta_append`` so profile folds can separate it from data.
        """
        payload = as_payload(data)
        ino, api = self._row(fd, api)
        if self.faults is not None:
            self.faults.guard(self, "write", self._fd_rank.item(fd), ino, api)
        pos = self._fd_pos.item(fd) if offset is None else offset
        n = self.fs.vfs.write(ino, pos, payload)
        self._fd_pos[fd] = pos + n
        st = self.fs.vfs.cols
        stripe_count = int(st.stripe_count[ino])
        stripe_size = int(st.stripe_size[ino])
        n_chunks = 1
        per_chunk = n
        if chunk_size is not None and n > 0:
            n_chunks = max(1, -(-n // chunk_size))
            per_chunk = min(n, chunk_size)
        cost = float(self.fs.perf.write_op_cost(
            per_chunk, self._writers, stripe_count, stripe_size,
            n_ops=n_chunks)) * float(self.fs.perf.noise())
        self.charge(rank, cost, "meta_append" if meta else "write",
                    nbytes=n, api=api, inos=ino, n_ops=n_chunks)
        if sync_each_chunk:
            sync_cost = float(self.fs.perf.fsync_cost(
                self._writers, stripe_count, n_ops=n_chunks))
            self.charge(rank, sync_cost, "fsync", api=api, inos=ino,
                        n_ops=n_chunks)
        return n

    def write_scheduled(self, rank: int, fd: int,
                        data: Payload | bytes | np.ndarray,
                        start_at: float,
                        chunk_size: int | None = None,
                        sync_each_chunk: bool = False,
                        api: str | None = None) -> float:
        """Write a payload whose cost runs in the background (async drain).

        The content lands in the vfs immediately (so later reads see it)
        but no clock is charged: the caller owns the scheduling — this is
        the store-level twin of :meth:`write_aggregate` given
        ``start_at``, used by the resilience plane's asynchronous L3
        checkpoint flush.  Events are stamped at
        ``start_at`` so timeline exports show the drain where it actually
        runs.  Returns the modeled seconds (write plus any per-chunk
        fsyncs) for the caller's drain bookkeeping.
        """
        payload = as_payload(data)
        ino, api = self._row(fd, api)
        if self.faults is not None:
            self.faults.guard(self, "write", self._fd_rank.item(fd), ino, api)
        pos = self._fd_pos.item(fd)
        n = self.fs.vfs.write(ino, pos, payload)
        self._fd_pos[fd] = pos + n
        st = self.fs.vfs.cols
        stripe_count = int(st.stripe_count[ino])
        stripe_size = int(st.stripe_size[ino])
        n_chunks = 1
        per_chunk = n
        if chunk_size is not None and n > 0:
            n_chunks = max(1, -(-n // chunk_size))
            per_chunk = min(n, chunk_size)
        cost = float(self.fs.perf.write_op_cost(
            per_chunk, self._writers, stripe_count, stripe_size,
            n_ops=n_chunks)) * float(self.fs.perf.noise())
        self._notify("write", rank, cost, nbytes=n, api=api, inos=ino,
                     n_ops=n_chunks, start=start_at)
        total = cost
        if sync_each_chunk:
            sync_cost = float(self.fs.perf.fsync_cost(
                self._writers, stripe_count, n_ops=n_chunks))
            self._notify("fsync", rank, sync_cost, api=api, inos=ino,
                         n_ops=n_chunks, start=start_at + cost)
            total += sync_cost
        return total

    def fsync(self, rank: int, fd: int, api: str | None = None) -> None:
        ino, api = self._row(fd, api)
        if self.faults is not None:
            self.faults.guard(self, "fsync", rank, ino, api)
        st = self.fs.vfs.cols
        cost = float(self.fs.perf.fsync_cost(
            self._writers, int(st.stripe_count[ino])))
        self.charge(rank, cost, "fsync", api=api, inos=ino)

    def read(self, rank: int, fd: int, nbytes: int,
             offset: int | None = None, api: str | None = None) -> bytes:
        ino, api = self._row(fd, api)
        if self.faults is not None:
            self.faults.guard(self, "read", rank, ino, api)
        pos = self._fd_pos.item(fd) if offset is None else offset
        data = self.fs.vfs.read(ino, pos, nbytes)
        self._fd_pos[fd] = pos + len(data)
        cost = float(self.fs.perf.read_op_cost(len(data), self._md_clients))
        self.charge(rank, cost, "read", nbytes=len(data), api=api, inos=ino)
        return data

    def read_scheduled(self, rank: int, fd: int, nbytes: int,
                       start_at: float, api: str | None = None) -> float:
        """Account a read whose cost runs in the background (prefetch).

        The read-side twin of :meth:`write_scheduled`: byte/op counters
        move immediately but no clock is charged — the caller owns the
        scheduling.  Used by the serving plane's prefetch channels,
        which fetch predicted chunks while the reader is busy analysing;
        events are stamped at ``start_at`` so timeline exports show the
        fill where it actually runs.  Returns the modeled seconds.
        """
        ino, api = self._row(fd, api)
        if self.faults is not None:
            self.faults.guard(self, "read", rank, ino, api)
        self.fs.vfs.account_read(ino, nbytes)
        cost = float(self.fs.perf.read_op_cost(nbytes, self._md_clients))
        self._notify("read", rank, cost, nbytes=nbytes, api=api, inos=ino,
                     start=start_at)
        return cost

    def read_synthetic(self, rank: int, fd: int, nbytes: int,
                       api: str | None = None) -> int:
        """Account a read without materialised content (modeled mode)."""
        ino, api = self._row(fd, api)
        if self.faults is not None:
            self.faults.guard(self, "read", rank, ino, api)
        self.fs.vfs.account_read(ino, nbytes)
        cost = float(self.fs.perf.read_op_cost(nbytes, self._md_clients))
        self.charge(rank, cost, "read", nbytes=nbytes, api=api, inos=ino)
        return nbytes

    # -- group (vectorised symmetric-rank) operations ----------------------------

    def _shared_striping(self, inos) -> tuple[int, int] | None:
        """(stripe count, stripe size) when every file in ``inos`` (an
        array or an inode range) has the same striping, else None."""
        cols = self.fs.vfs.cols
        ix = as_index(inos)
        count, size = cols.stripe_count[ix], cols.stripe_size[ix]
        if len(count) and (count == count[0]).all() \
                and (size == size[0]).all():
            return int(count[0]), int(size[0])
        return None

    def open_group(self, ranks: np.ndarray | range, paths: Sequence[str],
                   create: bool = True, truncate: bool = False,
                   append: bool = False, api: str = "POSIX") -> np.ndarray:
        """Open/create one file per rank; returns an fd array."""
        lane = type(ranks) is range
        if not lane:
            ranks = np.asarray(ranks)
        if len(paths) != len(ranks):
            raise ValueError("one path per rank required")
        if create:
            inos = self.fs.vfs.create_many(paths)
            self.fs.assign_ost_many(inos)
        else:
            inos = self.fs.vfs.lookup_many(paths)
        if truncate:
            self.fs.vfs.truncate_many(inos)
        k = len(inos)
        pos = self.fs.vfs.cols.size[inos] if append else 0
        fd0 = self._alloc_fds(k, inos, rank_array(ranks), api, pos)
        fds = np.arange(fd0, fd0 + k, dtype=np.int64)
        # every registry is first-registration-wins, so each inode's
        # first row, in order, registers exactly what all k rows would
        # (a shared input deck: one row instead of k)
        first = np.unique(inos, return_index=True)[1]
        if len(first) < k:
            first.sort()
            self.trace.register_files(
                inos[first], [paths[i] for i in first.tolist()])
        else:
            self.trace.register_files(inos, paths)
        op = "create" if create else "open"
        weight = MD_OPS[op]
        cost = float(self.fs.perf.metadata_op_cost(self._md_clients, weight))
        self.charge(ranks, cost if lane else np.full(len(ranks), cost), op,
                    api=api, inos=inos)
        return fds

    def write_group(self, ranks: np.ndarray | range, fds: np.ndarray,
                    nbytes_each: int | np.ndarray,
                    chunk_size: int | None = None,
                    sync_each_chunk: bool = False,
                    truncate_first: bool = False,
                    api: str = "POSIX") -> None:
        """Symmetric append by many ranks, one vectorised call.

        All target files must share striping (true for per-rank outputs,
        which inherit the directory default).  A range of ranks with one
        byte count for files that share striping is costed once, through
        the perf model's scalar inputs.
        """
        lane = type(ranks) is range
        if not lane:
            ranks = np.asarray(ranks)
        fds = np.asarray(fds)
        inos = self.ino_of(fds)
        if self.faults is not None:
            self.faults.guard(self, "write", ranks, inos, api)
        run = as_run(inos) if lane else inos
        if truncate_first:
            self.fs.vfs.truncate_many(run)
        perf = self.fs.perf
        striping = (self._shared_striping(run) if lane and isinstance(
            nbytes_each, (int, np.integer)) else None)
        if striping is not None:
            nbytes = int(nbytes_each)
        else:
            nbytes = np.broadcast_to(
                np.asarray(nbytes_each, dtype=np.int64), (len(ranks),)
            ).copy()
        self.fs.vfs.write_group(run, nbytes)
        if striping is not None:
            # one op for the whole group: the scalar lane's cost is each
            # element of the array path's
            stripe_count, stripe_size = striping
            n_chunks, per_chunk = 1, nbytes
            if chunk_size is not None:
                n_chunks = max(1, -(-nbytes // chunk_size))
                per_chunk = min(nbytes, chunk_size)
            costs = float(perf.write_op_cost(
                per_chunk, self._writers, stripe_count, stripe_size,
                n_ops=n_chunks)) * float(perf.noise())
        else:
            cols = self.fs.vfs.cols
            ix = as_index(run)
            stripe_count = cols.stripe_count[ix].astype(np.float64)
            stripe_size = cols.stripe_size[ix].astype(np.float64)
            if chunk_size is not None:
                n_chunks = np.maximum(1, -(-nbytes // chunk_size))
                per_chunk = np.minimum(nbytes, chunk_size)
            else:
                n_chunks = np.ones_like(nbytes)
                per_chunk = nbytes
            costs = perf.write_op_cost(
                per_chunk, self._writers, stripe_count, stripe_size,
                n_ops=n_chunks) * float(perf.noise())
        self.charge(ranks, costs, "write", nbytes=nbytes, api=api,
                    inos=inos, n_ops=n_chunks)
        if sync_each_chunk:
            sync_costs = perf.fsync_cost(
                self._writers, stripe_count, n_ops=n_chunks) \
                * float(perf.noise())
            self.charge(ranks, sync_costs, "fsync", api=api, inos=inos,
                        n_ops=n_chunks)

    def read_group(self, ranks: np.ndarray | range, fds: np.ndarray,
                   nbytes_each: int | np.ndarray,
                   api: str = "POSIX", clients: int | None = None) -> None:
        """Symmetric synthetic reads by many ranks (restart/input loads).

        ``clients`` overrides the contention the cost model sees
        (default: the group size).  Chunked runners processing a large
        read phase block-by-block pass the *whole* phase's client count
        so per-op costs stay identical to the unchunked call.  Like
        :meth:`write_group`, a range of ranks reading one byte count from
        files that share striping is costed once.
        """
        lane = type(ranks) is range
        if not lane:
            ranks = np.asarray(ranks)
        fds = np.asarray(fds)
        inos = self.ino_of(fds)
        if self.faults is not None:
            self.faults.guard(self, "read", ranks, inos, api)
        if clients is None:
            clients = len(ranks)
        run = as_run(inos) if lane else inos
        cols = self.fs.vfs.cols
        striping = (self._shared_striping(run) if lane and isinstance(
            nbytes_each, (int, np.integer)) else None)
        if striping is not None:
            nbytes = int(nbytes_each)
            stripe_count = striping[0]
        else:
            nbytes = np.broadcast_to(np.asarray(
                nbytes_each, dtype=np.int64), (len(ranks),)).copy()
            stripe_count = cols.stripe_count[as_index(run)].astype(np.float64)
        scatter_add(cols.read_ops, run, 1)
        scatter_add(cols.bytes_read, run, nbytes)
        costs = self.fs.perf.read_op_cost(nbytes, clients, stripe_count)
        self.charge(ranks, costs, "read", nbytes=nbytes, api=api, inos=inos)

    def write_aggregate(self, ranks: np.ndarray | range, fds: np.ndarray,
                        nbytes_each: int | np.ndarray,
                        overwrite_offset: int | np.ndarray | None = None,
                        api: str = "POSIX",
                        start_at: np.ndarray | None = None) -> np.ndarray:
        """Collective write phase of M aggregator streams (ADIOS2 BP path).

        Unlike :meth:`write_group` (independent small ops costed
        per-operation), an aggregate phase is costed with the collective
        rate model :meth:`~repro.fs.perfmodel.StoragePerfModel.
        aggregate_stream_seconds`: M concurrent streams share
        ``rate(M)``, so each aggregator's write time is
        ``its_bytes / (rate/M)`` plus its per-RPC latencies.  The RPC size
        is bounded by the file's stripe size (the Fig. 9 mechanism).

        Returns per-rank elapsed seconds, charged to the clocks unless
        the caller passes planned ``start_at`` times: the async drain
        path schedules the phase in the future, so no clock moves and
        the emitted event is stamped when the drain actually runs.
        """
        lane = type(ranks) is range
        if not lane:
            ranks = np.asarray(ranks)
        fds = np.asarray(fds)
        inos = self.ino_of(fds)
        if self.faults is not None:
            self.faults.guard(self, "write", ranks, inos, api)
        m = len(ranks)
        nbytes = np.broadcast_to(
            np.asarray(nbytes_each, dtype=np.int64), (m,)).copy()
        run = as_run(inos) if lane else inos
        if overwrite_offset is None:
            self.fs.vfs.write_group(run, nbytes)
        else:
            self.fs.vfs.write_group(run, nbytes, offsets=overwrite_offset)
        cols = self.fs.vfs.cols
        ix = as_index(run)
        stripe_count = cols.stripe_count[ix].astype(np.float64)
        stripe_size = cols.stripe_size[ix].astype(np.float64)
        perf = self.fs.perf
        costs = perf.aggregate_stream_seconds(
            nbytes, m, stripe_count, stripe_size) * perf.noise((m,))
        # the write() system calls the engine issues are stripe-sized
        # buffer flushes; the per-RPC fan-out below them is the cost model
        n_writes = np.maximum(np.ceil(nbytes / stripe_size), 1.0)
        if start_at is None:
            self.charge(ranks, costs, "collective_write", nbytes=nbytes,
                        api=api, inos=inos, n_ops=n_writes)
        else:
            self._notify("collective_write", ranks, costs, nbytes=nbytes,
                         api=api, inos=inos, n_ops=n_writes, start=start_at)
        return costs

    def write_steps(self, ranks: np.ndarray | range, fds: np.ndarray,
                    nbytes_each: np.ndarray, offsets: np.ndarray,
                    appends, rank: int = 0) -> tuple[StepRow, list[StepRow]]:
        """K steps of one collective write phase, each followed by
        ``rank``'s appends of ``(fd, nbytes)`` in ``appends`` order, in
        one pass: the step lane's file I/O (no fault guard; the caller
        keeps faulted runs on :meth:`write_aggregate` and :meth:`write`).

        Step ``k`` writes ``nbytes_each`` at row ``k`` of ``offsets``
        (``(K, M)``).  The vfs columns and descriptor positions move as
        the K steps of per-step calls would move them, and the costs
        are theirs: the phase's noise-free per-stream seconds times one
        ``(K, M + E)`` noise block, whose row ``k`` holds step ``k``'s
        draws in their per-step order (the M streams, then the E
        appends).  No clock moves and nothing is emitted.  Returns the
        steps' posix-layer rows: the collective write's (durations
        ``(K, M)``) and one per append (durations ``(K,)``), scoped as
        the bus scope is now.
        """
        count = len(offsets)
        if type(ranks) is not range:
            ranks = np.asarray(ranks)
        fds = np.asarray(fds)
        inos = self.ino_of(fds)
        m = len(ranks)
        nbytes = np.broadcast_to(
            np.asarray(nbytes_each, dtype=np.int64), (m,)).copy()
        run = as_run(inos) if type(ranks) is range else inos
        vfs = self.fs.vfs
        vfs.write_steps(run, nbytes, offsets)
        cols = vfs.cols
        ix = as_index(run)
        stripe_size = cols.stripe_size[ix].astype(np.float64)
        perf = self.fs.perf
        base = perf.aggregate_stream_seconds(
            nbytes, m, cols.stripe_count[ix].astype(np.float64),
            stripe_size)
        metas = []
        for fd, n in appends:
            ino, fd_api = self._row(fd, None)
            pos = self._fd_pos.item(fd)
            self._fd_pos[fd] = vfs.write_run(ino, pos, n, count)
            cost = float(perf.write_op_cost(
                n, self._writers, int(cols.stripe_count[ino]),
                int(cols.stripe_size[ino]), n_ops=1))
            metas.append((ino, fd_api, n, cost))
        noise = perf.noise((count, m + len(metas)))
        scope = self.trace.current_scope
        write = StepRow(
            "collective_write", "posix", "POSIX", scope,
            ranks, nbytes.astype(np.float64), base * noise[:, :m], True,
            np.maximum(np.ceil(nbytes / stripe_size), 1.0), inos)
        rows = [StepRow("meta_append", _API_LAYER.get(fd_api, "posix"),
                        fd_api, scope, rank, n, cost * noise[:, m + e],
                        True, 1, ino)
                for e, (ino, fd_api, n, cost) in enumerate(metas)]
        return write, rows

    def release_fds(self, fds: int | np.ndarray) -> None:
        """Drop descriptors without close cost — a crashed process's fds.

        The kernel reaps a dead process's descriptors for free; no
        metadata ops are charged and no events are emitted.  Used by the
        ``abandon()`` paths of writers when a node-crash fault fires.
        """
        fds = np.atleast_1d(np.asarray(fds, dtype=np.int64))
        fds = fds[(fds >= 0) & (fds < len(self._fd_ino))]
        live = np.unique(fds[self._fd_ino[fds] >= 0])
        self._fd_ino[live] = -1
        self._n_open -= len(live)
        self._maybe_recycle_fds()

    def close_group(self, ranks: np.ndarray | range, fds: np.ndarray,
                    api: str = "POSIX") -> None:
        lane = type(ranks) is range
        if not lane:
            ranks = np.asarray(ranks)
        fds = np.asarray(fds)
        inos = self.ino_of(fds)
        # an fd listed twice is closed twice; open_group's ascending
        # runs skip the sort
        if (len(fds) > 1 and not (np.diff(fds) > 0).all()
                and len(np.unique(fds)) < len(fds)):
            raise KeyError("file descriptor closed twice")
        self._fd_ino[fds] = -1
        self._n_open -= len(fds)
        self._maybe_recycle_fds()
        cost = float(self.fs.perf.metadata_op_cost(self._md_clients, MD_OPS["close"]))
        self.charge(ranks, cost if lane else np.full(len(ranks), cost),
                    "close", api=api, inos=inos)

    def meta_group(self, ranks: np.ndarray | range, op: str,
                   n_ops: float | np.ndarray = 1,
                   api: str = "POSIX") -> None:
        """Charge bare metadata ops (opens of pre-existing files, stats…).

        A range of ranks with one op count is costed once."""
        if type(ranks) is range and isinstance(n_ops, _COUNT):
            cost = self.fs.perf.metadata_op_cost(
                self._md_clients, MD_OPS[op] * float(n_ops))
            self.charge(ranks, cost, op, api=api, n_ops=n_ops)
            return
        ranks = rank_array(ranks)
        weight = MD_OPS[op] * np.asarray(n_ops, dtype=np.float64)
        costs = self.fs.perf.metadata_op_cost(self._md_clients, weight)
        costs = np.broadcast_to(costs, ranks.shape)
        self.charge(ranks, costs, op, api=api, n_ops=n_ops)

    @property
    def open_fd_count(self) -> int:
        return self._n_open

"""Typed I/O events: the vocabulary of the instrumentation spine.

Every accountable action in the virtual I/O stack — a POSIX syscall, a
stdio flush, an engine-side memcpy, an MPI barrier — is described by one
:class:`IOEvent`.  Events are *vectorised over ranks*: a group write by
256 ranks is one event whose per-rank arrays carry 256 entries, mirroring
how the rest of the codebase (``VirtualComm`` clocks, Darshan columnar
counters) treats ranks as numpy axes rather than Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.scatter import range_index, rank_array

#: The closed event taxonomy.  ``emit`` rejects anything else so a typo
#: in a producer fails loudly instead of silently dropping accounting.
EVENT_KINDS = frozenset({
    # filesystem plane (POSIX / STDIO surfaces)
    "open", "create", "close", "stat", "mkdir", "unlink", "seek",
    "write", "read", "fsync",
    # engine plane (ADIOS2 / HDF5 staging pipeline); ``drain`` is an
    # async subfile drain running behind compute (BP5 AsyncWrite) and
    # ``drain_wait`` the stall when a new flush catches an unfinished one
    "memcpy", "compress", "shuffle", "collective_write", "meta_append",
    "drain", "drain_wait",
    # communicator plane
    "barrier",
    # fault plane (repro.faults): injected failures and recovery actions
    "fault", "retry", "failover", "restart",
    # resilience plane (repro.resilience): multi-level checkpoint traffic
    # that never touches the PFS — ``ckpt_store`` is a tier store (L0
    # node-local / L1 partner / L2 XOR group), ``ckpt_flush`` the async
    # L3 drain bookkeeping, ``rebuild`` a recovery read from a memory
    # tier.  All ride the ``faults`` layer so Darshan folds L3 traffic
    # only, as real Darshan would.
    "ckpt_store", "ckpt_flush", "rebuild",
    # streaming plane (repro.streaming): staged producer→consumer flow
    "publish", "deliver", "stall", "drop",
    # serving plane (repro.serving): the shared read cache in front of
    # the storage model — ``read_hit`` is served from cache at memory
    # speed, ``read_miss`` a demand fetch (the storage traffic itself is
    # a separate posix-layer ``read``), ``prefetch`` a predicted fill
    # running on a background channel, ``evict`` a capacity eviction.
    # All ride the ``serving`` layer, which Darshan ignores: only the
    # real POSIX reads underneath fold into its counters.
    "read_hit", "read_miss", "prefetch", "evict",
    # GPU/hybrid plane (repro.gpu): device↔host↔storage staging traffic
    # — ``d2h``/``h2d`` are bounce-buffer transfers over the host link
    # (checkpoint drains out, restart restores back in), ``gds`` a
    # GPUDirect-Storage transfer that bypasses the host bounce buffer,
    # ``gpu_stall`` the turnaround wait when the bounded pinned staging
    # buffer is full and the drain into the aggregation funnel has not
    # freed it yet.  All ride the ``gpu`` layer, which Darshan ignores
    # (real Darshan never sees PCIe traffic): only the POSIX writes the
    # engine issues underneath fold into its counters.
    "h2d", "d2h", "gds", "gpu_stall",
    # memory plane (repro.mem): a budget account crossed a watermark;
    # nbytes carries the account's resident bytes at the crossing
    "mem",
})

#: Layers whose events the Darshan subscriber folds into counters.
FS_LAYERS = frozenset({"posix", "stdio", "mpiio"})


@dataclass(frozen=True, slots=True)
class IOEvent:
    """One typed, timestamped accounting record.

    ``ranks``/``nbytes``/``duration``/``n_ops``/``start`` are 1-d arrays
    of identical length; scalars passed to :func:`make_event` are
    broadcast (as zero-copy views).  ``start`` holds per-rank virtual
    start times in seconds; ``start + duration`` is the completion time,
    which by construction equals the emitting rank's virtual clock at
    emission.

    An event over a ``range`` of ranks (the range lane) carries it as
    ``rank_range``, which lane subscribers fold by slicing; its
    ``ranks`` array is built only when something reads it.
    """

    kind: str
    layer: str
    api: str
    ranks: np.ndarray
    nbytes: np.ndarray
    duration: np.ndarray
    start: np.ndarray
    n_ops: np.ndarray
    inos: np.ndarray | None = None
    scope: str | None = None
    step: int | None = None
    seq: int = field(default=-1)
    rank_range: range | None = None

    def __getattr__(self, name: str):
        """Reached only for an unset slot, which is ``ranks`` on a
        range-lane event until first read: the array is built then."""
        if name == "ranks":
            rr = object.__getattribute__(self, "rank_range")
            if rr is not None:
                ranks = rank_array(rr)
                object.__setattr__(self, "ranks", ranks)
                return ranks
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def size(self) -> int:
        """Number of participating ranks."""
        if self.rank_range is not None:
            return len(self.rank_range)
        return int(self.ranks.shape[0])

    @property
    def end(self) -> np.ndarray:
        """Per-rank virtual completion times (seconds)."""
        return self.start + self.duration

    @property
    def total_bytes(self) -> float:
        return float(np.sum(self.nbytes))

    @property
    def total_seconds(self) -> float:
        return float(np.sum(self.duration))

    def __repr__(self) -> str:  # compact: events appear in test diffs
        return (f"IOEvent(#{self.seq} {self.kind} {self.layer}/{self.api} "
                f"ranks={self.size} bytes={self.total_bytes:.0f} "
                f"dur={self.total_seconds:.3e}s"
                + (f" scope={self.scope!r}" if self.scope else "")
                + (f" step={self.step}" if self.step is not None else "")
                + ")")


@dataclass(frozen=True, slots=True)
class StepRow:
    """One event of every step of a :class:`StepBatch`.

    ``ranks`` is a ``range``, a rank array or one rank (an int).
    ``nbytes`` and ``n_ops`` are the same every step: a scalar, or one
    value per rank.  So is ``duration``, unless ``varying``: then
    ``duration[k]`` is step ``k``'s (a scalar for one rank, else one
    value per rank).  ``scope`` is the scope the step's event would
    carry.
    """

    kind: str
    layer: str
    api: str
    scope: str | None
    ranks: range | np.ndarray | int
    nbytes: np.ndarray | float
    duration: np.ndarray | list
    varying: bool
    n_ops: np.ndarray | float = 1.0
    inos: np.ndarray | int | None = None

    @property
    def size(self) -> int:
        """Number of participating ranks."""
        return 1 if isinstance(self.ranks, (int, np.integer)) \
            else len(self.ranks)

    def column(self, value) -> np.ndarray:
        """``value`` over the row's ranks, as its event would carry it."""
        return _per_rank(value, (self.size,))


@dataclass(frozen=True, slots=True)
class StepBatch:
    """``K`` consecutive steps of one flush, each the same row sequence.

    Step ``k`` emits ``rows[0]``, ``rows[1]``, … in order under trace
    step ``steps[k]``, and row ``r`` of it takes sequence id
    ``seq0 + k * len(rows) + r``: the batch stands for those ``K *
    len(rows)`` events.  Columns that do not change from step to step
    are given once.  There is no ``start`` column: no fold with an
    ``on_steps`` hook reads one, and a bus with a subscriber that needs
    the events themselves takes no step batch
    (:meth:`~repro.trace.bus.TraceBus.takes_steps`).
    """

    rows: tuple[StepRow, ...]
    steps: tuple[int | None, ...]
    seq0: int = -1

    @property
    def nsteps(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        return len(self.rows) * len(self.steps)


def _per_rank(value, shape) -> np.ndarray:
    """Broadcast a scalar or array to the per-rank shape (view, no copy)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == shape:
        return arr
    if arr.ndim == 0:
        # the read-only 0-stride view np.broadcast_to makes, built
        # directly: its general machinery costs ~5 µs a call, several
        # calls an event
        view = np.ndarray(shape, np.float64, arr, 0, (0,) * len(shape))
        view.flags.writeable = False
        return view
    return np.broadcast_to(arr, shape)


def make_event(kind: str, ranks, *, nbytes=0, duration=0.0, start=None,
               n_ops=1, api: str = "POSIX", layer: str = "posix",
               inos=None, scope: str | None = None, step: int | None = None,
               seq: int = -1) -> IOEvent:
    """Normalise raw producer arguments into an :class:`IOEvent`.

    A ``range`` of ranks (start >= 0, step >= 1) stays on the event as
    ``rank_range``; the event is then the one ``np.arange`` of the range
    gives, field for field.  Raises ``ValueError`` for a kind outside
    :data:`EVENT_KINDS`.
    """
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown trace event kind {kind!r}; "
                         f"valid kinds: {sorted(EVENT_KINDS)}")
    rank_range = None
    if type(ranks) is range:
        range_index(ranks)  # the lane takes start >= 0, step >= 1 only
        rank_range, ranks, shape = ranks, None, (len(ranks),)
    else:
        ranks = np.atleast_1d(np.asarray(ranks, dtype=np.int64))
        shape = ranks.shape
    start_arr = (np.zeros(shape) if start is None
                 else _per_rank(start, shape))
    inos_arr = None if inos is None else np.atleast_1d(np.asarray(inos))
    event = IOEvent(
        kind=kind,
        layer=layer,
        api=api,
        ranks=ranks,
        nbytes=_per_rank(nbytes, shape),
        duration=_per_rank(duration, shape),
        start=start_arr,
        n_ops=_per_rank(n_ops, shape),
        inos=inos_arr,
        scope=scope,
        step=step,
        seq=seq,
        rank_range=rank_range,
    )
    if rank_range is not None:  # built on first read (__getattr__)
        object.__delattr__(event, "ranks")
    return event

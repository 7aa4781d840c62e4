"""Simulated MPI communicator.

The environment has no real MPI, so the whole stack runs SPMD inside one
Python process: a :class:`VirtualComm` owns ``size`` logical ranks, each
with a virtual clock (seconds of simulated wall time).  Collectives operate
on *per-rank value lists* — the driver loops (or vectorises) over ranks and
the communicator provides the synchronisation semantics the I/O adaptor
needs (offsets via exscan, barriers that align clocks, gathers for the
root-writer pattern of the original BIT1 output).

The communicator also knows the rank→node mapping, which the filesystem
performance model uses for NIC sharing and which ADIOS2 aggregation uses
to place one (or more) aggregators per node — the paper's
``OPENPMD_ADIOS2_BP5_NumAgg`` semantics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.util.validation import require_positive


@dataclass(frozen=True)
class CommConfig:
    """Static layout of a simulated MPI job."""

    size: int
    ranks_per_node: int = 128
    #: one-way small-message latency of the interconnect, seconds
    latency: float = 2.0e-6
    #: per-NIC bandwidth available to MPI traffic, bytes/s
    bandwidth: float = 25.0e9
    #: node-local shared-memory transport bandwidth, bytes/s — what
    #: intra-node transfers (same node, different rank) run at instead
    #: of the NIC rate (see :class:`repro.cluster.machine.NodeSpec.
    #: memory_bandwidth`, which the runners feed through here)
    shm_bandwidth: float = 200.0 * 2**30

    def __post_init__(self) -> None:
        require_positive("size", self.size)
        require_positive("ranks_per_node", self.ranks_per_node)

    @property
    def nnodes(self) -> int:
        return -(-self.size // self.ranks_per_node)


class BlockNodeMap:
    """Lazy node-of-rank map for the standard block distribution.

    Acts like the materialised ``np.arange(size) // ranks_per_node``
    array for every access pattern the data plane uses — integer,
    slice, fancy and boolean-mask indexing, ``max()``, ``astype``,
    equality, ``np.asarray`` — while holding O(1) state.  At 10^6
    ranks the array it replaces is megabytes of resident weight whose
    every element is recomputable from two ints; consumers that index
    windows (the chunked flush path, Darshan's node binning) never see
    an O(ranks) temporary either.
    """

    __slots__ = ("size", "ranks_per_node")

    dtype = np.dtype(np.int32)

    def __init__(self, size: int, ranks_per_node: int):
        self.size = size
        self.ranks_per_node = ranks_per_node

    def __len__(self) -> int:
        return self.size

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,)

    def __getitem__(self, idx):
        rpn = self.ranks_per_node
        if isinstance(idx, slice):
            lo, hi, step = idx.indices(self.size)
            out = np.arange(lo, hi, step, dtype=np.int32)
            out //= np.int32(rpn)
            return out
        if isinstance(idx, (int, np.integer)):
            i = int(idx)
            if i < 0:
                i += self.size
            if not 0 <= i < self.size:
                raise IndexError(
                    f"rank {idx} out of range for {self.size} ranks")
            return np.int32(i // rpn)
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return (idx // rpn).astype(np.int32)

    def __call__(self, rank):
        """Callable form (the trace exporters' node-lookup protocol)."""
        return self[rank]

    def __array__(self, dtype=None, copy=None):
        out = np.arange(self.size, dtype=np.int32)
        out //= np.int32(self.ranks_per_node)
        return out if dtype is None else out.astype(dtype)

    def astype(self, dtype, copy: bool = True):
        return self.__array__(dtype)

    def max(self):
        return (self.size - 1) // self.ranks_per_node

    # elementwise comparisons mirror ndarray semantics (materialise a
    # transient; these only run in tests / small unchunked paths)
    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    def __lt__(self, other):
        return np.asarray(self) < other

    def __le__(self, other):
        return np.asarray(self) <= other

    def __gt__(self, other):
        return np.asarray(self) > other

    def __ge__(self, other):
        return np.asarray(self) >= other

    __hash__ = None  # mirrors ndarray: unhashable, compare elementwise

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BlockNodeMap(size={self.size}, "
                f"ranks_per_node={self.ranks_per_node})")


class VirtualComm:
    """An MPI_COMM_WORLD-like communicator over simulated ranks.

    Collectives take a sequence with one entry per rank and return the
    per-rank results, mirroring what each rank would observe.  All
    collectives synchronise the virtual clocks (like a barrier) and charge
    a latency/bandwidth cost modelled on a binomial-tree implementation.
    """

    def __init__(self, size: int, ranks_per_node: int = 128, *,
                 latency: float = 2.0e-6, bandwidth: float = 25.0e9,
                 shm_bandwidth: float = 200.0 * 2**30):
        self.config = CommConfig(size=size, ranks_per_node=ranks_per_node,
                                 latency=latency, bandwidth=bandwidth,
                                 shm_bandwidth=shm_bandwidth)
        self.size = size
        #: virtual clock per rank, seconds
        self.clocks = np.zeros(size, dtype=np.float64)
        #: node index of each rank (block distribution, like slurm
        #: default) — a lazy O(1) :class:`BlockNodeMap`, not an
        #: O(ranks) array.  Tests exercising irregular placements may
        #: assign a real array here; every consumer goes through
        #: indexing so both representations work.  Consumers that build
        #: compound keys (the shuffle's ``node * m + subfile``) widen
        #: to int64 locally since indexed values come back int32.
        self.node_of_rank = BlockNodeMap(size, ranks_per_node)
        #: optional repro.trace bus; when attached (by a TraceSession),
        #: barriers emit typed events with per-rank wait times
        self.trace = None
        #: optional live :class:`repro.faults.injector.FaultState`; when
        #: installed, NIC flaps derate the effective interconnect bandwidth
        self.fault_state = None

    def rank_range(self, start: int = 0, stop: int | None = None,
                   step: int = 1) -> range:
        """Ranks ``start, start + step, …`` below ``stop`` (default: the
        communicator's size) as a ``range``.

        Producers that address a regular set of ranks build it here and
        hand the range to the I/O layers, which then take the range lane
        (slice adds instead of index scans; docs/architecture.md).  This
        is the one place the lane's input is made: patch it to return
        ``np.arange(start, stop, step)`` and every producer takes the
        array path, the lane's reference.
        """
        return range(start, self.size if stop is None else stop, step)

    # -- topology ---------------------------------------------------------

    @property
    def nnodes(self) -> int:
        return int(self.node_of_rank[-1]) + 1

    def ranks_on_node(self, node: int) -> np.ndarray:
        """All ranks placed on ``node``."""
        if isinstance(self.node_of_rank, BlockNodeMap):
            lo = node * self.config.ranks_per_node
            return np.arange(lo, min(lo + self.config.ranks_per_node,
                                     self.size))
        return np.nonzero(self.node_of_rank == node)[0]

    def has_block_topology(self) -> bool:
        """True when ``node_of_rank`` is the standard block distribution.

        True by construction for the lazy map; a test-assigned array is
        verified in bounded windows (never an O(ranks) temporary) so the
        aggregation planner can alias topology arrays instead of
        materialising per-rank maps at million-rank scale.
        """
        node = self.node_of_rank
        if isinstance(node, BlockNodeMap):
            return node.ranks_per_node == self.config.ranks_per_node
        rpn = self.config.ranks_per_node
        step = 1 << 16
        for lo in range(0, self.size, step):
            hi = min(self.size, lo + step)
            if not np.array_equal(node[lo:hi], np.arange(lo, hi) // rpn):
                return False
        return True

    def node_leaders(self) -> np.ndarray:
        """The first rank on each node (ADIOS2's default aggregators)."""
        if self.has_block_topology():
            # leader of node k sits at k*ranks_per_node; O(nodes) result
            # with O(1)-window verification instead of np.unique's
            # O(ranks) sort/index temporaries
            return np.arange(self.nnodes, dtype=np.int64) * \
                self.config.ranks_per_node
        _, first = np.unique(self.node_of_rank, return_index=True)
        return first

    # -- time -------------------------------------------------------------

    def advance(self, rank: int, seconds: float) -> None:
        """Charge ``seconds`` of local work to one rank's clock."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self.clocks[rank] += seconds

    def advance_all(self, seconds: float | np.ndarray) -> None:
        """Charge local work to every rank (scalar or per-rank array)."""
        self.clocks += seconds

    def max_time(self) -> float:
        """Wall time of the job so far (slowest rank)."""
        return float(self.clocks.max())

    def effective_bandwidth(self) -> float:
        """NIC bandwidth after any active fault derating (bytes/s).

        The model's bandwidth is job-global, so a NIC flap on one node is
        applied conservatively: collectives and shuffles run at the
        slowest participating NIC's rate.
        """
        bw = self.config.bandwidth
        if self.fault_state is not None:
            bw *= max(self.fault_state.nic_factor, 1e-6)
        return bw

    def shm_bandwidth(self) -> float:
        """Node-local shared-memory transport bandwidth (bytes/s).

        Intra-node transfers never touch the NIC, so NIC-flap faults do
        not derate this rate.
        """
        return self.config.shm_bandwidth

    def transfer_seconds(self, nbytes) -> float | np.ndarray:
        """Point-to-point NIC transfer time: latency + payload.

        Scalar in, scalar out; per-rank array in, per-rank array out.
        Derated live by any active NIC-flap fault (the streaming plane
        charges stream egress/ingress through this, never through the
        storage model).
        """
        arr = np.asarray(nbytes, dtype=np.float64)
        cost = self.config.latency + arr / self.effective_bandwidth()
        return float(cost) if arr.ndim == 0 else cost

    def _collective_cost(self, nbytes: int = 0) -> float:
        """Cost of one collective: log2(P) latency steps + payload."""
        cfg = self.config
        steps = max(1, int(np.ceil(np.log2(max(self.size, 2)))))
        return steps * cfg.latency + nbytes / self.effective_bandwidth()

    def barrier(self) -> float:
        """Align all clocks to the slowest rank plus the collective cost.

        Returns the synchronised time, which is also the job wall time at
        this point.  With a trace bus attached, emits one ``barrier``
        event whose per-rank durations are the wait times (fast ranks
        wait longest) — the load-imbalance signal in trace timelines.
        """
        bus = self.trace
        if bus is not None and bus.wants("barrier"):
            entered = self.clocks.copy()
            t = self.barrier_time()
            self.clocks[:] = t
            bus.emit("barrier", self.rank_range(), duration=t - entered,
                     start=entered, api="MPI", layer="mpi")
            return t
        t = self.barrier_time()
        self.clocks[:] = t
        return t

    def barrier_time(self) -> float:
        """The time a barrier now aligns every clock to: the slowest
        rank's plus the collective cost (no clock moves)."""
        return self.max_time() + self._collective_cost()

    # -- collectives ------------------------------------------------------

    def _check_per_rank(self, values: Sequence[Any]) -> None:
        if len(values) != self.size:
            raise ValueError(
                f"expected one value per rank ({self.size}), got {len(values)}"
            )

    def bcast(self, value: Any, root: int = 0) -> list[Any]:
        """Broadcast ``value`` from ``root``; returns the per-rank copies.

        Non-root ranks receive their own deep copies — as in real MPI,
        where every rank deserialises into private memory, so mutating
        one rank's copy cannot alias another rank's.
        """
        self.barrier()
        return [value if r == root else copy.deepcopy(value)
                for r in range(self.size)]

    def gather(self, values: Sequence[Any], root: int = 0) -> list[Any] | None:
        """Gather per-rank values to ``root``.

        Returns the gathered list (only meaningful "at" the root, as in
        MPI; callers emulating non-root ranks should ignore it).
        """
        self._check_per_rank(values)
        self.barrier()
        return list(values)

    def allgather(self, values: Sequence[Any]) -> list[Any]:
        """All ranks receive the full per-rank value list."""
        self._check_per_rank(values)
        self.barrier()
        return list(values)

    def allreduce_sum(self, values: Sequence[float] | np.ndarray
                      ) -> float | np.ndarray:
        """Sum-reduce per-rank contributions.

        Array-native: a 2-D rank-major ``(size, k)`` array reduces over
        the rank axis to the ``(k,)`` result every rank receives — one
        call for k element-wise allreduces.
        """
        arr = np.asarray(values, dtype=np.float64)
        self._check_per_rank(arr)
        self.barrier()
        if arr.ndim > 1:
            # sum each column over a contiguous axis so the result is
            # bit-identical to k separate 1-D allreduces (numpy's
            # pairwise summation differs between axis-0 reduction and
            # 1-D reduction above ~8 rows)
            return np.ascontiguousarray(arr.T).sum(axis=1)
        return float(np.sum(arr))

    def allreduce_max(self, values: Sequence[float] | np.ndarray
                      ) -> float | np.ndarray:
        """Max-reduce per-rank contributions (2-D reduces the rank axis)."""
        arr = np.asarray(values, dtype=np.float64)
        self._check_per_rank(arr)
        self.barrier()
        if arr.ndim > 1:
            return arr.max(axis=0)
        return float(np.max(arr))

    def exscan_sum(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Exclusive prefix sum — the openPMD offset computation.

        ``offset[r] = sum(values[:r])``; rank 0 gets 0.  This is exactly
        what the paper's adaptor obtains "by calling MPI functions" to
        place each rank's local extent in the global extent.  A 2-D
        rank-major array scans each column independently.
        """
        arr = np.asarray(values)
        self._check_per_rank(arr)
        self.barrier()
        out = np.zeros(arr.shape, dtype=np.int64)
        np.cumsum(arr[:-1], axis=0, out=out[1:])
        return out

    def scan_sum(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Inclusive prefix sum (2-D scans each column independently)."""
        arr = np.asarray(values)
        self._check_per_rank(arr)
        self.barrier()
        return np.cumsum(arr, axis=0).astype(np.int64)

    def alltoall_volume(self, send_matrix: np.ndarray) -> float:
        """Charge the clock cost of an all-to-all with a bytes matrix.

        ``send_matrix[i, j]`` is bytes rank *i* sends to rank *j*.  Returns
        the modelled completion time added to every clock.  Used by the
        aggregation layer to model shuffling data to aggregator ranks.
        """
        if send_matrix.shape != (self.size, self.size):
            raise ValueError("send matrix must be (size, size)")
        per_rank_out = send_matrix.sum(axis=1)
        per_rank_in = send_matrix.sum(axis=0)
        volume = np.maximum(per_rank_out, per_rank_in)
        dt = self._collective_cost() + volume.max() / self.effective_bandwidth()
        self.barrier()
        self.clocks += dt
        return float(dt)

    # -- SPMD helper ------------------------------------------------------

    def foreach_rank(self, fn: Callable[[int], Any]) -> list[Any]:
        """Run ``fn(rank)`` for every rank and return per-rank results.

        This is the driver-orchestrated SPMD idiom used by the functional
        (small-scale) simulations; performance experiments use vectorised
        group operations instead.
        """
        return [fn(r) for r in range(self.size)]

    def split_range(self, n: int) -> list[tuple[int, int]]:
        """Block-partition ``range(n)`` over ranks, remainder to low ranks.

        Returns per-rank ``(start, stop)`` half-open intervals; the standard
        domain-decomposition of BIT1's 1D grid.
        """
        base, extra = divmod(n, self.size)
        out = []
        start = 0
        for r in range(self.size):
            stop = start + base + (1 if r < extra else 0)
            out.append((start, stop))
            start = stop
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"VirtualComm(size={self.size}, nnodes={self.nnodes})"


def comm_for_nodes(nodes: int, ranks_per_node: int = 128, **kw: Any) -> VirtualComm:
    """Convenience constructor used by the experiment drivers."""
    return VirtualComm(nodes * ranks_per_node, ranks_per_node, **kw)

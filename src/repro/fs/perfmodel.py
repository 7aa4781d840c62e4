"""Storage performance model — virtual time for every I/O operation.

All figures in the paper are throughput/time measurements on real
parallel filesystems; this module is the synthetic equivalent.  It turns
operation descriptions into *virtual seconds* using a small set of
mechanisms (each with calibration constants in
:class:`repro.cluster.machine.StorageTuning`):

``metadata``
    open/create/close/stat cost grows with concurrent clients hammering
    the metadata server: ``mds_latency + C**mds_gamma / mds_rate``.

``fsync``
    committing a buffered chunk to stable storage queues behind the other
    writers sharing the target OST:
    ``sync_latency * (1 + (k/sync_knee)**sync_gamma)`` with *k* writers
    per OST.  BIT1's original stdio output pays this per flushed buffer —
    this is the dominant term behind the paper's Fig. 5 metadata numbers
    (Darshan accounts fsync under metadata time).

``write RPC``
    each bulk write RPC pays a queue-scaled latency plus transfer time at
    the per-writer share of the OST stream bandwidth.

``aggregate phase``
    a collective write of M files (ADIOS2 aggregators) proceeds at
    ``min(client_stream * M**agg_beta,
    num_osts * ost_bw * interleave(streams_per_ost))`` — the sub-linear
    stream scaling and the interleave decline reproduce the paper's
    aggregator curve (Fig. 6): 0.59 GiB/s at one aggregator, a peak near
    400, and 3.87 GiB/s at 25600.

Everything is vectorised: scalar or ndarray inputs broadcast.  Calls
whose inputs are all plain numbers (one POSIX op by one rank) take a
scalar lane: the factors that depend only on concurrency, striping and
the fault state are memoised per model, and the byte-dependent terms
are computed on Python floats in the same operation order as the array
path, so both lanes give the same bits.

The virtual seconds computed here are the ``duration`` fields of the
typed events :class:`~repro.fs.posix.PosixIO` emits on the
:mod:`repro.trace` bus — this model is the single source of I/O time, so
every downstream consumer (Darshan counters, engine profiles, trace
exports) agrees by construction.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.machine import StorageSystem, StorageTuning
from repro.util.rng import RngRegistry

ArrayLike = "float | np.ndarray"

#: plain numbers; a call whose inputs are all of these takes the scalar lane
_NUMBER = (int, float, np.integer, np.floating)


class StoragePerfModel:
    """Cost model bound to one storage system of one machine."""

    def __init__(self, system: StorageSystem, rng: RngRegistry | None = None):
        self.system = system
        self.tuning: StorageTuning = system.tuning
        self.num_osts = system.num_osts
        #: optional live :class:`repro.faults.injector.FaultState`; when
        #: installed, its factors derate bandwidth / inflate MDS latency
        self.fault_state = None
        self._rng = (rng or RngRegistry()).get("perfmodel", system.name)
        #: scalar-lane memo: (cost, concurrency, stripe count, fault
        #: factor) -> the per-op factors of that phase context
        self._memo: dict[tuple, object] = {}
        # "storage weather": one multiplicative factor for the whole run,
        # drawn at mount time — busy machines (Vega) swing run to run
        sigma = self.tuning.noise_sigma
        if sigma > 0:
            self.run_factor = float(
                self._rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
        else:
            self.run_factor = 1.0

    # -- noise ------------------------------------------------------------

    def noise(self, shape: int | tuple = ()) -> np.ndarray | float:
        """Multiplicative run-to-run jitter factor (lognormal, mean ~1).

        Machines like Vega carry large σ — the paper calls its behaviour
        "inconsistent, lacking clear scaling".
        """
        sigma = self.tuning.noise_sigma / 3.0  # per-phase jitter
        if sigma <= 0:
            return (np.full(shape, self.run_factor) if shape != ()
                    else self.run_factor)
        draw = self._rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma,
                                   size=shape) * self.run_factor
        return draw if shape != () else float(draw)

    def _bw_derate(self) -> float:
        derate = 1.0 - self.tuning.background_load
        if self.fault_state is not None:
            # degraded/failed OSTs shrink the aggregate stream bandwidth
            derate *= max(self.fault_state.bw_factor, 1e-6)
        return derate

    #: scalar-lane memo entries kept before the memo is cleared; a run
    #: sees few phase contexts (the paper's figure points at most 3), so
    #: the cap only bounds memory when the concurrency keeps changing
    MEMO_SIZE = 256

    def _remember(self, key: tuple, value):
        memo = self._memo
        if len(memo) >= self.MEMO_SIZE:
            memo.clear()
        memo[key] = value
        return value

    def _data_factors(self, concurrent: float,
                      stripe_count: float) -> tuple[float, float]:
        """(write queue factor, per-writer share) of one phase context.

        Memoised per (concurrency, stripe count, bandwidth fault
        factor) and computed by the array methods themselves, so the
        scalar lane multiplies by exactly the floats they would.
        """
        fs = self.fault_state
        key = ("data", concurrent, stripe_count,
               None if fs is None else fs.bw_factor)
        hit = self._memo.get(key)
        if hit is None:
            k = self.writers_per_ost(concurrent, stripe_count)
            hit = self._remember(key, (
                float(self.write_queue_factor(k)),
                float(self.per_writer_share(concurrent, stripe_count))))
        return hit

    # -- queue shapes -------------------------------------------------------

    def interleave_factor(self, streams_per_ost: ArrayLike) -> np.ndarray:
        """Efficiency of one OST serving k concurrent file streams.

        1.0 for a single stream; decays as seeks between interleaved files
        dominate.  ``(k-1)`` in the numerator keeps one-file-per-OST free
        of penalty.
        """
        t = self.tuning
        k = np.asarray(streams_per_ost, dtype=np.float64)
        excess = np.maximum(k - 1.0, 0.0)
        return 1.0 / (1.0 + (excess / t.interleave_knee) ** t.interleave_gamma)

    def write_queue_factor(self, writers_per_ost: ArrayLike) -> np.ndarray:
        """RPC queueing multiplier for write latency."""
        t = self.tuning
        k = np.asarray(writers_per_ost, dtype=np.float64)
        return 1.0 + (k / t.write_queue_knee) ** t.write_queue_gamma

    def sync_queue_factor(self, writers_per_ost: ArrayLike) -> np.ndarray:
        """Queueing multiplier for fsync commit latency."""
        t = self.tuning
        k = np.asarray(writers_per_ost, dtype=np.float64)
        return 1.0 + (k / t.sync_knee) ** t.sync_gamma

    def writers_per_ost(self, concurrent_writers: ArrayLike,
                        stripe_count: ArrayLike = 1) -> np.ndarray:
        """Mean-field streams per OST for W writers with given striping."""
        w = np.asarray(concurrent_writers, dtype=np.float64)
        c = np.asarray(stripe_count, dtype=np.float64)
        return w * c / self.num_osts

    # -- metadata -----------------------------------------------------------

    def metadata_op_cost(self, concurrent_clients: ArrayLike,
                         n_ops: ArrayLike = 1) -> np.ndarray:
        """Virtual seconds for n metadata ops under C concurrent clients."""
        if isinstance(concurrent_clients, _NUMBER) and isinstance(
                n_ops, _NUMBER):
            fs = self.fault_state
            key = ("md", concurrent_clients,
                   None if fs is None else fs.mds_factor)
            per_op = self._memo.get(key)
            if per_op is None:  # a 0-d array takes the array path
                per_op = self._remember(key, float(self.metadata_op_cost(
                    np.asarray(concurrent_clients, dtype=np.float64), 1.0)))
            return float(n_ops) * per_op
        t = self.tuning
        c = np.maximum(np.asarray(concurrent_clients, dtype=np.float64), 1.0)
        per_op = t.mds_latency + (c ** t.mds_gamma) / t.mds_rate
        if self.fault_state is not None:
            # an MDS slowdown window inflates every metadata op
            per_op = per_op * self.fault_state.mds_factor
        return np.asarray(n_ops, dtype=np.float64) * per_op

    def fsync_cost(self, concurrent_writers: ArrayLike,
                   stripe_count: ArrayLike = 1,
                   n_ops: ArrayLike = 1) -> np.ndarray:
        """Virtual seconds for n fsync calls (Darshan: metadata time)."""
        if (isinstance(concurrent_writers, _NUMBER)
                and isinstance(stripe_count, _NUMBER)
                and isinstance(n_ops, _NUMBER)):
            key = ("sync", concurrent_writers, stripe_count)
            per_op = self._memo.get(key)
            if per_op is None:  # a 0-d array takes the array path
                per_op = self._remember(key, float(self.fsync_cost(
                    np.asarray(concurrent_writers, dtype=np.float64),
                    stripe_count, 1.0)))
            return float(n_ops) * per_op
        k = self.writers_per_ost(concurrent_writers, stripe_count)
        per_op = self.tuning.sync_latency * self.sync_queue_factor(k)
        return np.asarray(n_ops, dtype=np.float64) * per_op

    # -- data plane ---------------------------------------------------------

    def per_writer_share(self, concurrent_writers: ArrayLike,
                         stripe_count: ArrayLike = 1) -> np.ndarray:
        """Bytes/s one writer gets when W writers share the OSTs.

        Fair-share of the OST stream bandwidth (the interleave penalty is
        charged on *collective* phases via :meth:`aggregate_write_rate`;
        independent small writers already pay queueing through
        :meth:`write_queue_factor`, so applying it here too would
        double-count).
        """
        t = self.tuning
        k = np.maximum(self.writers_per_ost(concurrent_writers, stripe_count), 1e-9)
        per_ost = t.ost_stream_bandwidth * self._bw_derate()
        share = per_ost / np.maximum(k, 1.0)
        return np.minimum(share * np.maximum(np.asarray(stripe_count, float), 1.0),
                          t.client_stream_bandwidth)

    def write_op_cost(self, nbytes: ArrayLike,
                      concurrent_writers: ArrayLike,
                      stripe_count: ArrayLike = 1,
                      stripe_size: ArrayLike | None = None,
                      n_ops: ArrayLike = 1) -> np.ndarray:
        """Virtual seconds spent inside n write() calls of nbytes each.

        Covers the RPC latency (queue-scaled) plus the transfer at the
        writer's bandwidth share.  ``stripe_size`` bounds the RPC size
        (Lustre caps bulk RPCs at ``rpc_max_size``); smaller stripes mean
        more, cheaper RPCs per call — the Fig. 9 trade-off.
        """
        t = self.tuning
        if (isinstance(nbytes, _NUMBER)
                and isinstance(concurrent_writers, _NUMBER)
                and isinstance(stripe_count, _NUMBER)
                and (stripe_size is None or isinstance(stripe_size, _NUMBER))
                and isinstance(n_ops, _NUMBER)):
            queue, share = self._data_factors(concurrent_writers,
                                              stripe_count)
            nbytes = float(nbytes)
            rpc_size = float(t.rpc_max_size)
            if stripe_size is not None:
                rpc_size = min(float(stripe_size), rpc_size)
            n_rpcs = max(float(math.ceil(nbytes / rpc_size)), 1.0)
            latency = n_rpcs * t.write_rpc_latency * queue
            return float(n_ops) * (latency + nbytes / share)
        nbytes = np.asarray(nbytes, dtype=np.float64)
        k = self.writers_per_ost(concurrent_writers, stripe_count)
        rpc_size = float(t.rpc_max_size) if stripe_size is None else np.minimum(
            np.asarray(stripe_size, dtype=np.float64), float(t.rpc_max_size)
        )
        n_rpcs = np.maximum(np.ceil(nbytes / rpc_size), 1.0)
        latency = n_rpcs * t.write_rpc_latency * self.write_queue_factor(k)
        transfer = nbytes / self.per_writer_share(concurrent_writers, stripe_count)
        return np.asarray(n_ops, dtype=np.float64) * (latency + transfer)

    def read_op_cost(self, nbytes: ArrayLike,
                     concurrent_readers: ArrayLike = 1,
                     stripe_count: ArrayLike = 1,
                     n_ops: ArrayLike = 1) -> np.ndarray:
        """Virtual seconds spent inside n read() calls of nbytes each."""
        t = self.tuning
        if (isinstance(nbytes, _NUMBER)
                and isinstance(concurrent_readers, _NUMBER)
                and isinstance(stripe_count, _NUMBER)
                and isinstance(n_ops, _NUMBER)):
            queue, share = self._data_factors(concurrent_readers,
                                              stripe_count)
            nbytes = float(nbytes)
            n_rpcs = max(float(math.ceil(nbytes / float(t.rpc_max_size))),
                         1.0)
            latency = n_rpcs * t.read_rpc_latency * queue
            return float(n_ops) * (latency + nbytes / share)
        nbytes = np.asarray(nbytes, dtype=np.float64)
        k = self.writers_per_ost(concurrent_readers, stripe_count)
        n_rpcs = np.maximum(np.ceil(nbytes / float(t.rpc_max_size)), 1.0)
        latency = n_rpcs * t.read_rpc_latency * self.write_queue_factor(k)
        transfer = nbytes / self.per_writer_share(concurrent_readers, stripe_count)
        return np.asarray(n_ops, dtype=np.float64) * (latency + transfer)

    # -- aggregate (collective) phases ---------------------------------------

    def aggregate_write_rate(self, n_files: ArrayLike,
                             stripe_count: ArrayLike = 1) -> np.ndarray:
        """Sustained bytes/s for a collective write phase of M files.

        This is the Fig. 6 curve generator: the stream term rises as
        ``client_stream * M**agg_beta`` (sub-linear aggregation
        efficiency — aggregator streams contend on the server request
        queues), the OST term falls once many files interleave on each
        OST.  The minimum of the two peaks at a few hundred files on a
        48-OST system.
        """
        t = self.tuning
        m = np.maximum(np.asarray(n_files, dtype=np.float64), 1.0)
        c = np.maximum(np.asarray(stripe_count, dtype=np.float64), 1.0)
        stream_term = t.client_stream_bandwidth * m ** t.agg_beta
        streams_per_ost = np.maximum(m * c / self.num_osts, c / self.num_osts)
        # with fewer files than OSTs, only m*c OSTs are busy
        busy_osts = np.minimum(m * c, float(self.num_osts))
        ost_term = (busy_osts * t.ost_stream_bandwidth
                    * self.interleave_factor(np.maximum(streams_per_ost, 1.0)))
        return np.minimum(stream_term, ost_term) * self._bw_derate()

    def aggregate_stream_seconds(self, nbytes: ArrayLike, n_files: int,
                                 stripe_count: ArrayLike = 1,
                                 stripe_size: ArrayLike | None = None,
                                 ) -> np.ndarray:
        """Per-stream seconds of one aggregator in an M-stream phase.

        Each of the M concurrent streams gets ``rate(M)/M`` and pays its
        queue-scaled per-RPC latencies (RPC size bounded by the file's
        stripe size).  This is the cost :meth:`~repro.fs.posix.PosixIO.
        write_aggregate` charges per aggregator — noise excluded, so the
        async drain scheduler can reuse it batch by batch.
        """
        t = self.tuning
        nbytes = np.asarray(nbytes, dtype=np.float64)
        stripe_count = np.asarray(stripe_count, dtype=np.float64)
        rate = self.aggregate_write_rate(n_files, float(stripe_count.mean()))
        per_stream = rate / n_files
        rpc_size = float(t.rpc_max_size) if stripe_size is None else np.minimum(
            np.asarray(stripe_size, dtype=np.float64), float(t.rpc_max_size)
        )
        n_rpcs = np.maximum(np.ceil(nbytes / rpc_size), 1.0)
        k = self.writers_per_ost(n_files, stripe_count)
        latency = n_rpcs * t.write_rpc_latency * self.write_queue_factor(k)
        return nbytes / per_stream + latency

    def aggregate_phase_wall(self, total_bytes: ArrayLike, n_files: ArrayLike,
                             stripe_count: ArrayLike = 1) -> np.ndarray:
        """Wall seconds for a collective write of total_bytes into M files.

        Includes a per-file round of write RPC latencies so that tiny
        phases are latency- rather than bandwidth-bound.
        """
        t = self.tuning
        total_bytes = np.asarray(total_bytes, dtype=np.float64)
        rate = self.aggregate_write_rate(n_files, stripe_count)
        m = np.maximum(np.asarray(n_files, dtype=np.float64), 1.0)
        per_file = total_bytes / m
        k = self.writers_per_ost(m, stripe_count)
        n_rpcs = np.maximum(np.ceil(per_file / float(t.rpc_max_size)), 1.0)
        latency = n_rpcs * t.write_rpc_latency * self.write_queue_factor(k)
        return total_bytes / rate + latency

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StoragePerfModel({self.system.name!r}, kind={self.system.kind},"
                f" osts={self.num_osts})")

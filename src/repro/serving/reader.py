"""CachedSeriesReader: chunk-cached functional reads over a Series.

The functional twin of the modeled :class:`~repro.serving.fleet.
ReaderFleet`: real bytes, real chunk entries, one analysis client.  A
load assembles a variable chunk-by-chunk through the shared cache —
hits return the previously decoded array at memory speed, misses go
through the engine's per-chunk read path (identical cost, checksum and
decompression behaviour to the uncached ``Series.load``), so cached
and uncached reads are byte-identical by construction.

Prefetch here is synchronous (predicted chunks are fetched and billed
inline): the functional surface exists for correctness and for
single-analyst sessions, while latency-hiding pipelines live in the
virtual-time fleet.
"""

from __future__ import annotations

import numpy as np

from repro.adios2.variables import numpy_dtype
from repro.mem import current_budget
from repro.serving.cache import ReadCache
from repro.serving.config import ServingConfig, current_serving_config
from repro.serving.prefetch import make_prefetcher

#: default hit-service bandwidth (NodeSpec.memory_bandwidth of the
#: paper's machines); pass the node's real figure when modeling one
MEMORY_BANDWIDTH = 200 * 1024**3


class CachedSeriesReader:
    """Serve ``Series`` loads through a chunk-granular read cache.

    All cache and predictor state is instance-scoped: two readers (or
    two runs) share nothing unless they explicitly share a ``cache``.
    """

    def __init__(self, series, config: ServingConfig | None = None,
                 cache: ReadCache | None = None, rank: int = 0,
                 memory_bandwidth: float = MEMORY_BANDWIDTH):
        self.series = series
        self.cfg = config if config is not None else current_serving_config()
        self.rank = int(rank)
        self.memory_bandwidth = float(memory_bandwidth)
        if cache is not None:
            self.cache = cache
        elif self.cfg.policy == "none":
            self.cache = None
        else:
            self.cache = ReadCache(
                self.cfg.cache_bytes,
                account=current_budget().account("serving"),
                max_pinned_per_stream=max(1, self.cfg.prefetch_depth))
        self.prefetcher = make_prefetcher(self.cfg.policy,
                                          self.cfg.prefetch_depth)
        #: chunk-id interning: stable ints for the predictors, mapped
        #: back to (variable, entry) to resolve a prediction
        self._ids: dict = {}
        self._refs: list = []
        self._prev: int | None = None

    # -- id interning -----------------------------------------------------

    @staticmethod
    def _key(variable_path: str, e) -> tuple:
        return (variable_path, e.step_key, e.subfile, e.offset)

    def _intern(self, variable_path: str, e) -> int:
        key = self._key(variable_path, e)
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self._refs)
            self._ids[key] = cid
            self._refs.append((variable_path, e))
        return cid

    # -- the cached load path ---------------------------------------------

    def _emit(self, kind: str, nbytes: int, duration: float,
              start: float) -> None:
        bus = self.series.posix.trace
        if bus.wants(kind):
            bus.emit(kind, [self.rank], nbytes=nbytes, duration=duration,
                     start=start, api="SERVING", layer="serving")

    def _clock(self) -> float:
        comm = self.series.posix.comm
        return float(comm.clocks[self.rank]) if comm is not None else 0.0

    def _fetch(self, variable_path: str, e, cid: int,
               pinned_by: int | None = None):
        """Engine-path read of one chunk, inserted into the cache."""
        arr = self.series._read_engine.read_chunk(e, self.rank)
        outcome = self.cache.insert(
            self._key(variable_path, e), arr.nbytes,
            ready_at=self._clock(), data=arr, pinned_by=pinned_by)
        for victim in outcome.evicted:
            if victim.pinned_by is not None:
                self.prefetcher.feedback(victim.pinned_by, False)
        for stream, _key in outcome.expired:
            self.prefetcher.feedback(stream, False)
        return arr

    def load(self, variable_path: str, step_key: str | None = None):
        """Assemble a variable through the cache (byte-identical to
        the uncached ``Series.load``)."""
        engine = self.series._read_engine
        if self.cache is None:
            # nothing to hit, fill or predict for: the engine's own read
            return engine.get(variable_path, step_key, self.rank)
        entries = engine.chunk_entries(variable_path, step_key)
        out = np.zeros(entries[0].global_shape,
                       dtype=numpy_dtype(entries[0].dtype))
        # intern every chunk up front so readahead/Markov predictions
        # within this variable resolve to fetchable entries
        cids = [self._intern(variable_path, e) for e in entries]
        for e, cid in zip(entries, cids):
            t = self._clock()
            hit, stream = self.cache.lookup(self._key(variable_path, e))
            if hit is not None:
                arr = hit.data
                cost = e.stored_nbytes / self.memory_bandwidth
                self.series.posix.charge(
                    self.rank, cost, "read_hit", nbytes=e.stored_nbytes,
                    api="SERVING", layer="serving", start=t)
                if stream is not None:
                    self.prefetcher.feedback(stream, True)
            else:
                arr = self._fetch(variable_path, e, cid)
                self._emit("read_miss", e.stored_nbytes,
                           self._clock() - t, t)
            out[e.selection] = arr
            self.prefetcher.observe(0, self._prev, cid)
            self._prev = cid
            self._prefetch(cid)
        return out

    def _prefetch(self, cid: int) -> None:
        for pred in self.prefetcher.predict(0, cid):
            if not 0 <= pred < len(self._refs):
                continue
            variable_path, e = self._refs[pred]
            key = self._key(variable_path, e)
            if key in self.cache:
                continue
            headroom = (self.cache.account.headroom
                        if self.cache.account is not None else None)
            if headroom is not None and headroom < e.raw_nbytes:
                continue
            t = self._clock()
            self._fetch(variable_path, e, pred, pinned_by=0)
            self._emit("prefetch", e.stored_nbytes, self._clock() - t, t)

    # -- typed conveniences (mirror the Series surface) --------------------

    def load_mesh(self, iteration: int, mesh: str,
                  component: str | None = None):
        return self.load(self.series.mesh_path(iteration, mesh, component))

    def load_particles(self, iteration: int, species: str, record: str,
                       component: str | None = None):
        return self.load(self.series.particles_path(iteration, species,
                                                    record, component))

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate if self.cache is not None else 0.0

"""ReaderFleet: N concurrent virtual readers through one shared cache.

The mirror image of the write plane's aggregator fan-in: a portal's
worth of analysis clients (dashboards, analysts, convergence monitors)
issue chunk requests against a stored BP series.  Between them and the
Lustre/POSIX model sits one :class:`~repro.serving.cache.ReadCache`
plus a :class:`~repro.serving.prefetch.Prefetcher`:

* **hits** are served at ``NodeSpec.memory_bandwidth`` (plus any wait
  for an in-flight fill to land);
* **misses** pay the full storage model through
  :meth:`~repro.fs.posix.PosixIO.read_synthetic`, so Darshan's read
  counters and DXT segments fold the same spine as writes;
* **prefetch fills** run on a per-reader background channel via
  :meth:`~repro.fs.posix.PosixIO.read_scheduled` — storage cost is
  modeled and folded, but the reader's clock only waits if it arrives
  before the fill completes;
* every request then pays an analysis cost (``analysis_rate``), which
  is the window background prefetch hides its latency in.

Scheduling is exact virtual time: a min-heap interleaves readers by
their per-rank clocks (ties break by rank), so per-reader latencies are
deterministic and independent of Python iteration order.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.mem import current_budget
from repro.serving.cache import ReadCache
from repro.serving.config import ServingConfig, current_serving_config
from repro.serving.patterns import make_pattern
from repro.serving.prefetch import make_prefetcher

#: nominal analysis throughput per reader (matches the streaming
#: plane's consumer model): seconds spent per chunk = nbytes / rate
ANALYSIS_RATE = 2.0 * 1024**3


@dataclass(frozen=True)
class SeriesLayout:
    """Chunk-granular map of a stored BP series (modeled read surface).

    Flattens the series' on-disk bytes into fixed-size chunks assigned
    round-robin to the engine's subfiles — the request universe the
    pattern generators draw from.  ``materialize`` lays the subfiles
    into a filesystem without charging clocks (the series is presumed
    written by an earlier job; serving starts from cold caches, not
    from a re-simulated write phase).
    """

    path: str
    chunk_bytes: int
    total_bytes: int
    n_subfiles: int = 1

    @classmethod
    def from_datamodel(cls, model, path: str, n_subfiles: int,
                       chunk_bytes: int) -> "SeriesLayout":
        """Layout of the Table-II openPMD output of one scaled run."""
        return cls(path=path, chunk_bytes=int(chunk_bytes),
                   total_bytes=int(model.openpmd_ondisk_bytes()),
                   n_subfiles=max(1, int(n_subfiles)))

    @property
    def n_chunks(self) -> int:
        return max(1, -(-self.total_bytes // self.chunk_bytes))

    def chunk_nbytes(self, chunk: int) -> int:
        if chunk == self.n_chunks - 1:
            tail = self.total_bytes - chunk * self.chunk_bytes
            if 0 < tail < self.chunk_bytes:
                return tail
        return self.chunk_bytes

    def subfile_of(self, chunk: int) -> int:
        return chunk % self.n_subfiles

    def subfile_path(self, i: int) -> str:
        return f"{self.path}/data.{i}"

    def materialize(self, fs) -> None:
        """Create the subfiles at their on-disk sizes (charge-free)."""
        vfs = fs.vfs
        if not vfs.exists(self.path):
            vfs.mkdir(self.path, parents=True)
        paths = [self.subfile_path(i) for i in range(self.n_subfiles)]
        inos = vfs.create_many(p for p in paths if not vfs.exists(p))
        if len(inos):
            fs.assign_ost_many(inos)
        all_inos = vfs.lookup_many(paths)
        per_sub = np.bincount(
            np.arange(self.n_chunks, dtype=np.int64) % self.n_subfiles,
            weights=[self.chunk_nbytes(c) for c in range(self.n_chunks)],
            minlength=self.n_subfiles).astype(np.int64)
        vfs.write_group(all_inos, per_sub)


@dataclass
class FleetReport:
    """Exact accounting of one fleet run."""

    pattern: str
    policy: str
    readers: int
    requests: int
    cache_bytes: int
    prefetch_depth: int
    chunk_bytes: int
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    prefetch_skipped_quota: int = 0
    evictions: int = 0
    bytes_requested: int = 0
    bytes_fetched: int = 0
    elapsed_s: float = 0.0
    agg_throughput_bps: float = 0.0
    mean_latency_s: float = 0.0
    max_latency_s: float = 0.0
    wait_seconds: float = 0.0
    cache_high_water: int = 0
    per_reader_seconds: list = field(default_factory=list)

    @property
    def prefetch_wasted(self) -> int:
        return self.prefetch_issued - self.prefetch_used

    def to_dict(self) -> dict:
        d = asdict(self)
        d["prefetch_wasted"] = self.prefetch_wasted
        return d


class ReaderFleet:
    """Run N seeded readers against one series through a shared cache."""

    def __init__(self, posix, layout: SeriesLayout, node, *,
                 readers: int = 16, pattern: str = "sequential",
                 config: ServingConfig | None = None,
                 requests_per_reader: int = 256, seed: int = 0,
                 analysis_rate: float = ANALYSIS_RATE,
                 pattern_kwargs: dict | None = None):
        if posix.comm is None or posix.comm.size < readers:
            raise ValueError(
                f"fleet of {readers} readers needs a communicator with at "
                f"least that many ranks")
        self.posix = posix
        self.layout = layout
        self.readers = int(readers)
        self.pattern = pattern
        self.cfg = config if config is not None else current_serving_config()
        self.requests_per_reader = int(requests_per_reader)
        self.seed = int(seed)
        self.analysis_rate = float(analysis_rate)
        self.memory_bandwidth = float(node.memory_bandwidth)
        self._account = current_budget().account("serving")
        self.cache = None if self.cfg.policy == "none" else ReadCache(
            self.cfg.cache_bytes, account=self._account,
            max_pinned_per_stream=max(1, self.cfg.prefetch_depth))
        self.prefetcher = make_prefetcher(
            self.cfg.policy, self.cfg.prefetch_depth, layout.n_chunks)
        self._streams = [
            make_pattern(pattern, layout.n_chunks, seed=self.seed,
                         reader_index=r, total_readers=self.readers,
                         **(pattern_kwargs or {})
                         ).requests(self.requests_per_reader)
            for r in range(self.readers)
        ]

    # -- event helpers ----------------------------------------------------

    def _emit(self, kind: str, rank: int, nbytes: int, duration: float,
              start: float) -> None:
        bus = self.posix.trace
        if bus.wants(kind):
            bus.emit(kind, [rank], nbytes=nbytes, duration=duration,
                     start=start, api="SERVING", layer="serving")

    def _note_displacements(self, outcome, now: float, rank: int) -> None:
        for victim in outcome.evicted:
            if victim.pinned_by is not None:
                self.prefetcher.feedback(victim.pinned_by, False)
            self._emit("evict", rank, victim.nbytes, 0.0, now)
        for stream, _key in outcome.expired:
            self.prefetcher.feedback(stream, False)

    # -- the run ----------------------------------------------------------

    def run(self) -> FleetReport:
        posix, layout, cache = self.posix, self.layout, self.cache
        clocks = posix.comm.clocks
        rep = FleetReport(
            pattern=self.pattern, policy=self.cfg.policy,
            readers=self.readers, requests=self.requests_per_reader,
            cache_bytes=self.cfg.cache_bytes,
            prefetch_depth=self.cfg.prefetch_depth,
            chunk_bytes=layout.chunk_bytes)
        fds = [posix.open(0, layout.subfile_path(i))
               for i in range(layout.n_subfiles)]
        # all readers arrive together, after the open metadata phase
        t0 = float(clocks[: self.readers].max())
        clocks[: self.readers] = t0
        #: per-reader background prefetch channel: virtual time each
        #: reader's in-flight fill queue drains
        self._channels = np.full(self.readers, t0)
        prev = [None] * self.readers
        served = [0] * self.readers
        latency_sum = 0.0
        with posix.phase(md_clients=self.readers):
            heap = [(t0, r) for r in range(self.readers)]
            heapq.heapify(heap)
            while heap:
                _, r = heapq.heappop(heap)
                i = served[r]
                chunk = int(self._streams[r][i])
                nbytes = layout.chunk_nbytes(chunk)
                fd = fds[layout.subfile_of(chunk)]
                t = float(clocks[r])
                entry, stream = (cache.lookup(chunk)
                                 if cache is not None else (None, None))
                if entry is not None:
                    wait = max(0.0, entry.ready_at - t)
                    cost = wait + nbytes / self.memory_bandwidth
                    posix.charge(r, cost, "read_hit", nbytes=nbytes,
                                 api="SERVING", layer="serving", start=t)
                    rep.hits += 1
                    rep.wait_seconds += wait
                    if stream is not None:
                        rep.prefetch_used += 1
                        self.prefetcher.feedback(stream, True)
                else:
                    posix.read_synthetic(r, fd, nbytes)
                    cost = float(clocks[r]) - t
                    rep.bytes_fetched += nbytes
                    self._emit("read_miss", r, nbytes, cost, t)
                    rep.misses += 1
                    if cache is not None:
                        outcome = cache.insert(chunk, nbytes,
                                               ready_at=float(clocks[r]))
                        self._note_displacements(outcome, float(clocks[r]), r)
                latency_sum += cost
                rep.max_latency_s = max(rep.max_latency_s, cost)
                rep.bytes_requested += nbytes
                # analysis window (prefetch hides its latency in here)
                posix.charge(r, nbytes / self.analysis_rate)
                self.prefetcher.observe(r, prev[r], chunk)
                prev[r] = chunk
                if cache is not None:
                    self._prefetch(r, chunk, fds, rep)
                served[r] = i + 1
                if served[r] < self.requests_per_reader:
                    heapq.heappush(heap, (float(clocks[r]), r))
        for fd in fds:
            posix.close(0, fd)
        total = self.readers * self.requests_per_reader
        rep.hit_rate = rep.hits / total if total else 0.0
        rep.mean_latency_s = latency_sum / total if total else 0.0
        rep.per_reader_seconds = (clocks[: self.readers] - t0).tolist()
        rep.elapsed_s = float(max(rep.per_reader_seconds, default=0.0))
        rep.agg_throughput_bps = (rep.bytes_requested / rep.elapsed_s
                                  if rep.elapsed_s > 0 else 0.0)
        rep.evictions = cache.evictions if cache is not None else 0
        if cache is not None:
            rep.cache_high_water = cache.peak_bytes
            cache.clear()  # a fleet run is one-shot: release residency
        return rep

    def _prefetch(self, r: int, chunk: int, fds, rep: FleetReport) -> None:
        cache = self.cache
        for pred in self.prefetcher.predict(r, chunk):
            pred = int(pred) % self.layout.n_chunks
            if pred in cache:
                continue
            nbytes = self.layout.chunk_nbytes(pred)
            headroom = self._account.headroom
            if headroom is not None and headroom < nbytes:
                rep.prefetch_skipped_quota += 1
                continue
            start = max(float(self.posix.comm.clocks[r]),
                        float(self._channel_free(r)))
            cost = self.posix.read_scheduled(
                r, fds[self.layout.subfile_of(pred)], nbytes, start_at=start)
            ready = start + cost
            self._set_channel_free(r, ready)
            rep.bytes_fetched += nbytes
            rep.prefetch_issued += 1
            self._emit("prefetch", r, nbytes, cost, start)
            outcome = cache.insert(pred, nbytes, ready_at=ready, pinned_by=r)
            self._note_displacements(
                outcome, float(self.posix.comm.clocks[r]), r)

    # channel bookkeeping is separated so run() stays readable
    def _channel_free(self, r: int) -> float:
        return self._channels[r]

    def _set_channel_free(self, r: int, t: float) -> None:
        self._channels[r] = t

"""DXT — Darshan eXtended Tracing.

Real Darshan's DXT modules (``DXT_POSIX``/``DXT_STDIO``) record one
segment per I/O operation — rank, offset span, and start/end timestamps
— instead of just counters.  The reproduction keeps the same data for
virtual jobs: a :class:`DXTRecorder` subscribed to the trace bus next to
the :class:`~repro.darshan.runtime.DarshanMonitor` turns every
read/write on a file into one :class:`Segment` per rank, with
virtual-clock timestamps, and renders ``darshan-dxt-parser``-style text
(the same lines :func:`repro.trace.export.dxt_dump` prints).

Tracing 25600-rank full-scale runs would produce millions of segments,
so the recorder has a bounded ring buffer (like DXT's own memory cap).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.trace.events import IOEvent
from repro.trace.export import _DXT_OP, _dxt_line
from repro.util.scatter import rank_array


@dataclass(frozen=True)
class Segment:
    """One traced I/O operation."""

    module: str          # "DXT_POSIX" or "DXT_STDIO"
    kind: str            # "write" or "read"
    rank: int
    path: str
    nbytes: int
    start: float         # virtual seconds
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class DXTRecorder:
    """Bounded DXT segment buffer; a trace-bus subscriber.

    Subscribe it beside the Darshan monitor (``bus.subscribe(rec)``, or
    pass it as ``PosixIO``'s ``monitor``).  Each data event that names
    its file becomes one segment per participating rank.
    """

    #: the spine kinds DXT traces
    kinds = frozenset(_DXT_OP)

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.segments: deque[Segment] = deque(maxlen=capacity)
        self.dropped = 0
        self._paths: dict[int, str] = {}

    # -- subscriber protocol ------------------------------------------------

    def register_file(self, ino: int, path: str) -> None:
        self._paths.setdefault(int(ino), path)

    def register_files(self, inos, paths) -> None:
        setdefault = self._paths.setdefault  # first registration wins
        for ino, path in zip(np.asarray(inos).tolist(), paths):
            setdefault(ino, path)

    def on_event(self, event: IOEvent) -> None:
        if event.inos is None:
            return
        ranks = event.ranks
        paths = [self._paths.get(ino, f"<ino {ino}>")
                 for ino in np.broadcast_to(event.inos, ranks.shape).tolist()]
        self.record(f"DXT_{event.api}", _DXT_OP[event.kind], ranks, paths,
                    event.nbytes, event.start, event.end)

    def record(self, module: str, kind: str, ranks, paths, nbytes,
               starts, ends) -> None:
        """Record one (possibly group) operation as segments."""
        ranks = np.atleast_1d(rank_array(ranks))
        nbytes = np.broadcast_to(np.asarray(nbytes), ranks.shape)
        starts = np.broadcast_to(np.asarray(starts, dtype=np.float64),
                                 ranks.shape)
        ends = np.broadcast_to(np.asarray(ends, dtype=np.float64),
                               ranks.shape)
        if isinstance(paths, str):
            paths = [paths] * len(ranks)
        for i in range(len(ranks)):
            if len(self.segments) == self.capacity:
                self.dropped += 1
            self.segments.append(Segment(
                module=module, kind=kind, rank=int(ranks[i]),
                path=paths[i], nbytes=int(nbytes[i]),
                start=float(starts[i]), end=float(ends[i]),
            ))

    # -- queries ------------------------------------------------------------

    def by_rank(self, rank: int) -> list[Segment]:
        return [s for s in self.segments if s.rank == rank]

    def by_path(self, path: str) -> list[Segment]:
        return [s for s in self.segments if s.path == path]

    def busiest_files(self, limit: int = 10) -> list[tuple[str, int]]:
        """(path, total bytes) pairs, largest first."""
        totals: dict[str, int] = {}
        for s in self.segments:
            totals[s.path] = totals.get(s.path, 0) + s.nbytes
        return sorted(totals.items(), key=lambda kv: -kv[1])[:limit]

    def timeline_histogram(self, bins: int = 20) -> np.ndarray:
        """Bytes moved per virtual-time bin — the DXT heatmap row sums."""
        if not self.segments:
            return np.zeros(bins)
        t0 = min(s.start for s in self.segments)
        t1 = max(s.end for s in self.segments)
        span = max(t1 - t0, 1e-12)
        out = np.zeros(bins)
        for s in self.segments:
            mid = (s.start + s.end) / 2
            idx = min(int((mid - t0) / span * bins), bins - 1)
            out[idx] += s.nbytes
        return out

    def heatmap(self, time_bins: int = 20, rank_bins: int = 16) -> str:
        """Text heatmap (ranks × time) of bytes moved — the DXT plot.

        Rows are rank groups, columns virtual-time bins, glyphs encode
        intensity — the textual cousin of darshan-job-summary's heatmap.
        """
        if not self.segments:
            return "(no segments traced)"
        t0 = min(s.start for s in self.segments)
        t1 = max(s.end for s in self.segments)
        span = max(t1 - t0, 1e-12)
        max_rank = max(s.rank for s in self.segments)
        rank_bins = min(rank_bins, max_rank + 1)
        grid = np.zeros((rank_bins, time_bins))
        for s in self.segments:
            r = min(int(s.rank / (max_rank + 1) * rank_bins), rank_bins - 1)
            c = min(int(((s.start + s.end) / 2 - t0) / span * time_bins),
                    time_bins - 1)
            grid[r, c] += s.nbytes
        glyphs = " .:-=+*#%@"
        peak = grid.max() or 1.0
        lines = [f"DXT heatmap: {rank_bins} rank bins x {time_bins} "
                 f"time bins, peak {peak:.0f} B/cell"]
        for r in range(rank_bins):
            row = "".join(
                glyphs[min(int(grid[r, c] / peak * (len(glyphs) - 1) + 0.5),
                           len(glyphs) - 1)]
                for c in range(time_bins))
            lines.append(f"ranks[{r:2d}] |{row}|")
        return "\n".join(lines)

    # -- rendering ------------------------------------------------------------

    def render(self, limit: int | None = None) -> str:
        """``darshan-dxt-parser``-style dump."""
        lines = [
            "# DXT trace (repro synthetic)",
            f"# segments: {len(self.segments)} (dropped: {self.dropped})",
            "# <module> <rank> <op> <path> <bytes> <start(s)> <end(s)>",
        ]
        segs = list(self.segments)
        if limit is not None:
            segs = segs[:limit]
        lines += [_dxt_line(s.module, s.rank, s.kind, s.path, s.nbytes,
                            s.start, s.end) for s in segs]
        return "\n".join(lines)

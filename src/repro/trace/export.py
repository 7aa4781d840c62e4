"""Exporters: one event stream, three human-facing views.

- :func:`chrome_trace` — Chrome ``trace_event`` JSON (load in
  ``chrome://tracing`` / Perfetto): one complete ``"X"`` slice per
  participating rank per event, ``tid`` = rank, ``pid`` = node.
- :func:`dxt_dump` — Darshan DXT-style text segments, matching the
  layout the paper's §V DXT heatmaps are built from.
- :class:`LayerBreakdown` / :func:`layer_breakdown` — streaming
  per-layer/per-kind time and byte totals; the fig. 8 experiment renders
  its per-layer report from this, straight off the event stream.
"""

from __future__ import annotations

import json

import numpy as np

from repro.trace.events import IOEvent, StepBatch

#: Order layers appear in breakdown reports (engine work on top of fs).
_LAYER_ORDER = ("engine", "stream", "mpiio", "stdio", "posix", "mpi",
                "faults")

#: spine kinds DXT traces → the op ``darshan-dxt-parser`` prints.  DXT
#: knows only reads and writes, so an aggregator flush or an index
#: append is a ``write``.  ``publish``/``deliver`` move bytes over the
#: NIC, not to a file, and are not traced.
_DXT_OP = {"write": "write", "read": "read",
           "collective_write": "write", "meta_append": "write"}


def _node_lookup(node_of_rank):
    if node_of_rank is None:
        return lambda rank: 0
    if callable(node_of_rank):
        # int-wrap: lazy maps hand back numpy scalars, which the JSON
        # encoder refuses
        return lambda rank: int(node_of_rank(rank))
    arr = np.asarray(node_of_rank)
    return lambda rank: int(arr[rank])


def _ino_at(ev: IOEvent, i: int):
    """Ino of participant ``i``'s file, honouring per-rank ino arrays.

    A group event over per-rank files carries one ino per rank; a
    shared-file event carries a single ino for everyone.
    """
    if ev.inos is None or not len(ev.inos):
        return None
    return int(ev.inos[i]) if len(ev.inos) == ev.size else int(ev.inos[0])


def _path_at(ev: IOEvent, i: int, paths: dict):
    ino = _ino_at(ev, i)
    return None if ino is None else paths.get(ino)


def chrome_trace(events, node_of_rank=None, paths=None,
                 max_events: int = 100_000) -> dict:
    """Render events as a Chrome ``trace_event`` JSON object (dict).

    ``node_of_rank`` maps rank → node id for the ``pid`` column (array
    or callable; default all ranks on node 0).  ``paths`` optionally
    maps ino → path for slice labels.  Emits at most ``max_events``
    slices; the count of elided slices is recorded in
    ``metadata.dropped_slices`` rather than silently truncated.
    """
    node_of = _node_lookup(node_of_rank)
    paths = paths or {}
    slices: list[dict] = []
    dropped = 0
    for ev in events:
        if len(slices) >= max_events:
            dropped += ev.size
            continue
        base_args = {"bytes_total": ev.total_bytes}
        if ev.scope is not None:
            base_args["scope"] = ev.scope
        if ev.step is not None:
            base_args["step"] = ev.step
        for i in range(ev.size):
            if len(slices) >= max_events:
                dropped += ev.size - i
                break
            rank = int(ev.ranks[i])
            path = _path_at(ev, i, paths)
            args = {**base_args,
                    "bytes": float(ev.nbytes[i]),
                    "ops": float(ev.n_ops[i]),
                    "seq": ev.seq}
            if path is not None:
                args["path"] = path
            slices.append({
                "name": ev.kind,
                "cat": f"{ev.layer}.{ev.api}",
                "ph": "X",
                "ts": float(ev.start[i]) * 1e6,   # virtual µs
                "dur": float(ev.duration[i]) * 1e6,
                "pid": node_of(rank),
                "tid": rank,
                "args": args,
            })
    return {
        "traceEvents": slices,
        "displayTimeUnit": "ms",
        "metadata": {
            "producer": "repro.trace",
            "clock": "virtual-seconds",
            "dropped_slices": dropped,
        },
    }


def chrome_trace_json(events, node_of_rank=None, paths=None,
                      max_events: int = 100_000, indent=None) -> str:
    """:func:`chrome_trace`, serialised to a JSON string."""
    return json.dumps(
        chrome_trace(events, node_of_rank=node_of_rank, paths=paths,
                     max_events=max_events),
        indent=indent)


def _dxt_line(module: str, rank: int, op: str, path: str, nbytes: int,
              start: float, end: float) -> str:
    """One ``darshan-dxt-parser``-style segment line."""
    return f"{module} {rank} {op} {path} {nbytes} {start:.6f} {end:.6f}"


def dxt_dump(events, paths=None, max_lines: int = 100_000) -> str:
    """DXT-style text dump of the data-moving events.

    One :func:`_dxt_line` per (event, rank):
    ``DXT_<API> <rank> <op> <path> <bytes> <start> <end>`` —
    the same shape ``darshan-dxt-parser`` output takes in the paper's
    §V analysis, with virtual seconds for the two timestamps.  Like real
    DXT, only operations on a file are traced: events that name no
    inode are skipped.  :class:`~repro.darshan.dxt.DXTRecorder` renders
    the same lines from the live stream.
    """
    paths = paths or {}
    lines: list[str] = []
    for ev in events:
        op = _DXT_OP.get(ev.kind)
        if op is None or ev.inos is None:
            continue
        end = ev.end
        for i in range(ev.size):
            if len(lines) >= max_lines:
                lines.append(f"# ... truncated at {max_lines} lines")
                return "\n".join(lines)
            ino = _ino_at(ev, i)
            lines.append(_dxt_line(
                f"DXT_{ev.api}", int(ev.ranks[i]), op,
                paths.get(ino, f"<ino {ino}>"), int(ev.nbytes[i]),
                ev.start[i], end[i]))
    return "\n".join(lines)


class LayerBreakdown:
    """Streaming per-(layer, kind) totals — O(1) memory subscriber.

    Attach to a bus for whole-run accounting at any scale, or fold a
    recorded event list after the fact; both give identical totals.
    """

    kinds = None  # every event contributes to the breakdown

    def __init__(self):
        # (layer, kind) -> [seconds, bytes, ops, events]
        self._totals: dict[tuple[str, str], list[float]] = {}

    def _add(self, layer: str, kind: str, seconds: float, nbytes: float,
             n_ops: float) -> None:
        """Add one event's sums to its (layer, kind) cell."""
        cell = self._totals.setdefault((layer, kind), [0.0, 0.0, 0.0, 0])
        cell[0] += seconds
        cell[1] += nbytes
        cell[2] += n_ops
        cell[3] += 1

    def on_event(self, event: IOEvent) -> None:
        self._add(event.layer, event.kind, float(np.sum(event.duration)),
                  float(np.sum(event.nbytes)), float(np.sum(event.n_ops)))

    def on_steps(self, batch: StepBatch) -> None:
        """Fold a step batch: each step's rows add to their cells in
        order, as their events would, with one sum per invariant column
        reused from step to step."""
        sums = []
        for row in batch.rows:
            if row.varying:
                seconds = [float(np.sum(row.column(d)))
                           for d in row.duration]
            else:
                seconds = [float(np.sum(row.column(row.duration)))] \
                    * batch.nsteps
            sums.append((row, seconds,
                         float(np.sum(row.column(row.nbytes))),
                         float(np.sum(row.column(row.n_ops)))))
        for k in range(batch.nsteps):
            for row, seconds, nbytes, n_ops in sums:
                self._add(row.layer, row.kind, seconds[k], nbytes, n_ops)

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        return {
            key: {"seconds": c[0], "bytes": c[1], "ops": c[2],
                  "events": c[3]}
            for key, c in self._totals.items()
        }

    def layer_seconds(self) -> dict[str, float]:
        """Aggregate rank-seconds per layer."""
        out: dict[str, float] = {}
        for (layer, _), c in self._totals.items():
            out[layer] = out.get(layer, 0.0) + c[0]
        return out

    def render(self, title: str = "per-layer I/O time breakdown") -> str:
        """Aligned text report, layers in stack order, kinds by cost."""
        lines = [title, "=" * len(title)]
        layers = sorted(
            {layer for layer, _ in self._totals},
            key=lambda la: (_LAYER_ORDER.index(la)
                            if la in _LAYER_ORDER else 99, la))
        header = (f"{'layer':<8} {'kind':<17} {'rank-seconds':>14} "
                  f"{'bytes':>16} {'ops':>12}")
        lines += [header, "-" * len(header)]
        for layer in layers:
            rows = sorted(
                ((kind, c) for (la, kind), c in self._totals.items()
                 if la == layer),
                key=lambda item: -item[1][0])
            for kind, c in rows:
                lines.append(f"{layer:<8} {kind:<17} {c[0]:>14.6f} "
                             f"{int(c[1]):>16d} {int(c[2]):>12d}")
            sub = sum(c[0] for (la, _), c in self._totals.items()
                      if la == layer)
            lines.append(f"{layer:<8} {'TOTAL':<17} {sub:>14.6f}")
        return "\n".join(lines)


def layer_breakdown(events) -> LayerBreakdown:
    """Fold an event iterable into a fresh :class:`LayerBreakdown`."""
    bd = LayerBreakdown()
    for ev in events:
        bd.on_event(ev)
    return bd


def render_breakdown(events_or_breakdown, title=None) -> str:
    """Convenience: render a breakdown from events or an existing fold."""
    bd = (events_or_breakdown
          if isinstance(events_or_breakdown, LayerBreakdown)
          else layer_breakdown(events_or_breakdown))
    if title is None:
        return bd.render()
    return bd.render(title)

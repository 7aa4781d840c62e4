"""ADIOS2 engine profiling — the ``profiling.json`` transport report.

Setting ``OPENPMD_ADIOS2_HAVE_PROFILING=1`` makes ADIOS2 drop a
``profiling.json`` into the output directory with per-rank transport
timings.  The paper's Fig. 8 reads the *memory copy* times out of this
file and shows them "entirely eliminated" when Blosc compression is on —
because the compressor emits straight into the staging buffer instead of
a staging memcpy.

The reproduction tracks, per rank, microseconds spent in:

* ``memcpy`` — staging copies of uncompressed puts;
* ``compress`` — operator CPU time;
* ``aggregation`` — shuffling chunks to aggregator ranks;
* ``write`` — POSIX write calls issued by aggregators;
* ``meta`` — metadata/index maintenance.
"""

from __future__ import annotations

import json

import numpy as np

from repro.trace.events import IOEvent, StepRow
from repro.util.scatter import as_index, scatter_add

PROFILE_CATEGORIES = ("memcpy", "compress", "aggregation", "write", "meta")

#: spine event kind -> profiling.json category
KIND_TO_CATEGORY = {
    "memcpy": "memcpy",
    "compress": "compress",
    "shuffle": "aggregation",
    "collective_write": "write",
    "meta_append": "meta",
}
_CATEGORY_TO_KIND = {v: k for k, v in KIND_TO_CATEGORY.items()}

#: kinds whose payload counts toward ``bytes_put`` (the staging volume)
_STAGING_KINDS = frozenset({"memcpy", "compress"})


class EngineProfile:
    """Columnar per-rank microsecond counters for one engine.

    Since the ``repro.trace`` refactor this class holds no timing
    arithmetic of its own: every counter is folded from spine events,
    one at a time (:meth:`fold_event`) or a run of flush steps at once
    (:meth:`fold_steps`), through one body (:meth:`_route`).
    """

    def __init__(self, nranks: int, engine_type: str = "BP4",
                 bin_of_rank=None):
        self.nranks = nranks
        self.engine_type = engine_type
        #: optional rank→bin map (e.g. ``comm.node_of_rank``): counters
        #: are then O(bins) resident instead of O(ranks) — the memory
        #: plane's node-granularity profiling for million-rank jobs
        # lazy maps (BlockNodeMap) pass through un-materialised:
        # indexing is all the fold needs
        self.bin_of_rank = bin_of_rank if (
            bin_of_rank is None or hasattr(bin_of_rank, "max")) \
            else np.asarray(bin_of_rank)
        self.nbins = nranks if self.bin_of_rank is None \
            else int(self.bin_of_rank.max()) + 1
        self.us = {c: np.zeros(self.nbins, dtype=np.float64)
                   for c in PROFILE_CATEGORIES}
        self.bytes_put = np.zeros(self.nbins, dtype=np.float64)
        self.steps = 0

    def _route(self, kind: str, ranks, nbytes, times: int):
        """The µs counter and the bins an op of ``kind`` over ``ranks``
        (an array, a range or one rank) adds its microseconds to, None
        for a kind the profile does not count; a staging op first adds
        ``times`` copies of its bytes to ``bytes_put``.  Byte counts are
        whole, so every partial sum is an integer below 2**53 and one
        add of ``times`` copies equals ``times`` adds of one."""
        category = KIND_TO_CATEGORY.get(kind)
        if category is None:
            return None
        if self.bin_of_rank is not None:
            ranks = self.bin_of_rank[as_index(ranks)]
        if kind in _STAGING_KINDS:
            scatter_add(self.bytes_put, ranks,
                        nbytes if times == 1 else nbytes * times)
        return self.us[category], ranks

    def fold_event(self, event: IOEvent) -> None:
        """Fold one engine-plane spine event into the counters; an event
        over a range of ranks adds through slices."""
        ranks = event.rank_range
        cell = self._route(event.kind, event.ranks if ranks is None
                           else ranks, event.nbytes, 1)
        if cell is not None:
            scatter_add(*cell, event.duration * 1e6)

    def fold_steps(self, rows: list[StepRow], nsteps: int) -> None:
        """Fold the engine-plane rows of a step batch: the same adds as
        ``nsteps`` steps of :meth:`fold_event` calls.  The staged bytes
        add once for the run, the µs step by step in step order, with
        each invariant row's ``duration * 1e6`` computed once."""
        adds = []
        for row in rows:
            cell = self._route(row.kind, row.ranks, row.column(row.nbytes),
                               nsteps)
            if cell is None:
                continue
            us = (np.asarray(row.duration, dtype=np.float64) * 1e6
                  if row.varying else row.column(row.duration) * 1e6)
            adds.append((*cell, us, row.varying))
        for k in range(nsteps):
            for out, ranks, us, varying in adds:
                scatter_add(out, ranks, us[k] if varying else us)

    @classmethod
    def from_events(cls, events, nranks: int, engine_type: str = "TRACE",
                    scope: str | None = None) -> "EngineProfile":
        """Rebuild a profile offline from a recorded event stream.

        Applies the same kind filter and scope matching as the live
        :class:`~repro.trace.subscribers.ProfileFold`, so a profile
        derived after the fact is identical to the one folded in-run.
        """
        from repro.trace.subscribers import ProfileFold
        profile = cls(nranks, engine_type)
        fold = ProfileFold(profile, scope=scope)
        for event in events:
            if event.kind in fold.kinds:
                fold.on_event(event)
        return profile

    def add(self, category: str, ranks, seconds) -> None:
        """Accumulate seconds (converted to µs) for one or many ranks."""
        if category not in self.us:
            raise KeyError(f"unknown profile category {category!r}")
        out, bins = self._route(_CATEGORY_TO_KIND[category], ranks, 0.0, 1)
        scatter_add(out, bins, np.asarray(seconds, dtype=np.float64) * 1e6)

    def total_us(self, category: str) -> float:
        return float(self.us[category].sum())

    def mean_us(self, category: str) -> float:
        return float(self.us[category].mean())

    def to_json(self) -> str:
        """Render in the spirit of ADIOS2's profiling.json (rank records)."""
        # summarise instead of dumping 25600 rank dicts: quartiles + totals
        records = {
            "engine": self.engine_type,
            "nranks": self.nranks,
            "steps": self.steps,
            "bytes_put_total": float(self.bytes_put.sum()),
            "transports": [],
        }
        if self.bin_of_rank is not None:
            records["granularity"] = "node"
            records["nbins"] = self.nbins
        for cat in PROFILE_CATEGORIES:
            arr = self.us[cat]
            records["transports"].append({
                "category": cat,
                "total_us": float(arr.sum()),
                "mean_us": float(arr.mean()),
                "max_us": float(arr.max()),
                "p50_us": float(np.percentile(arr, 50)),
                "p95_us": float(np.percentile(arr, 95)),
            })
        return json.dumps(records, indent=2)

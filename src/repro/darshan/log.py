"""Darshan log records: the frozen output of one monitored job.

Real Darshan writes one compressed binary log per job; this module keeps
the same information (job header, per-module per-rank counters, per-file
records) in plain dataclasses and columns with JSON(+gzip) serialisation
so logs can be saved, reloaded and parsed offline — the workflow the
paper uses ("extracting the throughput and amount of data stored by
each file on the file system using Darshan 3.4.2 logs").
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOG_FORMAT_VERSION = 1


@dataclass
class ModuleRecord:
    """Per-rank counters of one module (arrays indexed by rank)."""

    name: str
    counters: dict[str, np.ndarray]

    def total(self, counter: str) -> float:
        return float(self.counters[counter].sum())

    def per_rank(self, counter: str) -> np.ndarray:
        return self.counters[counter]


@dataclass
class FileRecord:
    """Aggregated per-file counters (summed over ranks).

    One row of a :class:`FileTable`, built when the table is iterated
    or indexed.
    """

    path: str
    opens: float = 0.0
    reads: float = 0.0
    writes: float = 0.0
    fsyncs: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    cumulative_time: float = 0.0


#: the per-file counters, in :class:`FileRecord` field order
FILE_FIELDS = ("opens", "reads", "writes", "fsyncs", "bytes_read",
               "bytes_written", "cumulative_time")


class FileTable:
    """The log's per-file counters as columns.

    One path list plus one float64 array per counter, row ``i`` being
    file ``paths[i]``: a 51 200-file job is eight objects, not 51 200.
    Iterating or indexing yields :class:`FileRecord` rows; the counter
    columns are attributes (``table.bytes_written``).
    """

    def __init__(self, paths=(), **columns: np.ndarray):
        self.paths = list(paths)
        n = len(self.paths)
        for f in FILE_FIELDS:
            col = np.asarray(columns.pop(f, np.zeros(n)), dtype=np.float64)
            if col.shape != (n,):
                raise ValueError(
                    f"{f} column has shape {col.shape}, want ({n},)")
            setattr(self, f, col)
        if columns:
            raise TypeError(f"unknown file columns {sorted(columns)}")

    @classmethod
    def from_records(cls, records) -> "FileTable":
        """A table of :class:`FileRecord` rows (or dicts of their fields)."""
        rows = [r if isinstance(r, dict) else vars(r) for r in records]
        return cls([r["path"] for r in rows],
                   **{f: [r.get(f, 0.0) for r in rows] for f in FILE_FIELDS})

    def to_records(self) -> list[dict]:
        """One dict per file, in :class:`FileRecord` field order."""
        keys = ("path", *FILE_FIELDS)
        cols = [getattr(self, f).tolist() for f in FILE_FIELDS]
        return [dict(zip(keys, row)) for row in zip(self.paths, *cols)]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> FileRecord:
        return FileRecord(self.paths[i],
                          *(float(getattr(self, f)[i]) for f in FILE_FIELDS))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FileTable):
            return NotImplemented
        return self.paths == other.paths and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in FILE_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FileTable({len(self)} files)"


@dataclass
class DarshanLog:
    """One job's frozen instrumentation record."""

    jobid: int
    exe: str
    nprocs: int
    runtime_seconds: float
    machine: str = ""
    config: str = ""
    modules: dict[str, ModuleRecord] = field(default_factory=dict)
    files: FileTable = field(default_factory=FileTable)
    format_version: int = LOG_FORMAT_VERSION
    #: counter-axis resolution: "rank" (real Darshan) or "node" (the
    #: memory plane's O(nodes) binning); ``nbins`` is the counter
    #: array length (== nprocs at rank granularity)
    granularity: str = "rank"
    nbins: int | None = None

    # -- convenience totals --------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum a fully-qualified counter (e.g. ``POSIX_BYTES_WRITTEN``)."""
        for mod in self.modules.values():
            if name in mod.counters:
                return mod.total(name)
        raise KeyError(name)

    def counter_per_rank(self, name: str) -> np.ndarray:
        for mod in self.modules.values():
            if name in mod.counters:
                return mod.per_rank(name)
        raise KeyError(name)

    def total_bytes_written(self) -> float:
        return sum(
            mod.total(f"{mod.name}_BYTES_WRITTEN") for mod in self.modules.values()
        )

    def total_bytes_read(self) -> float:
        return sum(
            mod.total(f"{mod.name}_BYTES_READ") for mod in self.modules.values()
        )

    def per_rank_time(self, category: str) -> np.ndarray:
        """Per-bin time for ``F_READ_TIME``/``F_WRITE_TIME``/``F_META_TIME``.

        One entry per rank for rank-granularity logs, per node for
        node-binned ones.
        """
        out = np.zeros(self.nbins or self.nprocs)
        for mod in self.modules.values():
            out += mod.counters[f"{mod.name}_{category}"]
        return out

    # -- (de)serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "jobid": self.jobid,
            "exe": self.exe,
            "nprocs": self.nprocs,
            "runtime_seconds": self.runtime_seconds,
            "machine": self.machine,
            "config": self.config,
            "granularity": self.granularity,
            "nbins": self.nbins,
            "modules": {
                name: {c: arr.tolist() for c, arr in mod.counters.items()}
                for name, mod in self.modules.items()
            },
            "files": self.files.to_records(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DarshanLog":
        if d.get("format_version") != LOG_FORMAT_VERSION:
            raise ValueError(
                f"unsupported log format version {d.get('format_version')!r}"
            )
        modules = {
            name: ModuleRecord(
                name=name,
                counters={c: np.asarray(v, dtype=np.float64) for c, v in mod.items()},
            )
            for name, mod in d["modules"].items()
        }
        files = FileTable.from_records(d["files"])
        return cls(
            jobid=d["jobid"],
            exe=d["exe"],
            nprocs=d["nprocs"],
            runtime_seconds=d["runtime_seconds"],
            machine=d.get("machine", ""),
            config=d.get("config", ""),
            modules=modules,
            files=files,
            granularity=d.get("granularity", "rank"),
            nbins=d.get("nbins"),
        )

    def save(self, path: str | Path) -> None:
        """Write a gzipped JSON log (``.darshan.json.gz`` by convention)."""
        raw = json.dumps(self.to_dict()).encode()
        with gzip.open(path, "wb") as fh:
            fh.write(raw)

    @classmethod
    def load(cls, path: str | Path) -> "DarshanLog":
        with gzip.open(path, "rb") as fh:
            return cls.from_dict(json.loads(fh.read().decode()))

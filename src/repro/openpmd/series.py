"""The openPMD Series: root object of an output hierarchy.

"…a vital 'Series' object acting as the root of the openPMD output,
extending across all data for all iterations" (§III-A).  A series maps
iterations onto ADIOS2 engine steps (group-based-with-steps encoding, the
paper's choice) or onto one engine per iteration (file-based encoding),
and owns the attribute schema of the openPMD standard.

Write path (the step-by-step procedure of §III-B):

1. construct the Series with path, access mode, communicator and the
   TOML options or parsed ``SeriesOptions`` (the engine knobs go to the
   engine);
2. open an iteration (``series.iterations[i]``);
3. ``storeChunk`` per rank on record components (local vectors appended
   to global vectors);
4. ``iteration.close()`` flushes everything in a single action;
5. ``series.close()`` when done.

Iteration 0 can be closed repeatedly — each close *overwrites* the
on-disk extents in place (checkpoint semantics: "iteration 0 is chosen
to record data that is periodically overwritten").
"""

from __future__ import annotations

import enum
import re
from typing import Any, Iterator, Mapping

import numpy as np

from repro.adios2 import engine_for_path
from repro.adios2.bp4 import BP4Engine
from repro.adios2.bp5 import BP5Engine
from repro.adios2.engine import Engine
from repro.fs.posix import PosixIO
from repro.mpi.comm import VirtualComm
from repro.openpmd.config import SeriesOptions, parse_options
from repro.openpmd.mesh import Mesh
from repro.openpmd.particles import ParticleSpecies
from repro.openpmd.record import SCALAR, Record, RecordComponent

OPENPMD_VERSION = "1.1.0"
BASE_PATH = "/data/%T/"


class Access(enum.Enum):
    """openPMD-api access modes (the subset BIT1 uses)."""

    READ_ONLY = "read_only"
    CREATE = "create"
    APPEND = "append"


class Iteration:
    """One iteration: meshes + particles + time metadata."""

    def __init__(self, series: "Series", index: int):
        #: the owning series; None once it is closed
        self.series: Series | None = series
        self.index = index
        self.meshes = _Container(lambda name: Mesh(name))
        self.particles = _Container(lambda name: ParticleSpecies(name))
        self.attributes: dict[str, Any] = {"time": 0.0, "dt": 1.0,
                                           "timeUnitSI": 1.0}
        self._closed = False

    def set_time(self, time: float, dt: float, time_unit_si: float = 1.0) -> None:
        self.attributes.update(time=float(time), dt=float(dt),
                               timeUnitSI=float(time_unit_si))

    def close(self) -> int:
        """Flush this iteration's staged data; returns bytes flushed.

        "Once data accumulation is complete, the accumulated data is
        flushed to disk in a single action for optimal I/O efficiency."
        Closing the same iteration again after storing fresh chunks
        overwrites the previous contents on disk.
        """
        if self.series is None:
            raise RuntimeError("series is closed")
        flushed = self.series._flush_iteration(self)
        self._closed = True
        return flushed

    # openPMD-api compatibility aliases ------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def reopen(self) -> "Iteration":
        """Stage new data into an already-closed iteration (checkpoints)."""
        self._closed = False
        return self


class _Container(dict):
    """dict with on-demand construction (openPMD-api container semantics)."""

    def __init__(self, factory):
        super().__init__()
        self._factory = factory

    def __missing__(self, key: str):
        value = self._factory(key)
        self[key] = value
        return value


class _IterationsProxy(dict):
    """``series.iterations[i]`` accessor with lazy creation."""

    def __init__(self, series: "Series"):
        super().__init__()
        self._series = series

    def __getitem__(self, index: int) -> Iteration:
        if self._series is None:
            raise RuntimeError("series is closed")
        return super().__getitem__(index)

    def __missing__(self, index: int) -> Iteration:
        it = self._series._make_iteration(int(index))
        self[int(index)] = it
        return it


class Series:
    """Root of an openPMD output (see module docstring)."""

    def __init__(self, posix: PosixIO, comm: VirtualComm, path: str,
                 access: Access = Access.CREATE,
                 options: str | Mapping[str, Any] | SeriesOptions
                 | None = None,
                 env: Mapping[str, str] | None = None):
        self.posix = posix
        self.comm = comm
        self.path = path
        self.access = access
        # env overrides apply while parsing TOML or dict options
        self.options: SeriesOptions = (
            options if isinstance(options, SeriesOptions)
            else parse_options(options, env))
        self.iterations = _IterationsProxy(self)
        self.attributes: dict[str, Any] = {
            "openPMD": OPENPMD_VERSION,
            "openPMDextension": 0,
            "basePath": BASE_PATH,
            "meshesPath": "meshes/",
            "particlesPath": "particles/",
            "iterationEncoding": self.options.iteration_encoding,
            "iterationFormat": "%T",
            "software": "repro-bit1",
        }
        self._engines: dict[int | None, Engine] = {}
        self._read_engine: Engine | None = None
        self._closed = False
        self._bytes_flushed = 0
        if access == Access.READ_ONLY:
            self._load_index()

    # -- engine plumbing ----------------------------------------------------

    @property
    def file_based(self) -> bool:
        return (self.options.iteration_encoding == "file_based"
                or "%T" in self.path)

    def _engine_path(self, iteration: int | None) -> str:
        if self.file_based:
            if "%T" not in self.path:
                raise ValueError(
                    "file_based encoding requires a %T pattern in the path"
                )
            return self.path.replace("%T", str(iteration))
        return self.path

    def _engine_for(self, iteration: int | None, mode: str):
        key = iteration if self.file_based else None
        eng = self._engines.get(key)
        if eng is None:
            path = self._engine_path(iteration)
            cls = self._engine_class(path)
            eng = cls(self.posix, self.comm, path, mode, self.options.engine)
            self._engines[key] = eng
        return eng

    def _engine_class(self, path: str):
        # "The file's extension dictates the engine used by openPMD for
        # data storage" (§III-B) — the extension wins over the TOML type.
        if re.search(r"\.bp\d?$", path):
            return engine_for_path(path)
        if path.endswith(".json"):
            from repro.openpmd.json_backend import JSONEngine

            return JSONEngine
        if path.endswith(".h5"):
            from repro.openpmd.hdf5_backend import HDF5Engine

            return HDF5Engine
        explicit = {"bp4": BP4Engine, "bp5": BP5Engine}.get(
            self.options.engine_type)
        if explicit is not None:
            return explicit
        return engine_for_path(path)  # raises with a helpful message

    # -- iteration lifecycle ----------------------------------------------------

    def _make_iteration(self, index: int) -> Iteration:
        if self.access == Access.READ_ONLY:
            raise PermissionError("series opened read-only")
        return Iteration(self, index)

    def write_iterations(self) -> Iterator[tuple[int, Iteration]]:  # pragma: no cover
        """openPMD-api streaming-style accessor (alias over the proxy)."""
        yield from self.iterations.items()

    def _iter_components(self, it: Iteration):
        """(variable_path, record, component) triples of one iteration."""
        base = f"/data/{it.index}"
        for mesh_name, mesh in it.meshes.items():
            for comp_name, comp in mesh.items():
                suffix = "" if comp_name == SCALAR else f"/{comp_name}"
                yield f"{base}/meshes/{mesh_name}{suffix}", mesh, comp
        for sp_name, species in it.particles.items():
            for rec_name, rec in species.items():
                for comp_name, comp in rec.items():
                    suffix = "" if comp_name == SCALAR else f"/{comp_name}"
                    yield (f"{base}/particles/{sp_name}/{rec_name}{suffix}",
                           rec, comp)

    def _flush_iteration(self, it: Iteration) -> int:
        engine = self._engine_for(it.index, "w" if not self._engines else "a")
        flushed = self._stage(engine, it)
        engine.end_step(overwrite_key=f"iteration{it.index}")
        self._bytes_flushed += flushed
        return flushed

    def _stage(self, engine: Engine, it: Iteration) -> int:
        """Open an engine step holding the iteration's staged data;
        returns its bytes."""
        engine.begin_step()
        flushed = 0
        for path, record, comp in self._iter_components(it):
            if comp.dataset is None:
                continue
            var = engine.declare_variable(
                path, comp.dataset.adios_dtype, comp.dataset.extent,
                entropy=comp.entropy,
            )
            for chunk in comp.staged:
                var.put_chunk(chunk.rank, chunk.offset, chunk.extent,
                              chunk.payload)
                flushed += chunk.payload.nbytes
            for ranks, nbytes in comp.staged_groups:
                engine.put_group(path, ranks, nbytes, entropy=comp.entropy)
                flushed += int(nbytes.sum())
            comp.clear_staged()
        return flushed

    def _span_signature(self, it: Iteration) -> tuple | None:
        """The ``(SplitValues, entropy)`` of every span the iteration
        stages, in put order; None when it stages a chunk or a group
        over a rank array."""
        spans = []
        for _path, _record, comp in self._iter_components(it):
            if comp.dataset is None:
                continue
            if comp.staged:
                return None
            for ranks, nbytes in comp.staged_groups:
                if ranks is not None:
                    return None
                spans.append((nbytes, comp.entropy))
        return tuple(spans)

    def close_iterations(self, its: list[Iteration], trace_steps) -> int:
        """Close staged iterations in order, iteration ``k`` under trace
        step ``trace_steps[k]``, as ``it.close()`` one by one would;
        returns the bytes flushed.

        Iterations that all stage the same spans and nothing else reach
        the engine as one declaration with one overwrite key each
        (:meth:`~repro.adios2.engine.Engine.end_steps`), which a BP
        engine flushes in one pass: the step lane.  Otherwise, and when
        the engine declines the run, they close one by one.
        """
        if self._closed:
            raise RuntimeError("series is closed")
        its, trace_steps = list(its), list(trace_steps)
        if len(its) != len(trace_steps):
            raise ValueError("one trace step per iteration required")
        # an iteration listed twice stages nothing the second time
        if (len(its) > 1 and not self.file_based
                and len({id(it) for it in its}) == len(its)):
            spans = self._span_signature(its[0])
            if spans is not None and all(
                    self._span_signature(it) == spans for it in its[1:]):
                return self._close_run(its, trace_steps)
        return self._close_each(its, trace_steps)

    def _close_each(self, its: list[Iteration], trace_steps) -> int:
        bus = self.posix.trace
        total = 0
        for it, step in zip(its, trace_steps):
            with bus.step(step):
                total += it.close()
        return total

    def _close_run(self, its: list[Iteration], trace_steps) -> int:
        """Stage the first iteration and hand the engine every key."""
        head = its[0]
        keys = [f"iteration{it.index}" for it in its]
        with self.posix.trace.step(trace_steps[0]):
            engine = self._engine_for(head.index,
                                      "w" if not self._engines else "a")
            total = self._stage(engine, head)
            batched = engine.end_steps(keys, trace_steps)
            if not batched:
                engine.end_step(overwrite_key=keys[0])
        self._bytes_flushed += total
        head._closed = True
        if not batched:
            return total + self._close_each(its[1:], trace_steps[1:])
        for it in its[1:]:
            # flushed as the head's declaration: drop the staged spans
            flushed = sum(nbytes.sum()
                          for nbytes, _entropy in self._span_signature(it))
            for _path, _record, comp in self._iter_components(it):
                comp.clear_staged()
            self._bytes_flushed += flushed
            it._closed = True
            total += flushed
        return total

    def flush(self) -> int:
        """Flush every open iteration (openPMD's ``series.flush()``)."""
        total = 0
        for it in self.iterations.values():
            if not it.closed:
                total += it.close()
                it._closed = False  # flush() keeps the iteration open
        return total

    # -- read side ------------------------------------------------------------------

    def _load_index(self) -> None:
        self._read_engine = self._engine_for(None, "r")
        # adopt the attributes the writing series stored on disk
        for name, value in self._read_engine.attributes.items():
            if not name.startswith("/data/"):
                self.attributes[name] = value

    def attribute(self, name: str, default: Any = None) -> Any:
        """One stored attribute by name (read side: as written to disk).

        Unlike the ``attributes`` dict — which holds only series-level
        attributes — this accessor also reaches the per-iteration
        attributes the writer defined (``/data/<i>/<key>``), so readers
        need not dig into the private read engine.
        """
        if self._read_engine is not None:
            stored = self._read_engine.attributes
            if name in stored:
                return stored[name]
        return self.attributes.get(name, default)

    def read_iterations(self) -> list[int]:
        """Iteration indices present in a read-only series."""
        pattern = re.compile(r"^/data/(\d+)/")
        out: set[int] = set()
        for name in self._read_engine.available_variables():
            m = pattern.match(name)
            if m:
                out.add(int(m.group(1)))
        return sorted(out)

    @staticmethod
    def mesh_path(iteration: int, mesh: str,
                  component: str | None = None) -> str:
        suffix = "" if component is None else f"/{component}"
        return f"/data/{iteration}/meshes/{mesh}{suffix}"

    @staticmethod
    def particles_path(iteration: int, species: str, record: str,
                       component: str | None = None) -> str:
        suffix = "" if component is None else f"/{component}"
        return f"/data/{iteration}/particles/{species}/{record}{suffix}"

    def load(self, variable_path: str) -> np.ndarray:
        """Read a full variable back (functional mode)."""
        if self.access != Access.READ_ONLY:
            raise PermissionError("load() requires READ_ONLY access")
        return self._read_engine.get(variable_path)

    def variable_chunks(self, variable_path: str) -> list:
        """The stored chunk entries of one variable (latest version).

        The chunk-granular request surface: each entry carries its step
        key, subfile, offset and byte counts, so a caching reader can
        key, fetch and bill individual chunks instead of whole
        variables (see :mod:`repro.serving.reader`).
        """
        if self.access != Access.READ_ONLY:
            raise PermissionError("variable_chunks() requires READ_ONLY "
                                  "access")
        return self._read_engine.chunk_entries(variable_path)

    def load_chunk(self, variable_path: str, index: int,
                   rank: int = 0) -> np.ndarray:
        """Read one chunk of a variable (see :meth:`variable_chunks`)."""
        e = self.variable_chunks(variable_path)[index]
        return self._read_engine.read_chunk(e, rank)

    def load_mesh(self, iteration: int, mesh: str,
                  component: str | None = None) -> np.ndarray:
        return self.load(self.mesh_path(iteration, mesh, component))

    def load_particles(self, iteration: int, species: str, record: str,
                       component: str | None = None) -> np.ndarray:
        return self.load(self.particles_path(iteration, species, record,
                                             component))

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def engine(self):
        """The live engine (group-based encodings only; for inspection)."""
        return self._engines.get(None) or self._read_engine

    @property
    def bytes_flushed(self) -> int:
        return self._bytes_flushed

    def abandon(self) -> None:
        """Drop the series as a crashed job would: no flush, no close I/O.

        Engines release their descriptors without metadata cost; staged
        but unflushed iteration data is lost, flushed steps stay on disk
        exactly as the crash left them.
        """
        if self._closed:
            return
        for eng in self._engines.values():
            eng.abandon()
        self._release()

    def handle_rank_failure(self, dead_ranks) -> None:
        """Forward an aggregator-rank failure to every live engine."""
        for eng in self._engines.values():
            eng.handle_rank_failure(dead_ranks)

    def close(self) -> None:
        """"If no further iterations are needed, the series is closed."""
        if self._closed:
            return
        for it in self.iterations.values():
            if not it.closed and any(
                c.staged or c.staged_groups
                for _p, _r, c in self._iter_components(it)
            ):
                it.close()
        for eng in self._engines.values():
            if self.access != Access.READ_ONLY:
                for name, value in self.attributes.items():
                    eng.define_attribute(name, value)
                for it in self.iterations.values():
                    for key, value in it.attributes.items():
                        eng.define_attribute(
                            f"/data/{it.index}/{key}", value)
            eng.close()
        self._release()

    def _release(self) -> None:
        """Mark the series closed and drop its iterations' back-references.

        A closed series is then no reference cycle: dropping the last
        reference frees its engines, and through them the run's clocks
        and I/O state, without waiting for the cyclic collector.
        """
        self._closed = True
        self.iterations._series = None
        for it in self.iterations.values():
            it.series = None

    def __enter__(self) -> "Series":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""HDF5-like backend: one hierarchical shared file via collective I/O.

openPMD "support[s] diverse backends, including HDF5, ADIOS1, ADIOS2 and
JSON" (§II-B), and the paper's choice of ADIOS2/BP4 over HDF5 is a
performance decision: parallel HDF5 writes one *shared* file through
MPI-IO, so every rank's chunk lands in the same object and parallelism
is bounded by the file's striping and extent-lock behaviour — exactly
the "IOR shared" regime of Fig. 4 — whereas BP4's subfiling sidesteps
the locks entirely.

This engine reproduces that profile:

* a single ``<name>.h5`` file holds all datasets (hierarchical paths);
* writes are collective shared-file phases costed like IOR-shared
  (stripe-bounded parallelism × a lock-efficiency factor);
* a self-describing footer (JSON index) makes functional-mode round
  trips work, so the same openPMD Series code reads it back.

The point is the *comparison*: the backend bench shows why the paper
integrates ADIOS2 rather than parallel HDF5 for BIT1's output pattern.
"""

from __future__ import annotations

import json

import numpy as np

from repro.adios2.engine import EngineConfig, _numpy_dtype
from repro.adios2.profiling import EngineProfile
from repro.adios2.variables import Variable
from repro.fs.lustre import LustreFilesystem
from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.posix import PosixIO
from repro.ior.benchmark import SHARED_FILE_LOCK_EFFICIENCY
from repro.mem import SplitValues
from repro.mpi.comm import VirtualComm
from repro.trace.subscribers import ProfileFold
from repro.util.scatter import scatter_add

#: HDF5's metadata is heavier per object than BP's index entries
H5_SUPERBLOCK = 2048
H5_OBJECT_HEADER = 544


class HDF5Engine:
    """Shared-file engine with the engine protocol the Series expects."""

    engine_type = "HDF5"
    extension = ".h5"
    default_buffer_chunk = None

    def __init__(self, posix: PosixIO, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None):
        if mode not in ("w", "r", "a"):
            raise ValueError(f"unsupported engine mode {mode!r}")
        self.posix = posix
        self.comm = comm
        self.path = path if path.endswith(".h5") else path + ".h5"
        self.mode = mode
        self.config = config or EngineConfig()
        if self.config.compressor:
            raise NotImplementedError(
                "parallel HDF5 cannot apply filters to collectively-written "
                "datasets (the classic PHDF5 limitation); use a BP engine "
                "for compressed output"
            )
        self.profile = EngineProfile(comm.size, self.engine_type)
        self._trace_scope = f"{self.engine_type}:{self.path}"
        self._fold = ProfileFold(self.profile, scope=self._trace_scope)
        posix.trace.subscribe(self._fold)
        self._index: list[dict] = []
        self._attributes: dict[str, object] = {}
        self._slots: dict[str, tuple[int, int]] = {}
        self._tail = H5_SUPERBLOCK
        self._step = -1
        self._in_step = False
        self._cur_vars: dict[str, Variable] = {}
        self._cur_bulk: list[tuple[str, np.ndarray, np.ndarray, str]] = []
        self._closed = False
        if mode in ("w", "a"):
            self._fd = posix.open(0, self.path, create=True,
                                  truncate=(mode == "w"))
            if mode == "w":
                with posix.phase(writers=1):
                    posix.write(0, self._fd,
                                SyntheticPayload(H5_SUPERBLOCK, "metadata"))
        else:
            self._open_for_read()

    # -- write protocol -------------------------------------------------------

    def begin_step(self) -> int:
        self._check_writable()
        if self._in_step:
            raise RuntimeError("previous step not ended")
        self._step += 1
        self._in_step = True
        self._cur_vars = {}
        self._cur_bulk = []
        return self._step

    def define_attribute(self, name: str, value) -> None:
        self._attributes[name] = value

    @property
    def attributes(self) -> dict:
        return dict(self._attributes)

    def declare_variable(self, name: str, dtype: str,
                         global_shape: tuple[int, ...],
                         entropy: str = "particle_float32") -> Variable:
        self._check_in_step()
        var = self._cur_vars.get(name)
        if var is None:
            var = Variable(name=name, dtype=dtype,
                           global_shape=tuple(global_shape), entropy=entropy)
            self._cur_vars[name] = var
        return var

    def put(self, name: str, dtype: str, global_shape, rank, offset,
            extent, data, entropy: str = "particle_float32"):
        var = self.declare_variable(name, dtype, global_shape, entropy)
        return var.put_chunk(rank, tuple(offset), tuple(extent), data)

    def put_group(self, name: str, ranks: np.ndarray | None, nbytes_each,
                  entropy: str = "particle_float32") -> None:
        self._check_in_step()
        if ranks is None:
            # span descriptor covering every rank (memory-plane staging)
            if not isinstance(nbytes_each, SplitValues) \
                    or len(nbytes_each) != self.comm.size:
                raise TypeError(
                    "ranks=None requires a SplitValues spanning the job")
            self._cur_bulk.append((name, None, nbytes_each, entropy))
            return
        ranks = np.asarray(ranks)
        nbytes = np.broadcast_to(
            np.asarray(nbytes_each, dtype=np.int64), ranks.shape).copy()
        self._cur_bulk.append((name, ranks, nbytes, entropy))

    def end_step(self, overwrite_key: str | None = None) -> None:
        """Collective shared-file write of every staged dataset."""
        self._check_in_step()
        n = self.comm.size
        staged = np.zeros(n)
        for var in self._cur_vars.values():
            staged += var.per_rank_bytes(n)
        for _name, ranks, nbytes, _e in self._cur_bulk:
            if ranks is None:
                staged += nbytes.slice(0, n).astype(np.float64)
            else:
                scatter_add(staged, ranks, nbytes.astype(np.float64))
        total = int(staged.sum())
        per_var_meta = (len(self._cur_vars) + len(self._cur_bulk)) \
            * H5_OBJECT_HEADER

        offset = self._allocate(overwrite_key, total + per_var_meta)
        self._lay_out(offset)
        # shared-file collective write cost (the IOR-shared profile)
        fs = self.posix.fs
        ino = self.posix.ino_of(self._fd)
        if isinstance(fs, LustreFilesystem):
            streams = max(int(fs.vfs.cols.stripe_count[ino]), 1)
        else:
            streams = 1
        rate = float(fs.perf.aggregate_write_rate(streams, streams))
        rate *= SHARED_FILE_LOCK_EFFICIENCY
        writers = max(int((staged > 0).sum()), 1)
        costs = staged / (rate / writers) * fs.perf.noise(len(staged))
        ranks = np.arange(n)
        with self.posix.trace.scope(self._trace_scope):
            # one collective_write event feeds both Darshan (POSIX
            # module) and this engine's profile fold (scope match)
            self.posix.charge(ranks, costs, "collective_write",
                              nbytes=staged, inos=ino)
            # collective metadata: every rank participates in the H5
            # object creation handshake
            self.posix.meta_group(ranks, "stat")
        self._in_step = False
        self.comm.barrier()

    def _allocate(self, key: str | None, nbytes: int) -> int:
        if key is not None and key in self._slots:
            off, reserved = self._slots[key]
            if nbytes <= reserved:
                return off
        off = self._tail
        self._tail += nbytes
        if key is not None:
            self._slots[key] = (off, nbytes)
        return off

    def _lay_out(self, offset: int) -> None:
        """Write real chunk bytes and index entries at ``offset``."""
        vfs = self.posix.fs.vfs
        ino = self.posix.ino_of(self._fd)
        cursor = offset
        step_key = f"step{self._step}"
        for name in sorted(self._cur_vars):
            var = self._cur_vars[name]
            for chunk in var.chunks:
                if isinstance(chunk.payload, RealPayload):
                    vfs.write_content(ino, cursor, chunk.payload.tobytes())
                self._index.append({
                    "step_key": step_key, "var": name, "dtype": var.dtype,
                    "rank": chunk.rank, "offset": cursor,
                    "nbytes": chunk.nbytes,
                    "global_shape": list(var.global_shape),
                    "chunk_offset": list(chunk.offset),
                    "chunk_extent": list(chunk.extent),
                })
                cursor += chunk.nbytes
        # synthetic bulk data only moves the size watermark
        for _name, _ranks, nbytes, _e in self._cur_bulk:
            cursor += int(nbytes.sum())
        if cursor > vfs.size_of(ino):
            vfs.cols.size[ino] = cursor

    # -- read protocol -----------------------------------------------------------

    def _open_for_read(self) -> None:
        self._fd = self.posix.open(0, self.path)
        ino = self.posix.ino_of(self._fd)
        size = self.posix.fs.vfs.size_of(ino)
        blob = self.posix.read(0, self._fd, size)
        footer_at = blob.rfind(b"\nH5FOOTER:")
        if footer_at < 0:
            raise ValueError(f"{self.path} has no readable footer "
                             "(synthetic-only file?)")
        doc = json.loads(blob[footer_at + len(b"\nH5FOOTER:"):].decode())
        self._index = doc["index"]
        self._attributes = doc.get("attributes", {})

    def available_variables(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for e in self._index:
            out.setdefault(e["var"], [])
            if e["step_key"] not in out[e["var"]]:
                out[e["var"]].append(e["step_key"])
        return out

    def get(self, name: str, step_key: str | None = None,
            rank: int = 0) -> np.ndarray:
        entries = [e for e in self._index if e["var"] == name]
        if step_key is not None:
            entries = [e for e in entries if e["step_key"] == step_key]
        if not entries:
            raise KeyError(name)
        last = entries[-1]["step_key"]
        entries = [e for e in entries if e["step_key"] == last]
        dtype = _numpy_dtype(entries[0]["dtype"])
        out = np.zeros(tuple(entries[0]["global_shape"]), dtype=dtype)
        vfs = self.posix.fs.vfs
        ino = self.posix.ino_of(self._fd)
        for e in entries:
            raw = vfs.read(ino, e["offset"], e["nbytes"])
            arr = np.frombuffer(raw, dtype=dtype).reshape(e["chunk_extent"])
            sel = tuple(slice(o, o + x) for o, x in
                        zip(e["chunk_offset"], e["chunk_extent"]))
            out[sel] = arr
        return out

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self._in_step:
            raise RuntimeError("cannot close an engine mid-step")
        if self.mode in ("w", "a"):
            footer = ("\nH5FOOTER:" + json.dumps({
                "index": self._index,
                "attributes": _jsonable(self._attributes),
            })).encode()
            vfs = self.posix.fs.vfs
            ino = self.posix.ino_of(self._fd)
            with self.posix.phase(writers=1):
                self.posix.write(0, self._fd,
                                 RealPayload(footer, "metadata"),
                                 offset=vfs.size_of(ino))
        self.posix.close(0, self._fd)
        self.posix.trace.unsubscribe(self._fold)
        self._closed = True

    def _check_writable(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.mode == "r":
            raise RuntimeError("engine opened read-only")

    def _check_in_step(self) -> None:
        self._check_writable()
        if not self._in_step:
            raise RuntimeError("call begin_step() first")


def _jsonable(attrs: dict) -> dict:
    out = {}
    for k, v in attrs.items():
        try:
            json.dumps(v)
            out[k] = v
        except TypeError:
            out[k] = repr(v)
    return out

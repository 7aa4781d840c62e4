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

from repro.adios2.engine import Engine, EngineConfig
from repro.adios2.variables import numpy_dtype
from repro.fs.lustre import LustreFilesystem
from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.posix import PosixIO
from repro.ior.benchmark import SHARED_FILE_LOCK_EFFICIENCY
from repro.mpi.comm import VirtualComm

#: HDF5's metadata is heavier per object than BP's index entries
H5_SUPERBLOCK = 2048
H5_OBJECT_HEADER = 544


class HDF5Engine(Engine):
    """Shared-file engine with the engine protocol the Series expects."""

    engine_type = "HDF5"
    extension = ".h5"

    def __init__(self, posix: PosixIO, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None):
        if config is not None and config.compressor:
            raise NotImplementedError(
                "parallel HDF5 cannot apply filters to collectively-written "
                "datasets (the classic PHDF5 limitation); use a BP engine "
                "for compressed output"
            )
        super().__init__(posix, comm, path, mode, config)
        self._index: list[dict] = []
        self._slots: dict[str, tuple[int, int]] = {}
        self._tail = H5_SUPERBLOCK
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

    def end_step(self, overwrite_key: str | None = None) -> None:
        """Collective shared-file write of every staged dataset."""
        self._check_in_step()
        n = self.comm.size
        staged = self._staged_bytes()
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
        self._adopt_attributes(doc.get("attributes", {}))

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
        dtype = numpy_dtype(entries[0]["dtype"])
        out = np.zeros(tuple(entries[0]["global_shape"]), dtype=dtype)
        vfs = self.posix.fs.vfs
        ino = self.posix.ino_of(self._fd)
        for e in entries:
            raw = vfs.read(ino, e["offset"], e["nbytes"])
            # charged like a BP chunk read (BPEngineBase.read_chunk)
            cost = float(self.posix.fs.perf.read_op_cost(e["nbytes"]))
            self.posix.charge(rank, cost, "read", nbytes=e["nbytes"],
                              inos=ino)
            arr = np.frombuffer(raw, dtype=dtype).reshape(e["chunk_extent"])
            sel = tuple(slice(o, o + x) for o, x in
                        zip(e["chunk_offset"], e["chunk_extent"]))
            out[sel] = arr
        return out

    # -- lifecycle -----------------------------------------------------------------

    def _descriptors(self) -> list:
        return [self._fd]

    def _finish(self) -> None:
        if self.mode in ("w", "a"):
            footer = ("\nH5FOOTER:" + json.dumps({
                "index": self._index,
                "attributes": self._attributes_doc(),
            })).encode()
            vfs = self.posix.fs.vfs
            ino = self.posix.ino_of(self._fd)
            with self.posix.phase(writers=1):
                self.posix.write(0, self._fd,
                                 RealPayload(footer, "metadata"),
                                 offset=vfs.size_of(ino))
        self.posix.close(0, self._fd)

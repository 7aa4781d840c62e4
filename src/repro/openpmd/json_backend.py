"""JSON backend for openPMD series (serial, functional mode only).

openPMD supports "HDF5, ADIOS1, ADIOS2 and JSON" backends (§II-B).  The
JSON backend here is the debugging/portability option: a single human-
readable file, no aggregation, no steps — exactly like openPMD-api's
JSON backend it is not meant for performance, and it refuses synthetic
payloads.
"""

from __future__ import annotations

import json

import numpy as np

from repro.adios2.engine import EngineConfig
from repro.adios2.variables import Variable
from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.posix import PosixIO
from repro.mpi.comm import VirtualComm


class JSONEngine:
    """Minimal engine-protocol implementation over one JSON file."""

    engine_type = "JSON"
    extension = ".json"

    def __init__(self, posix: PosixIO, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None):
        self.posix = posix
        self.comm = comm
        self.path = path if path.endswith(".json") else path + ".json"
        self.mode = mode
        self.config = config or EngineConfig()
        self._doc: dict = {"openPMD-json": 1, "variables": {}}
        self._step = -1
        self._in_step = False
        self._cur_vars: dict[str, Variable] = {}
        self._closed = False
        if mode == "r":
            fd = self.posix.open(0, self.path)
            size = self.posix.fs.vfs.size_of(self.posix.ino_of(fd))
            self._doc = json.loads(self.posix.read(0, fd, size).decode())
            self.posix.close(0, fd)

    # -- write protocol -----------------------------------------------------

    def begin_step(self) -> int:
        self._step += 1
        self._in_step = True
        self._cur_vars = {}
        return self._step

    def declare_variable(self, name: str, dtype: str,
                         global_shape: tuple[int, ...],
                         entropy: str = "particle_float32") -> Variable:
        var = self._cur_vars.get(name)
        if var is None:
            var = Variable(name=name, dtype=dtype,
                           global_shape=tuple(global_shape), entropy=entropy)
            self._cur_vars[name] = var
        return var

    def put_group(self, *a, **kw) -> None:
        raise NotImplementedError(
            "the JSON backend is functional-mode only; use a BP engine for "
            "synthetic scale runs"
        )

    def end_step(self, overwrite_key: str | None = None) -> None:
        from repro.adios2.engine import _numpy_dtype

        for name, var in self._cur_vars.items():
            arr = np.zeros(var.global_shape, dtype=_numpy_dtype(var.dtype))
            for chunk in var.chunks:
                if isinstance(chunk.payload, SyntheticPayload):
                    raise NotImplementedError(
                        "JSON backend cannot store synthetic payloads")
                data = np.frombuffer(
                    chunk.payload.tobytes(), dtype=arr.dtype
                ).reshape(chunk.extent)
                sel = tuple(slice(o, o + e)
                            for o, e in zip(chunk.offset, chunk.extent))
                arr[sel] = data
            self._doc["variables"][name] = {
                "dtype": var.dtype,
                "shape": list(var.global_shape),
                "data": arr.tolist(),
            }
        self._in_step = False

    # -- read protocol ----------------------------------------------------------

    def available_variables(self) -> dict[str, list[str]]:
        return {name: ["step0"] for name in self._doc["variables"]}

    def get(self, name: str, step_key: str | None = None,
            rank: int = 0) -> np.ndarray:
        from repro.adios2.engine import _numpy_dtype

        entry = self._doc["variables"].get(name)
        if entry is None:
            raise KeyError(name)
        return np.asarray(entry["data"],
                          dtype=_numpy_dtype(entry["dtype"]))

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self.mode in ("w", "a"):
            blob = json.dumps(self._doc).encode()
            fd = self.posix.open(0, self.path, create=True, truncate=True)
            self.posix.write(0, fd, RealPayload(blob, entropy="metadata"))
            self.posix.close(0, fd)
        self._closed = True

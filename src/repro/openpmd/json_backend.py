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

from repro.adios2.engine import Engine, EngineConfig
from repro.adios2.variables import numpy_dtype
from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.posix import PosixIO
from repro.mpi.comm import VirtualComm


class JSONEngine(Engine):
    """Minimal engine-protocol implementation over one JSON file."""

    engine_type = "JSON"
    extension = ".json"

    def __init__(self, posix: PosixIO, comm: VirtualComm, path: str,
                 mode: str = "w", config: EngineConfig | None = None):
        super().__init__(posix, comm, path, mode, config)
        self._doc: dict = {"openPMD-json": 1, "variables": {}}
        if mode == "r":
            fd = self.posix.open(0, self.path)
            size = self.posix.fs.vfs.size_of(self.posix.ino_of(fd))
            self._doc = json.loads(self.posix.read(0, fd, size).decode())
            self.posix.close(0, fd)
            self._adopt_attributes(self._doc.get("attributes", {}))

    # -- write protocol -----------------------------------------------------

    def put_group(self, *a, **kw) -> None:
        raise NotImplementedError(
            "the JSON backend is functional-mode only; use a BP engine for "
            "synthetic scale runs"
        )

    def end_step(self, overwrite_key: str | None = None) -> None:
        self._check_in_step()
        for name, var in self._cur_vars.items():
            arr = np.zeros(var.global_shape, dtype=numpy_dtype(var.dtype))
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
        entry = self._doc["variables"].get(name)
        if entry is None:
            raise KeyError(name)
        return np.asarray(entry["data"],
                          dtype=numpy_dtype(entry["dtype"]))

    # -- lifecycle -----------------------------------------------------------------

    def _finish(self) -> None:
        if self.mode in ("w", "a"):
            self._doc["attributes"] = self._attributes_doc()
            blob = json.dumps(self._doc).encode()
            fd = self.posix.open(0, self.path, create=True, truncate=True)
            self.posix.write(0, fd, RealPayload(blob, entropy="metadata"))
            self.posix.close(0, fd)

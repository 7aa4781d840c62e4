"""ADIOS2 data-model primitives: variables, attributes, chunk descriptors.

ADIOS2's unified API "emphasizes n-dimensional variables, attributes and
steps" (§II-A).  A :class:`Variable` describes a named n-D array with a
global shape; each rank contributes a chunk (offset + local extent +
payload).  These descriptors flow from the openPMD layer down to the
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fs.payload import Payload, RealPayload, SyntheticPayload, as_payload

#: ADIOS2 datatype names for the numpy dtypes BIT1 uses
DTYPE_NAMES = {
    "float32": "float",
    "float64": "double",
    "int32": "int32_t",
    "int64": "int64_t",
    "uint64": "uint64_t",
    "uint8": "uint8_t",
}


_NUMPY_DTYPES = {name: np.dtype(key) for key, name in DTYPE_NAMES.items()}


def dtype_name(dtype: np.dtype | str) -> str:
    """ADIOS2 name for a numpy dtype."""
    key = np.dtype(dtype).name
    if key not in DTYPE_NAMES:
        raise TypeError(f"unsupported ADIOS2 datatype: {dtype!r}")
    return DTYPE_NAMES[key]


def numpy_dtype(name: str) -> np.dtype:
    """numpy dtype for an ADIOS2 datatype name (inverse of :func:`dtype_name`)."""
    dtype = _NUMPY_DTYPES.get(name)
    if dtype is None:
        raise TypeError(f"unknown ADIOS2 datatype name {name!r}")
    return dtype


@dataclass(frozen=True)
class Attribute:
    """A named scalar/string attribute attached to the output."""

    name: str
    value: Any

    def nbytes(self) -> int:
        if isinstance(self.value, str):
            return len(self.value.encode())
        if isinstance(self.value, (list, tuple)):
            return 8 * len(self.value)
        return 8


@dataclass
class Chunk:
    """One rank's contribution to a variable in one step."""

    rank: int
    offset: tuple[int, ...]
    extent: tuple[int, ...]
    payload: Payload

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes


@dataclass
class Variable:
    """A named n-D variable within a step."""

    name: str
    dtype: str
    global_shape: tuple[int, ...]
    chunks: list[Chunk] = field(default_factory=list)
    #: entropy class for synthetic accounting
    entropy: str = "particle_float32"

    def put_chunk(self, rank: int, offset: tuple[int, ...],
                  extent: tuple[int, ...],
                  data: Payload | bytes | np.ndarray) -> Chunk:
        """Attach one rank's chunk (openPMD ``storeChunk``)."""
        payload = as_payload(data, entropy=self.entropy)
        if len(offset) != len(self.global_shape) or len(extent) != len(offset):
            raise ValueError(
                f"chunk rank mismatch for {self.name!r}: global shape "
                f"{self.global_shape}, offset {offset}, extent {extent}"
            )
        for o, e, g in zip(offset, extent, self.global_shape):
            if o < 0 or e < 0 or o + e > g:
                raise ValueError(
                    f"chunk [{offset}, {extent}] outside global shape "
                    f"{self.global_shape} of {self.name!r}"
                )
        chunk = Chunk(rank=rank, offset=offset, extent=extent, payload=payload)
        self.chunks.append(chunk)
        return chunk

    @property
    def total_bytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    def per_rank_bytes(self, nranks: int) -> np.ndarray:
        """Bytes staged per rank for this variable."""
        out = np.zeros(nranks, dtype=np.int64)
        for c in self.chunks:
            out[c.rank] += c.nbytes
        return out


def element_size(dtype: str) -> int:
    """Bytes per element for an ADIOS2 datatype name."""
    return numpy_dtype(dtype).itemsize

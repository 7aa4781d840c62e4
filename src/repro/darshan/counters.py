"""Darshan counter definitions (POSIX and STDIO modules).

A faithful subset of Darshan 3.4's counter vocabulary — the counters the
paper's analysis needs: operation counts, byte totals, cumulative time
split into read / write / metadata, and the common-access-size histogram.

Note the accounting subtlety the reproduction depends on: in Darshan,
``fsync`` time lands in ``*_F_META_TIME`` (not write time).  BIT1's
original output fsyncs every flushed stdio buffer, which is why the
paper's Fig. 5 shows 17.868 s of *metadata* time per process for the
original I/O against 1.043 s of write time.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

#: modules we instrument, matching Darshan's names
MODULES = ("POSIX", "STDIO")

#: integer counters per module, in report order
COUNT_FIELDS = (
    "OPENS",
    "READS",
    "WRITES",
    "SEEKS",
    "STATS",
    "FSYNCS",
    "CLOSES",
)

#: floating-point cumulative-time counters (seconds)
TIME_FIELDS = (
    "F_READ_TIME",
    "F_WRITE_TIME",
    "F_META_TIME",
)

#: byte totals
BYTE_FIELDS = (
    "BYTES_READ",
    "BYTES_WRITTEN",
)

#: access-size histogram bucket upper bounds (bytes), Darshan's buckets
SIZE_BUCKETS = (
    100,
    1_024,
    10_240,
    102_400,
    1_048_576,
    4_194_304,
    10_485_760,
    104_857_600,
    1_073_741_824,
    np.inf,
)

SIZE_BUCKET_NAMES = (
    "SIZE_0_100",
    "SIZE_100_1K",
    "SIZE_1K_10K",
    "SIZE_10K_100K",
    "SIZE_100K_1M",
    "SIZE_1M_4M",
    "SIZE_4M_10M",
    "SIZE_10M_100M",
    "SIZE_100M_1G",
    "SIZE_1G_PLUS",
)

#: event kind (from the repro.trace spine) → count field.  The
#: engine-plane write kinds (collective_write / meta_append) are WRITES
#: at the POSIX boundary — Darshan cannot tell an aggregator flush from
#: any other write().
OP_TO_COUNT = {
    "open": "OPENS",
    "create": "OPENS",
    "close": "CLOSES",
    "stat": "STATS",
    "mkdir": "STATS",   # Darshan has no mkdir counter; nearest bucket
    "unlink": "STATS",
    "seek": "SEEKS",
    "fsync": "FSYNCS",
    "read": "READS",
    "write": "WRITES",
    "collective_write": "WRITES",
    "meta_append": "WRITES",
}

#: event kind → time category field (fsync time is metadata time — the
#: accounting subtlety behind Fig. 5, see module docstring)
OP_TO_TIME = {
    "open": "F_META_TIME",
    "create": "F_META_TIME",
    "close": "F_META_TIME",
    "stat": "F_META_TIME",
    "mkdir": "F_META_TIME",
    "unlink": "F_META_TIME",
    "seek": "F_META_TIME",
    "fsync": "F_META_TIME",
    "read": "F_READ_TIME",
    "write": "F_WRITE_TIME",
    "collective_write": "F_WRITE_TIME",
    "meta_append": "F_WRITE_TIME",
}

#: event kinds whose payload counts as written / read bytes
WRITE_KINDS = frozenset({"write", "collective_write", "meta_append"})
READ_KINDS = frozenset({"read"})


def size_bucket_index(nbytes: np.ndarray) -> np.ndarray:
    """Vectorised bucket index for access sizes."""
    edges = np.array(SIZE_BUCKETS[:-1], dtype=np.float64)
    return np.searchsorted(edges, np.asarray(nbytes, dtype=np.float64),
                           side="left")


_EDGES = SIZE_BUCKETS[:-1]


def size_bucket_of(nbytes: float) -> int:
    """Bucket index of one access size; :func:`size_bucket_index` for a
    plain float (NaN sorts last there, so it does here too)."""
    if nbytes != nbytes:
        return len(_EDGES)
    return bisect_left(_EDGES, nbytes)


def all_counter_names(module: str) -> list[str]:
    """Full, ordered counter-name list for one module (parser output)."""
    return (
        [f"{module}_{f}" for f in COUNT_FIELDS]
        + [f"{module}_{f}" for f in BYTE_FIELDS]
        + [f"{module}_{f}" for f in TIME_FIELDS]
        + [f"{module}_{f}" for f in SIZE_BUCKET_NAMES]
    )

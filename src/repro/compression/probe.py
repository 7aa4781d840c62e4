"""Compression-ratio probing for synthetic payloads.

Modeled-mode runs move :class:`~repro.fs.payload.SyntheticPayload`
objects, so a compressor cannot literally run over them.  Instead each
(codec, entropy-class) pair gets a ratio *measured once* by compressing a
real, representative 2 MiB block — the hybrid keeps the scale experiments
fast while anchoring sizes to actual codec behaviour.

The block generators model BIT1's data:

``particle_float32``
    interleaved x/vx/vy/vz float32 coordinates of a thermal plasma slab —
    uniform positions, Maxwellian velocities.  Byte-shuffled deflate
    (Blosc) recovers the exponent-byte redundancy (≈ 0.85-0.90 ratio, the
    paper's Table II shows 0.886); bzip2 without shuffle stays ≈ 1.
``histogram_counts``
    Poisson-distributed int64 bin counts of velocity/energy/angular
    distribution diagnostics.
``ascii_table``
    fixed-width formatted text diagnostics (highly compressible).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.fs.payload import ENTROPY_CLASSES

PROBE_BYTES = 2 * 1024 * 1024
_PROBE_SEED = 0xB17_10


@lru_cache(maxsize=None)
def probe_block(entropy: str, nbytes: int = PROBE_BYTES) -> bytes:
    """A representative data block for one entropy class."""
    rng = np.random.default_rng(_PROBE_SEED)
    if entropy == "particle_float32":
        n = nbytes // 16  # particles of (x, vx, vy, vz) float32
        x = rng.uniform(0.0, 0.04, n).astype(np.float32)       # 4 cm flux tube
        v = rng.normal(0.0, 4.19e5, (3, n)).astype(np.float32)  # ~1 eV deuterium
        block = np.empty((n, 4), dtype=np.float32)
        block[:, 0] = x
        block[:, 1:] = v.T
        return block.tobytes()[:nbytes]
    if entropy == "diagnostic_float64":
        # Time-averaged distribution-function values span many decades
        # (sheath tails reach 1e-30 of the bulk), so both mantissa and
        # exponent bytes carry near-full entropy.  libm's exp, because
        # NumPy's AVX-512 kernel rounds differently from its other ones.
        n = nbytes // 8
        x = rng.normal(0.0, 60.0, n)
        vals = np.fromiter(map(math.exp, x.tolist()), np.float64, n)
        return vals.tobytes()[:nbytes]
    if entropy == "histogram_counts":
        n = nbytes // 8
        counts = rng.poisson(120.0, n).astype(np.int64)
        return counts.tobytes()[:nbytes]
    if entropy == "ascii_table":
        rows = []
        t = 0.0
        while sum(len(r) for r in rows) < nbytes:
            vals = rng.normal(1.0e18, 1.0e15, 8)
            rows.append(
                f"{t:12.6e} " + " ".join(f"{v:14.6e}" for v in vals) + "\n"
            )
            t += 5.0e-9
        return ("".join(rows)).encode()[:nbytes]
    if entropy == "metadata":
        items = []
        while sum(len(i) for i in items) < nbytes:
            idx = len(items)
            items.append(
                f'{{"variable":"/data/{idx}/particles/e/position/x",'
                f'"offset":{idx * 4096},"len":{4096},"dims":[{idx % 7}]}}\n'
            )
        return ("".join(items)).encode()[:nbytes]
    if entropy == "zeros":
        return b"\x00" * nbytes
    if entropy == "random":
        return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    raise ValueError(f"unknown entropy class {entropy!r}; "
                     f"choose from {ENTROPY_CLASSES}")


@lru_cache(maxsize=None)
def _probed_ratio(codec_key: tuple, entropy: str) -> float:
    from repro.compression.api import get_compressor

    codec = get_compressor(codec_key[0])
    block = probe_block(entropy)
    packed = codec.compress_bytes(block)
    return len(packed) / len(block)


def probed_ratio(codec, entropy: str) -> float:
    """Measured compressed/original ratio for (codec, entropy class)."""
    return _probed_ratio((codec.name,), entropy)


def probe_report() -> dict[str, dict[str, float]]:
    """Ratio matrix for all registered codecs × entropy classes."""
    from repro.compression.api import available_compressors, get_compressor

    out: dict[str, dict[str, float]] = {}
    for name in available_compressors():
        codec = get_compressor(name)
        out[name] = {e: probed_ratio(codec, e) for e in ENTROPY_CLASSES}
    return out

"""Fig. 8 — profiling.json memory-copy times, with vs without compression.

"Fig 8 displays profiling.json results on 200 nodes, where memory copy
operation execution times are entirely eliminated for the BIT1 openPMD +
BP4 configuration with Blosc compression and 1 AGGR" — because the
compressor emits straight into the staging buffer, skipping the staging
memcpy an uncompressed put performs.

The figure's numbers are derived from the :mod:`repro.trace` event
stream alone: each run carries a ``trace_mode="summary"`` session whose
``stream_profile`` folds every engine event (memcpy, compress, shuffle,
collective_write) across both series, and whose streaming
:class:`~repro.trace.export.LayerBreakdown` gives the per-layer time
split reported alongside the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.presets import dardel
from repro.experiments.common import resolve_machine
from repro.experiments.points import openpmd_profile
from repro.experiments.sweep import sweep
from repro.util.tables import Table


@dataclass
class Fig8Result:
    """Per-rank memcpy/compress microseconds for both configurations."""

    machine: str
    nodes: int
    memcpy_us_uncompressed: float
    memcpy_us_compressed: float
    compress_us_uncompressed: float
    compress_us_compressed: float
    #: per-layer time breakdowns rendered from each run's event stream
    breakdowns: dict = field(default_factory=dict)

    @property
    def memcpy_eliminated(self) -> bool:
        return (self.memcpy_us_compressed == 0.0
                and self.memcpy_us_uncompressed > 0.0)

    def to_table(self) -> Table:
        t = Table(["configuration", "mean memcpy (µs/rank)",
                   "mean compress (µs/rank)"],
                  title=f"Fig 8: profiling.json memory-copy times on "
                        f"{self.machine} ({self.nodes} nodes)")
        t.add_row(["openPMD+BP4 + 1 AGGR (no compression)",
                   f"{self.memcpy_us_uncompressed:.1f}",
                   f"{self.compress_us_uncompressed:.1f}"])
        t.add_row(["openPMD+BP4 + Blosc + 1 AGGR",
                   f"{self.memcpy_us_compressed:.1f}",
                   f"{self.compress_us_compressed:.1f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        out += ("\n  memory copies eliminated by compression: "
                f"{self.memcpy_eliminated} (paper: True)")
        for label, text in self.breakdowns.items():
            out += f"\n\n[{label}]\n{text}"
        return out


def run_fig8(nodes: int = 200, machine=None, seed: int = 0) -> Fig8Result:
    """Reproduce Fig. 8 from the runs' trace event streams.

    The per-rank microseconds come from each run's whole-run
    ``stream_profile``, which sums the category across every engine in
    the run (diagnostics + checkpoint series) — the folding happens in
    :func:`repro.experiments.points.openpmd_profile`.
    """
    machine = resolve_machine(machine) if machine is not None else dardel()
    plain, blosc = sweep(openpmd_profile,
                         [{"machine": machine, "nodes": nodes,
                           "compressor": c, "seed": seed}
                          for c in (None, "blosc")])
    breakdowns = {
        "openPMD+BP4 + 1 AGGR (no compression)": plain["breakdown"],
        "openPMD+BP4 + Blosc + 1 AGGR": blosc["breakdown"],
    }
    return Fig8Result(
        machine=machine.name,
        nodes=nodes,
        memcpy_us_uncompressed=plain["memcpy_us"],
        memcpy_us_compressed=blosc["memcpy_us"],
        compress_us_uncompressed=plain["compress_us"],
        compress_us_compressed=blosc["compress_us"],
        breakdowns=breakdowns,
    )

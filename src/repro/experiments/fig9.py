"""Fig. 9 — write time vs Lustre stripe size × OST count.

BP4 + Blosc + 1 aggregator on 200 nodes, sweeping stripe sizes
(1-16 MiB) and stripe counts (1-48 OSTs).  The metric is the mean
seconds per write operation (Darshan ``F_WRITE_TIME / WRITES``), which
is where the paper's millisecond-scale values live.  "Smaller Lustre
stripe sizes tend to yield better performance … the relationship between
Lustre stripe size and write time varies significantly based on the
number of OSTs employed … these trends are not uniform across all
configurations."

Note: the paper's prose calls 0.0089 s at a 16 MiB stripe "optimal"
while also saying smaller stripes perform better — the two statements
conflict; the reproduction follows the mechanism (per-RPC cost scales
with the bounded RPC size) and reports the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.presets import dardel
from repro.experiments.common import resolve_machine
from repro.experiments.paper_data import (
    FIG9_BEST_SECONDS,
    FIG9_STRIPE_COUNTS,
    FIG9_STRIPE_SIZES,
)
from repro.experiments.points import openpmd_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table
from repro.util.units import format_size


@dataclass
class Fig9Result:
    """The (stripe_size × stripe_count) grid of write times."""

    machine: str
    nodes: int
    stripe_sizes: tuple[int, ...]
    stripe_counts: tuple[int, ...]
    seconds: np.ndarray  # [size_index, count_index]

    def best(self) -> tuple[int, int, float]:
        """(stripe_size, stripe_count, seconds) of the grid minimum."""
        i, j = np.unravel_index(np.argmin(self.seconds), self.seconds.shape)
        return (self.stripe_sizes[i], self.stripe_counts[j],
                float(self.seconds[i, j]))

    def at(self, stripe_size: int, stripe_count: int) -> float:
        i = self.stripe_sizes.index(stripe_size)
        j = self.stripe_counts.index(stripe_count)
        return float(self.seconds[i, j])

    def to_table(self) -> Table:
        t = Table(["stripe size", *[f"{c} OST" for c in self.stripe_counts]],
                  title=f"Fig 9: Mean seconds per write op on {self.machine} "
                        f"({self.nodes} nodes, Blosc + 1 AGGR)")
        for i, size in enumerate(self.stripe_sizes):
            t.add_row([format_size(size),
                       *[f"{self.seconds[i, j]:.5f}"
                         for j in range(len(self.stripe_counts))]])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        size, count, secs = self.best()
        out += (f"\n  best: {secs:.5f}s at stripe size {format_size(size)}, "
                f"{count} OSTs (paper best: {FIG9_BEST_SECONDS}s)")
        return out


def run_fig9(stripe_sizes: Sequence[int] = FIG9_STRIPE_SIZES,
             stripe_counts: Sequence[int] = FIG9_STRIPE_COUNTS,
             nodes: int = 200, machine=None, seed: int = 0) -> Fig9Result:
    """Reproduce the Lustre striping grid."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    stripe_sizes = tuple(stripe_sizes)
    stripe_counts = tuple(stripe_counts)
    reports = sweep(openpmd_report,
                    [{"machine": machine, "nodes": nodes,
                      "num_aggregators": 1, "compressor": "blosc",
                      "stripe_count": count, "stripe_size": size,
                      "seed": seed}
                     for size in stripe_sizes for count in stripe_counts])
    grid = np.array([rep["seconds_per_write"] for rep in reports]).reshape(
        len(stripe_sizes), len(stripe_counts))
    return Fig9Result(machine=machine.name, nodes=nodes,
                      stripe_sizes=stripe_sizes,
                      stripe_counts=stripe_counts, seconds=grid)

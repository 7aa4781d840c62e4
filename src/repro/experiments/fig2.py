"""Fig. 2 — BIT1 original file I/O write throughput on three machines.

"Fig. 2 displays the performance of traditional file I/O in BIT1 on
Discoverer, Dardel, and Vega CPU LFS" up to 200 nodes, in GiB/s.
Expected shapes: Discoverer declines ~23% from 0.26 to 0.20 GiB/s;
Dardel improves from 0.09 to ~0.41 GiB/s; Vega shows no clear scaling.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.presets import all_machines
from repro.experiments.common import ExperimentResult, SeriesResult
from repro.experiments.paper_data import FIG2_ANCHORS, NODE_COUNTS
from repro.experiments.points import original_report
from repro.experiments.sweep import sweep


def run_fig2(node_counts: Sequence[int] = NODE_COUNTS,
             machines=None, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 2; returns one series per machine."""
    machines = list(machines) if machines is not None else all_machines()
    node_counts = list(node_counts)
    result = ExperimentResult(
        name="Fig 2: BIT1 Original File I/O Write Throughput (GiB/s)",
        x_name="nodes",
    )
    reports = iter(sweep(original_report,
                         [{"machine": m, "nodes": n, "seed": seed}
                          for m in machines for n in node_counts]))
    for machine in machines:
        series = SeriesResult(label=machine.name)
        for nodes in node_counts:
            series.add(nodes, next(reports)["gib"])
        result.series.append(series)
        anchors = FIG2_ANCHORS.get(machine.name)
        if anchors:
            result.notes.append(
                f"paper anchors {machine.name}: "
                + ", ".join(f"{n} nodes = {v} GiB/s"
                            for n, v in anchors.items())
            )
    return result

"""Fig. 6 — write throughput vs number of aggregators, 200 nodes.

"As the number of aggregators increases, there is a consistent
improvement in write throughput until reaching a peak at 400 aggregators
(equivalent to two aggregators per node), achieving 15.80 GiB/s.  Beyond
this point there is a slight decline … even [at] the highest tested
aggregation (25600), the write throughput remains significantly higher
than the starting point [0.59 GiB/s], at 3.87 GiB/s."
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.presets import dardel
from repro.experiments.common import ExperimentResult, SeriesResult, resolve_machine
from repro.experiments.paper_data import FIG6_ANCHORS, FIG6_SWEEP
from repro.experiments.points import openpmd_report
from repro.experiments.sweep import sweep


def run_fig6(aggregators: Sequence[int] = FIG6_SWEEP, nodes: int = 200,
             machine=None, seed: int = 0) -> ExperimentResult:
    """Reproduce the aggregator sweep."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    aggregators = list(aggregators)
    result = ExperimentResult(
        name=f"Fig 6: openPMD+BP4 Write Throughput vs Aggregators on "
             f"{machine.name} ({nodes} nodes, GiB/s)",
        x_name="aggregators",
    )
    reports = sweep(openpmd_report,
                    [{"machine": machine, "nodes": nodes,
                      "num_aggregators": m, "seed": seed}
                     for m in aggregators])
    series = SeriesResult(label="BIT1 openPMD + BP4")
    for m, rep in zip(aggregators, reports):
        series.add(m, rep["gib"])
    result.series.append(series)
    result.notes.append(
        "paper anchors: " + ", ".join(f"{m} -> {v} GiB/s"
                                      for m, v in FIG6_ANCHORS.items()))
    peak_x, peak_y = series.peak()
    result.notes.append(f"measured peak: {peak_y:.2f} GiB/s at {peak_x} "
                        f"aggregators (paper: 15.80 at 400)")
    return result

"""Fig. 3 — original file I/O vs openPMD+BP4 on Dardel, 1-200 nodes.

The original path "increases for small runs until the peak throughput is
reached [then] decreases as the cost associated with metadata write
increases"; openPMD+BP4 "maintains a more stable throughput" thanks to
the parallel aggregation strategy, starting at ~0.6 GiB/s on one node.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.presets import dardel
from repro.experiments.common import ExperimentResult, SeriesResult, resolve_machine
from repro.experiments.paper_data import FIG3_BP4_START_GIB, NODE_COUNTS
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep


def run_fig3(node_counts: Sequence[int] = NODE_COUNTS,
             machine=None, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 3 on Dardel (or another machine)."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    node_counts = list(node_counts)
    result = ExperimentResult(
        name=f"Fig 3: Original vs openPMD+BP4 Write Throughput on "
             f"{machine.name} (GiB/s)",
        x_name="nodes",
    )
    origs = sweep(original_report,
                  [{"machine": machine, "nodes": n, "seed": seed}
                   for n in node_counts])
    # the figure's BP4 configuration aggregates per node on both
    # series (explicit NumAgg = nodes)
    bp4s = sweep(openpmd_report,
                 [{"machine": machine, "nodes": n, "num_aggregators": n,
                   "seed": seed} for n in node_counts])
    original = SeriesResult(label="BIT1 Original I/O")
    bp4 = SeriesResult(label="BIT1 openPMD + BP4")
    for nodes, rep_o, rep_p in zip(node_counts, origs, bp4s):
        original.add(nodes, rep_o["gib"])
        bp4.add(nodes, rep_p["gib"])
    result.series += [original, bp4]
    result.notes.append(
        f"paper: BP4 starts at {FIG3_BP4_START_GIB} GiB/s on 1 node; "
        "original rises to a peak then declines (metadata cost)")
    return result

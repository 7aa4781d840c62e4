"""Fig. 7 — write throughput with Blosc compression and one aggregator.

"BIT1 Original I/O displays an inconsistent performance pattern …
eventually leading to a peak write throughput of approximately 0.54
GiB/s with 40 nodes.  In contrast, both BIT1 openPMD + BP4
configurations demonstrate enhanced scalability and efficiency, with
improved performance … from 1 to 10 nodes.  Although compression and
aggregation enhance data storage efficiency, they also introduce
overhead, resulting in slightly reduced performance compared to the
uncompressed configuration (BIT1 Original I/O) at higher node counts,
which can be seen from 10 to 50 nodes."
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.presets import dardel
from repro.experiments.common import ExperimentResult, SeriesResult, resolve_machine
from repro.experiments.paper_data import FIG7_CROSSOVER_RANGE, NODE_COUNTS
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep


def run_fig7(node_counts: Sequence[int] = NODE_COUNTS,
             machine=None, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 7: original vs BP4 + 1 aggregator (± Blosc)."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    node_counts = list(node_counts)
    result = ExperimentResult(
        name=f"Fig 7: Write Throughput with Blosc + 1 Aggregator on "
             f"{machine.name} (GiB/s)",
        x_name="nodes",
    )
    origs = sweep(original_report,
                  [{"machine": machine, "nodes": n, "seed": seed}
                   for n in node_counts])
    bp4s = sweep(openpmd_report,
                 [{"machine": machine, "nodes": n, "num_aggregators": 1,
                   "compressor": c, "seed": seed}
                  for n in node_counts for c in (None, "blosc")])
    original = SeriesResult(label="BIT1 Original I/O")
    bp4_plain = SeriesResult(label="openPMD+BP4 + 1 AGGR")
    bp4_blosc = SeriesResult(label="openPMD+BP4 + Blosc + 1 AGGR")
    for i, nodes in enumerate(node_counts):
        original.add(nodes, origs[i]["gib"])
        bp4_plain.add(nodes, bp4s[2 * i]["gib"])
        bp4_blosc.add(nodes, bp4s[2 * i + 1]["gib"])
    result.series += [original, bp4_plain, bp4_blosc]
    result.notes.append(
        f"paper: the original curve overtakes the single-aggregator BP4 "
        f"configurations between {FIG7_CROSSOVER_RANGE[0]} and "
        f"{FIG7_CROSSOVER_RANGE[1]} nodes")
    return result

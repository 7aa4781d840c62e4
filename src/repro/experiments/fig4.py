"""Fig. 4 — BIT1 configurations vs the IOR benchmark on Dardel.

Adds the two Table I IOR reference lines (FilePerProc and shared file,
``-a POSIX -C -e``) to the Fig. 3 comparison.  "BIT1 Original I/O …
fail[s] to achieve competitive levels compared to the IOR benchmarks.
Conversely, BIT1 openPMD + BP4 with aggregation demonstrates superior
performance."
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.presets import dardel
from repro.experiments.common import ExperimentResult, SeriesResult, resolve_machine
from repro.experiments.paper_data import NODE_COUNTS, RANKS_PER_NODE
from repro.experiments.points import ior_gib, openpmd_report, original_report
from repro.experiments.sweep import sweep


def run_fig4(node_counts: Sequence[int] = NODE_COUNTS,
             machine=None, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 4: BIT1 curves plus IOR reference curves."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    node_counts = list(node_counts)
    result = ExperimentResult(
        name=f"Fig 4: BIT1 vs IOR Write Throughput on {machine.name} (GiB/s)",
        x_name="nodes",
    )
    origs = sweep(original_report,
                  [{"machine": machine, "nodes": n, "seed": seed}
                   for n in node_counts])
    bp4s = sweep(openpmd_report,
                 [{"machine": machine, "nodes": n, "num_aggregators": n,
                   "seed": seed} for n in node_counts])
    iors = sweep(ior_gib,
                 [{"machine": machine, "ntasks": n * RANKS_PER_NODE,
                   "file_per_proc": fpp, "seed": seed}
                  for n in node_counts for fpp in (True, False)])
    series = {
        "BIT1 Original I/O": SeriesResult(label="BIT1 Original I/O"),
        "BIT1 openPMD + BP4": SeriesResult(label="BIT1 openPMD + BP4"),
        "IOR FilePerProc": SeriesResult(label="IOR FilePerProc"),
        "IOR Shared": SeriesResult(label="IOR Shared"),
    }
    for i, nodes in enumerate(node_counts):
        series["BIT1 Original I/O"].add(nodes, origs[i]["gib"])
        series["BIT1 openPMD + BP4"].add(nodes, bp4s[i]["gib"])
        series["IOR FilePerProc"].add(nodes, iors[2 * i])
        series["IOR Shared"].add(nodes, iors[2 * i + 1])
    result.series = list(series.values())
    result.notes.append(
        "Table I commands: 'ior -N=<tasks> -a POSIX [-F] -C -e'")
    result.notes.append(
        "IOR FilePerProc at 25600 tasks matches the extreme-aggregation "
        "regime of Fig. 6 (25600 files)")
    return result

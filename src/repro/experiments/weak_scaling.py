"""Weak-scaling study — an extension of the paper's evaluation.

The paper's runs keep the physical problem fixed (30 M particles) while
adding nodes, so per-rank I/O shrinks.  Production campaigns usually
grow the problem with the machine; this driver scales the workload with
the node count (fixed particles *per rank*) and asks the question the
paper's §VI leaves open: does the openPMD+BP4 path sustain per-node
write throughput under weak scaling, where the original path cannot?

Metric: per-node write throughput (GiB/s/node).  Ideal weak scaling is
a flat line.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.presets import dardel
from repro.experiments.common import ExperimentResult, SeriesResult, resolve_machine
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep
from repro.workloads.presets import paper_use_case

#: per-rank load of the paper's 200-node configuration, held constant
PARTICLES_PER_RANK = 30_000_000 // 25_600
CELLS_PER_RANK = 100_000 // 25_600 + 1


def scaled_config(nodes: int, ranks_per_node: int = 128):
    """The use case grown to keep per-rank load constant."""
    ranks = nodes * ranks_per_node
    base = paper_use_case()
    ncells = CELLS_PER_RANK * ranks
    per_cell = max(PARTICLES_PER_RANK * ranks
                   // (ncells * len(base.species)), 1)
    return base.with_(
        ncells=ncells,
        length=base.length * ncells / base.ncells,
        species=tuple(
            s.__class__(s.name, s.mass, s.charge, s.temperature_ev,
                        per_cell, density=s.density)
            for s in base.species
        ),
        name=f"bit1-weak-{nodes}nodes",
    )


def run_weak_scaling(node_counts: Sequence[int] = (1, 5, 20, 50, 200),
                     machine=None, seed: int = 0) -> ExperimentResult:
    """Per-node write throughput with the problem growing with nodes."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    result = ExperimentResult(
        name=f"Weak scaling on {machine.name}: per-node write throughput "
             f"(GiB/s/node, fixed particles per rank)",
        x_name="nodes",
    )
    node_counts = list(node_counts)
    configs = {n: scaled_config(n) for n in node_counts}
    origs = sweep(original_report,
                  [{"machine": machine, "nodes": n, "config": configs[n],
                    "seed": seed} for n in node_counts])
    bp4s = sweep(openpmd_report,
                 [{"machine": machine, "nodes": n, "config": configs[n],
                   "num_aggregators": n, "seed": seed} for n in node_counts])
    original = SeriesResult(label="BIT1 Original I/O")
    bp4 = SeriesResult(label="BIT1 openPMD + BP4")
    for nodes, rep_o, rep_p in zip(node_counts, origs, bp4s):
        original.add(nodes, rep_o["gib"] / nodes)
        bp4.add(nodes, rep_p["gib"] / nodes)
    result.series += [original, bp4]
    result.notes.append(
        "ideal weak scaling = flat; the original path's per-node rate "
        "collapses with the fsync queue depth while BP4 degrades gently "
        "toward the filesystem's aggregate ceiling")
    return result

"""Table II — file census: count, average and maximum size per config.

Four configurations over 1-200 nodes on Dardel:

* BIT1 Original I/O (2 files per rank + 6 globals);
* BIT1 openPMD + BP4 (default aggregation: one diag subfile per node,
  one checkpoint subfile);
* + 1 AGGR (``OPENPMD_ADIOS2_BP5_NumAgg = 1``: constant 6 files);
* + Blosc + 1 AGGR (same layout, ~11% → ~3.7% smaller).

The counts follow closed forms (``2·ranks+6``, ``nodes+5``, ``6``); the
sizes come from walking the virtual filesystem after each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.presets import dardel
from repro.darshan.report import FileStats
from repro.experiments.common import resolve_machine
from repro.experiments.paper_data import NODE_COUNTS, TABLE2
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table
from repro.util.units import format_size

#: the sweep-point options behind each Table II configuration
CONFIG_OPTIONS = {
    "original": {},
    "bp4_default": {},
    "bp4_1aggr": {"num_aggregators": 1},
    "bp4_blosc_1aggr": {"num_aggregators": 1, "compressor": "blosc"},
}

CONFIG_LABELS = {
    "original": "BIT1 Original I/O",
    "bp4_default": "BIT1 openPMD + BP4",
    "bp4_1aggr": "BIT1 openPMD + BP4 + 1 AGGR",
    "bp4_blosc_1aggr": "BIT1 openPMD + BP4 + Blosc + 1 AGGR",
}


@dataclass
class Table2Result:
    """Census per configuration per node count."""

    machine: str
    node_counts: tuple[int, ...]
    stats: dict[str, dict[int, FileStats]]

    def to_tables(self) -> list[Table]:
        out = []
        for key, label in CONFIG_LABELS.items():
            if key not in self.stats:
                continue
            t = Table(["metric", *[str(n) for n in self.node_counts]],
                      title=f"Table II ({label}) on {self.machine}")
            per = self.stats[key]
            t.add_row(["Total Written Files",
                       *[per[n].total_files for n in self.node_counts]])
            t.add_row(["Average File Size",
                       *[format_size(per[n].avg_size_bytes)
                         for n in self.node_counts]])
            t.add_row(["Max File Size",
                       *[format_size(per[n].max_size_bytes)
                         for n in self.node_counts]])
            paper = TABLE2.get(key)
            if paper:
                t.add_row(["paper files",
                           *[paper["files"].get(n, "-")
                             for n in self.node_counts]])
                t.add_row(["paper avg",
                           *[format_size(paper["avg"][n])
                             if n in paper["avg"] else "-"
                             for n in self.node_counts]])
            out.append(t)
        return out

    def render(self) -> str:
        return "\n\n".join(t.render() for t in self.to_tables())


def run_table2(node_counts: Sequence[int] = NODE_COUNTS,
               configs: Sequence[str] = tuple(CONFIG_LABELS),
               machine=None, seed: int = 0) -> Table2Result:
    """Reproduce the Table II census."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    node_counts = tuple(node_counts)
    for key in configs:
        if key not in CONFIG_LABELS:
            raise KeyError(f"unknown Table II config {key!r}; "
                           f"choose from {sorted(CONFIG_LABELS)}")
    stats: dict[str, dict[int, FileStats]] = {}
    orig_keys = [k for k in configs if k == "original"]
    bp4_keys = [k for k in configs if k != "original"]
    if orig_keys:
        reports = iter(sweep(original_report,
                             [{"machine": machine, "nodes": n, "seed": seed}
                              for k in orig_keys for n in node_counts]))
        for key in orig_keys:
            stats[key] = {n: next(reports)["files"] for n in node_counts}
    if bp4_keys:
        reports = iter(sweep(openpmd_report,
                             [{"machine": machine, "nodes": n, "seed": seed,
                               **CONFIG_OPTIONS[k]}
                              for k in bp4_keys for n in node_counts]))
        for key in bp4_keys:
            stats[key] = {n: next(reports)["files"] for n in node_counts}
    # present in the canonical CONFIG_LABELS order regardless of sweep order
    stats = {k: stats[k] for k in configs if k in stats}
    return Table2Result(machine=machine.name, node_counts=node_counts,
                        stats=stats)

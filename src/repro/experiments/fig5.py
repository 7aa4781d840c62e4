"""Fig. 5 — average per-process I/O cost split on 200 nodes.

"The average time spent on metadata operations per process stood at
17.868 seconds in the BIT1 Original I/O simulation.  However, with
openPMD + BP4, this time plummeted to a mere 0.014 seconds per process
… a reduction of approximately 99.92%.  [Write time] significantly
decreased [from 1.043 s] to 0.009 seconds … a reduction of around
99.14%."  Read time stays consistent (checkpoint restart reads).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.presets import dardel
from repro.darshan.report import CostSplit
from repro.experiments.common import resolve_machine
from repro.experiments.paper_data import FIG5_BP4, FIG5_ORIGINAL
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table


@dataclass
class Fig5Result:
    """Measured and paper cost splits plus derived reductions."""

    machine: str
    nodes: int
    original: CostSplit
    bp4: CostSplit

    @property
    def meta_reduction(self) -> float:
        if self.original.meta_seconds == 0:
            return 0.0
        return 1.0 - self.bp4.meta_seconds / self.original.meta_seconds

    @property
    def write_reduction(self) -> float:
        if self.original.write_seconds == 0:
            return 0.0
        return 1.0 - self.bp4.write_seconds / self.original.write_seconds

    def to_table(self) -> Table:
        t = Table(["category", "original (s)", "openPMD+BP4 (s)",
                   "paper original", "paper BP4"],
                  title=f"Fig 5: Avg I/O Cost Per Process on {self.machine} "
                        f"({self.nodes} nodes)")
        rows = (
            ("reads", self.original.read_seconds, self.bp4.read_seconds,
             FIG5_ORIGINAL["read"], FIG5_BP4["read"]),
            ("metadata", self.original.meta_seconds, self.bp4.meta_seconds,
             FIG5_ORIGINAL["meta"], FIG5_BP4["meta"]),
            ("writes", self.original.write_seconds, self.bp4.write_seconds,
             FIG5_ORIGINAL["write"], FIG5_BP4["write"]),
        )
        for name, o, p, po, pp in rows:
            t.add_row([name, f"{o:.3f}", f"{p:.4f}", po, pp])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        out += (f"\n  metadata reduction: {self.meta_reduction:.2%} "
                f"(paper: 99.92%)")
        out += (f"\n  write reduction: {self.write_reduction:.2%} "
                f"(paper: 99.14%)")
        return out


def run_fig5(nodes: int = 200, machine=None, seed: int = 0) -> Fig5Result:
    """Reproduce Fig. 5 (per-process read/meta/write seconds)."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    [rep_o] = sweep(original_report,
                    [{"machine": machine, "nodes": nodes, "seed": seed}])
    [rep_p] = sweep(openpmd_report,
                    [{"machine": machine, "nodes": nodes,
                      "num_aggregators": nodes, "seed": seed}])
    return Fig5Result(
        machine=machine.name,
        nodes=nodes,
        original=rep_o["split"],
        bp4=rep_p["split"],
    )

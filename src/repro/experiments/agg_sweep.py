"""BP4 vs BP5 aggregator-count × drain-mode sweep.

The paper tunes ``NumAggregators`` and lands on 400 subfiles for the
200-node runs — two aggregators per node (§IV).  This driver redoes that
tuning under both file engines and both drain modes:

* **BP4** aggregates in one level: every rank ships straight to its
  subfile owner, so more aggregators per node keeps shrinking each
  funnel and the shuffle cost falls monotonically;
* **BP5** aggregates in two levels (ranks → node-local shm leader →
  subfile owner over the NIC): the level-1 funnel is fixed per node, and
  every extra aggregator per node adds level-2 cross-node messages — the
  aggregation-phase optimum sits at *one* aggregator per node even when
  the write-throughput optimum does not move;
* **AsyncWrite** (BP5's drain mode, applied to either engine here)
  overlaps the subfile drain with the next steps' compute; it cannot
  change what Darshan sees per write, only the makespan.

Points route through the cached sweep executor like every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.presets import dardel
from repro.experiments.common import resolve_machine, subset
from repro.experiments.points import openpmd_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table
from repro.util.units import to_gib
from repro.workloads.presets import paper_use_case

#: aggregators per node swept around the paper's optimum (2/node = 400
#: subfiles at 200 nodes)
AGGS_PER_NODE = (0.5, 1, 2, 4, 8)
#: both file engines of §III-D
ENGINES = (".bp4", ".bp5")
#: nominal PIC compute per step — the window async drains overlap
COMPUTE_SECONDS_PER_STEP = 0.02


@dataclass
class AggSweepRow:
    """One (engine, drain mode, aggregator count) cell."""

    engine: str
    async_drain: bool
    aggs_per_node: float
    num_aggregators: int
    gib: float
    makespan_s: float
    aggregation_s: float
    drain_wait_s: float
    peak_host_gib: float


@dataclass
class AggSweepResult:
    """The aggregator sweep on one machine at one scale."""

    machine: str
    nodes: int
    rows: list[AggSweepRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def _engine_rows(self, engine: str,
                     async_drain: bool = False) -> list[AggSweepRow]:
        return [r for r in self.rows
                if r.engine == engine and r.async_drain == async_drain]

    def throughput_optimum(self, engine: str) -> int:
        """``NumAggregators`` with the best write throughput (sync)."""
        rows = self._engine_rows(engine)
        return max(rows, key=lambda r: r.gib).num_aggregators

    def aggregation_optimum(self, engine: str) -> float:
        """Aggregators *per node* with the cheapest shuffle phase (sync)."""
        rows = self._engine_rows(engine)
        return min(rows, key=lambda r: r.aggregation_s).aggs_per_node

    def to_table(self) -> Table:
        t = Table(["engine", "drain", "aggs/node", "subfiles", "GiB/s",
                   "makespan [s]", "aggregation [s]", "drain wait [s]",
                   "peak host [GiB]"],
                  title=f"Aggregator sweep on {self.machine} "
                        f"({self.nodes} nodes)")
        for r in self.rows:
            t.add_row([r.engine.strip("."), "async" if r.async_drain
                       else "sync", f"{r.aggs_per_node:g}",
                       r.num_aggregators, f"{r.gib:.2f}",
                       f"{r.makespan_s:.1f}", f"{r.aggregation_s:.3f}",
                       f"{r.drain_wait_s:.2f}", f"{r.peak_host_gib:.3f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def run_agg_sweep(machine=None, nodes: int | None = None,
                  aggs_per_node=AGGS_PER_NODE, engines=ENGINES,
                  quick: bool = False, seed: int = 0, config=None,
                  compute_seconds_per_step: float = COMPUTE_SECONDS_PER_STEP,
                  ) -> AggSweepResult:
    """Sweep aggregator counts × engines × drain modes at one scale."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    if nodes is None:
        nodes = 4 if quick else 200
    aggs_per_node = subset(tuple(aggs_per_node), quick)
    if config is None:
        config = (paper_use_case().with_(last_step=4_000, dmpstep=2_000)
                  if quick else paper_use_case())

    points = []
    for ext in engines:
        for a in aggs_per_node:
            for drain in (False, True):
                points.append({
                    "machine": machine, "nodes": nodes, "config": config,
                    "num_aggregators": max(1, int(round(nodes * a))),
                    "engine_ext": ext, "async_drain": drain,
                    "compute_seconds_per_step": compute_seconds_per_step,
                    "seed": seed})
    reports = sweep(openpmd_report, points)

    result = AggSweepResult(machine=machine.name, nodes=nodes)
    for point, rep in zip(points, reports):
        result.rows.append(AggSweepRow(
            engine=point["engine_ext"], async_drain=point["async_drain"],
            aggs_per_node=point["num_aggregators"] / nodes,
            num_aggregators=point["num_aggregators"],
            gib=rep["gib"], makespan_s=rep["makespan"],
            aggregation_s=rep["aggregation_s"],
            drain_wait_s=rep["drain_wait_s"],
            peak_host_gib=to_gib(rep["peak_host_bytes"])))

    for ext in engines:
        result.notes.append(
            f"{ext.strip('.')}: best throughput at "
            f"{result.throughput_optimum(ext)} subfiles "
            f"({result.throughput_optimum(ext) / nodes:g}/node); cheapest "
            f"aggregation at {result.aggregation_optimum(ext):g}/node")
    sync_rows = {(r.engine, r.num_aggregators): r for r in result.rows
                 if not r.async_drain}
    gains = [(sync_rows[(r.engine, r.num_aggregators)].makespan_s
              - r.makespan_s)
             for r in result.rows if r.async_drain]
    if gains:
        result.notes.append(
            f"async drain saves up to {max(gains):.1f} s of makespan "
            f"({sum(g > 0 for g in gains)}/{len(gains)} cells improved)")
    return result

"""Post-hoc vs in-situ streaming — the §VI SST direction, quantified.

The paper's future work names the ADIOS2 SST engine for "in-situ
processing, analysis, and visualization".  This driver asks the question
that decides whether staging is worth deploying: against the same job
(same cadence, same Table-II byte volumes, same analysis), what does the
streaming path buy and what does it cost?

Per (node count, queue depth) the sweep compares:

* **time-to-first-insight** — in-situ: the first analysed step, minutes
  into the run; post-hoc: only after the whole job finishes and the
  first snapshot is read back;
* **makespan** — producer + consumer drain (in-situ) vs job + read-back
  + analysis (post-hoc);
* **peak staging memory** — the price of the staging buffer, bounded by
  the queue depth;
* **backpressure** — producer stalls (block policy) or dropped steps
  (discard policy) when consumers cannot keep up;
* **storage bytes avoided** — everything that never hits the filesystem
  (the checkpoint tee is the only storage the streaming path pays).

Both sides charge the same nominal compute per step; points route
through the cached sweep executor like every other figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.presets import dardel
from repro.experiments.common import resolve_machine, subset
from repro.experiments.points import posthoc_report, streaming_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table
from repro.util.units import to_gib
from repro.workloads.presets import paper_use_case

#: staging queue-depth sweep (steps buffered before backpressure)
QUEUE_DEPTHS = (1, 2, 4)
#: node-count sweep (the paper's small/mid/large scales)
NODE_COUNTS = (2, 10, 50)
#: nominal compute seconds per simulation step (stands in for the PIC
#: cycle, which the scaled runs do not execute)
COMPUTE_SECONDS_PER_STEP = 0.005


@dataclass
class StreamingRow:
    """One (nodes, queue depth) cell of the comparison."""

    nodes: int
    queue_depth: int
    ttfi_insitu_s: float
    ttfi_posthoc_s: float
    makespan_insitu_s: float
    makespan_posthoc_s: float
    peak_staging_gib: float
    stalls: int
    stall_seconds: float
    dropped: int
    storage_avoided_gib: float

    @property
    def insitu_wins_ttfi(self) -> bool:
        """First insight before the file-based job even finishes?"""
        return self.ttfi_insitu_s < self.makespan_posthoc_s


@dataclass
class StreamingResult:
    """The post-hoc vs in-situ sweep on one machine."""

    machine: str
    policy: str
    total_steps: int
    rows: list[StreamingRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def insitu_wins(self) -> list[int]:
        """Node counts where in-situ first insight beats the file-based
        makespan at every swept queue depth."""
        nodes = sorted({r.nodes for r in self.rows})
        return [n for n in nodes
                if all(r.insitu_wins_ttfi for r in self.rows
                       if r.nodes == n)]

    def to_table(self) -> Table:
        t = Table(["nodes", "depth", "TTFI in-situ [s]", "TTFI file [s]",
                   "makespan in-situ [s]", "makespan file [s]",
                   "peak staging [GiB]", "stalls", "stall [s]", "dropped",
                   "storage avoided [GiB]"],
                  title=f"Post-hoc vs in-situ streaming on {self.machine} "
                        f"({self.policy} policy, {self.total_steps} steps)")
        for r in self.rows:
            t.add_row([r.nodes, r.queue_depth,
                       f"{r.ttfi_insitu_s:.1f}", f"{r.ttfi_posthoc_s:.1f}",
                       f"{r.makespan_insitu_s:.1f}",
                       f"{r.makespan_posthoc_s:.1f}",
                       f"{r.peak_staging_gib:.3f}", r.stalls,
                       f"{r.stall_seconds:.2f}", r.dropped,
                       f"{r.storage_avoided_gib:.2f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def run_streaming(machine=None, node_counts=NODE_COUNTS,
                  queue_depths=QUEUE_DEPTHS, policy: str = "block",
                  quick: bool = False, seed: int = 0,
                  compute_seconds_per_step: float = COMPUTE_SECONDS_PER_STEP,
                  config=None) -> StreamingResult:
    """Sweep node counts × queue depths, in-situ vs post-hoc."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    node_counts = subset(tuple(node_counts), quick)
    queue_depths = subset(tuple(queue_depths), quick)
    if config is None:
        # shortened runs that keep both cadences: diagnostics every 1K
        # steps, checkpoints at the paper's dmpstep (or a scaled-down
        # one in quick mode) so the sweep exercises the big staged steps
        config = (paper_use_case().with_(last_step=4_000, dmpstep=2_000)
                  if quick else paper_use_case().with_(last_step=20_000))

    post = sweep(posthoc_report,
                 [{"machine": machine, "nodes": n, "config": config,
                   "compute_seconds_per_step": compute_seconds_per_step,
                   "seed": seed} for n in node_counts])
    stream_points = [{"machine": machine, "nodes": n, "config": config,
                      "queue_depth": q, "policy": policy,
                      "compute_seconds_per_step": compute_seconds_per_step,
                      "seed": seed}
                     for n in node_counts for q in queue_depths]
    streams = sweep(streaming_report, stream_points)

    result = StreamingResult(machine=machine.name, policy=policy,
                             total_steps=config.last_step)
    by_nodes = dict(zip(node_counts, post))
    for point, rep in zip(stream_points, streams):
        base = by_nodes[point["nodes"]]
        result.rows.append(StreamingRow(
            nodes=point["nodes"], queue_depth=point["queue_depth"],
            ttfi_insitu_s=rep["ttfi"] if rep["ttfi"] is not None
            else float("inf"),
            ttfi_posthoc_s=base["ttfi"],
            makespan_insitu_s=rep["makespan"],
            makespan_posthoc_s=base["makespan"],
            peak_staging_gib=to_gib(rep["peak_staging_bytes"]),
            stalls=rep["stalls"], stall_seconds=rep["stall_seconds"],
            dropped=rep["dropped"],
            storage_avoided_gib=to_gib(rep["storage_bytes_avoided"])))

    wins = result.insitu_wins()
    result.notes.append(
        f"in-situ first insight beats the file-based makespan at "
        f"{len(wins)}/{len(node_counts)} scales: {wins}")
    blocked = [r for r in result.rows if r.stalls or r.dropped]
    if blocked:
        worst = max(blocked, key=lambda r: (r.stall_seconds, r.dropped))
        result.notes.append(
            f"backpressure: depth {worst.queue_depth} at {worst.nodes} "
            f"nodes saw {worst.stalls} stall(s) ({worst.stall_seconds:.2f} "
            f"s) / {worst.dropped} drop(s)")
    return result

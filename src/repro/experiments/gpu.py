"""GPU/hybrid staging: host-staged vs GDS checkpoint drain throughput.

The write plane's Table-II scenario assumed the particle blocks start in
host memory.  On a hybrid partition they start in device HBM, and the
checkpoint path gains one more leg — device → pinned host staging →
aggregation funnel, or device → storage directly over GPUDirect
Storage.  This driver sweeps that leg at Table-II scale (200 nodes ×
128 ranks = 25 600 ranks) across staging mode × aggregator count ×
GPUs/node and asks where each mode wins:

* **few GPUs/node** — each device drains a large payload through many
  bounded staging turnarounds; the bounce buffer becomes the
  bottleneck and GDS's direct path wins despite its slower wire;
* **many GPUs/node** — per-device payloads shrink below the staging
  window, turnarounds stop mattering, and the faster host link beats
  the GDS wire.

The crossover point between those regimes is the artifact's headline
check (``results/gpu_staging.json``).  Points route through the cached
sweep executor; the machine is rebuilt inside the point function from
``gpus_per_node`` so every cell is a pure function of its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.presets import dardel_gpu
from repro.experiments.common import resolve_machine, subset, write_artifact
from repro.experiments.points import openpmd_report
from repro.experiments.sweep import sweep
from repro.gpu import HybridConfig
from repro.util.tables import Table
from repro.util.units import MiB, to_gib

#: staging modes swept (host bounce buffer vs GPUDirect Storage)
MODES = ("host", "gds")
#: aggregator counts (the Fig. 6 sweet spot and 4x beyond it)
AGGREGATORS = (400, 1600)
#: devices per node (1 = one big payload per device, 8 = many small)
GPUS_PER_NODE = (1, 4, 8)
#: Table-II scale: 200 nodes x 128 ranks = 25 600 ranks
NODES = 200
#: pinned bounce-buffer bound per device [MiB] (double-buffered)
STAGING_MIB = 2


def gpu_report(machine, nodes: int, mode: str, gpus_per_node: int,
               staging_mib: int, **run) -> dict:
    """One hybrid scaled run; module-level so the sweep can memoise it.

    ``machine`` provides the device template (its first
    :class:`~repro.cluster.machine.GpuSpec`) and everything else; the
    node is rebuilt with ``gpus_per_node`` copies of that device;
    ``run`` goes on to :func:`repro.experiments.points.openpmd_report`.
    """
    m = resolve_machine(machine)
    if not m.node.gpus:
        raise ValueError(f"{m.name} is not a GPU machine preset")
    device = m.node.gpus[0]
    m = replace(m, node=replace(m.node, gpus=(device,) * gpus_per_node))
    report = openpmd_report(
        m, nodes, async_drain=True,
        hybrid=HybridConfig(mode=mode, staging_bytes=staging_mib * MiB),
        **run)
    return {**report["gpu"], "makespan_s": report["makespan"]}


@dataclass
class GpuRow:
    """One (mode, aggregators, GPUs/node) cell."""

    mode: str
    aggregators: int
    gpus_per_node: int
    makespan_s: float
    staged_gib: float
    drain_seconds_max: float
    stall_seconds_max: float
    turnarounds: int
    #: aggregate staging throughput: all devices drain in parallel, the
    #: job waits for the longest pole, so total bytes / max leg seconds
    staging_gibps: float
    peak_staging_mib: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class GpuResult:
    """The hybrid staging sweep on one GPU machine."""

    machine: str
    nodes: int
    nranks: int
    staging_mib: int
    engine: str
    seed: int
    rows: list[GpuRow] = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def row(self, mode: str, aggregators: int,
            gpus_per_node: int) -> GpuRow | None:
        for r in self.rows:
            if (r.mode, r.aggregators, r.gpus_per_node) == (
                    mode, aggregators, gpus_per_node):
                return r
        return None

    def _check_cells(self) -> dict:
        """Acceptance checks over whichever cells were swept.

        * GDS beats host staging once the bounce buffer is the
          bottleneck (fewest GPUs/node: biggest per-device payload,
          most turnarounds);
        * host staging beats GDS once per-device payloads shrink under
          the staging window (most GPUs/node);
        * therefore a crossover GPUs/node exists between the two, and
          the artifact records the interval;
        * GDS never touches host staging memory (zero residency);
        * bounded host staging at the biggest payload actually stalls
          (the mechanism behind the GDS win is visible in the trace).
        """
        checks: dict = {}
        aggs = sorted({r.aggregators for r in self.rows})
        gs = sorted({r.gpus_per_node for r in self.rows})
        if not aggs or not gs:
            return checks
        a0 = aggs[0]

        def pair(g):
            return self.row("host", a0, g), self.row("gds", a0, g)

        host_lo, gds_lo = pair(gs[0])
        if host_lo is not None and gds_lo is not None:
            checks["gds_beats_host_staging_bound"] = {
                "pass": gds_lo.staging_gibps > host_lo.staging_gibps,
                "gpus_per_node": gs[0],
                "gds_gibps": gds_lo.staging_gibps,
                "host_gibps": host_lo.staging_gibps}
        host_hi, gds_hi = pair(gs[-1])
        if host_hi is not None and gds_hi is not None and len(gs) > 1:
            checks["host_beats_gds_many_gpus"] = {
                "pass": host_hi.staging_gibps > gds_hi.staging_gibps,
                "gpus_per_node": gs[-1],
                "gds_gibps": gds_hi.staging_gibps,
                "host_gibps": host_hi.staging_gibps}
        # crossover: the winner flips somewhere along the GPUs/node axis
        winners = []
        for g in gs:
            host, gds = pair(g)
            if host is not None and gds is not None:
                winners.append(
                    (g, "gds" if gds.staging_gibps > host.staging_gibps
                     else "host"))
        flip = None
        for (g_lo, w_lo), (g_hi, w_hi) in zip(winners, winners[1:]):
            if w_lo == "gds" and w_hi == "host":
                flip = (g_lo, g_hi)
                break
        checks["crossover"] = {
            "pass": flip is not None,
            "between_gpus_per_node": list(flip) if flip else None,
            "winners": {str(g): w for g, w in winners},
            "aggregators": a0}
        gds_rows = [r for r in self.rows if r.mode == "gds"]
        if gds_rows:
            checks["gds_zero_host_residency"] = {
                "pass": all(r.peak_staging_mib == 0.0 for r in gds_rows),
                "max_peak_mib": max(r.peak_staging_mib for r in gds_rows)}
        if host_lo is not None:
            checks["host_staging_stalls"] = {
                "pass": host_lo.stall_seconds_max > 0.0,
                "stall_seconds_max": host_lo.stall_seconds_max,
                "turnarounds": host_lo.turnarounds}
        return checks

    def to_artifact(self) -> dict:
        return {
            "experiment": "gpu",
            "machine": self.machine,
            "nodes": self.nodes,
            "nranks": self.nranks,
            "staging_mib": self.staging_mib,
            "engine": self.engine,
            "seed": self.seed,
            "checks": self.checks,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_table(self) -> Table:
        t = Table(["mode", "aggr", "GPUs/node", "staged [GiB]",
                   "drain max [s]", "stall max [s]", "turns",
                   "staging [GiB/s]", "peak stage [MiB]", "makespan [s]"],
                  title=f"Hybrid staging on {self.machine} "
                        f"({self.nodes} nodes, {self.nranks} ranks, "
                        f"{self.staging_mib} MiB staging, {self.engine})")
        for r in self.rows:
            t.add_row([r.mode, r.aggregators, r.gpus_per_node,
                       f"{r.staged_gib:.2f}",
                       f"{r.drain_seconds_max:.4f}",
                       f"{r.stall_seconds_max:.4f}", r.turnarounds,
                       f"{r.staging_gibps:.1f}",
                       f"{r.peak_staging_mib:.1f}",
                       f"{r.makespan_s:.2f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        for name, c in sorted(self.checks.items()):
            status = "pass" if c.get("pass") else "FAIL"
            detail = ", ".join(f"{k}={v:.3f}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in c.items()
                               if k != "pass")
            out += f"\n  check {name}: {status} ({detail})"
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def run_gpu(machine=None, modes=MODES, aggregators=AGGREGATORS,
            gpus_per_node=GPUS_PER_NODE, nodes: int = NODES,
            staging_mib: int = STAGING_MIB, engine_ext: str = ".bp5",
            quick: bool = False, seed: int = 0, config=None,
            artifact_path: str | None = None) -> GpuResult:
    """Sweep staging mode × aggregators × GPUs/node at Table-II scale.

    ``quick`` shrinks the job to 20 nodes and one aggregator count but
    keeps the full GPUs/node axis — the crossover is a per-device
    property, so it survives the shrink and the smoke test still sees
    it.
    """
    machine = resolve_machine(machine) if machine is not None \
        else dardel_gpu()
    modes = tuple(modes)
    aggregators = subset(tuple(aggregators), quick)
    gpus_per_node = tuple(gpus_per_node)
    if quick:
        full = nodes
        nodes = min(nodes, 20)
        # fewer ranks share the same total particle count, so per-rank
        # (and per-device) payloads grow by the shrink factor; scale the
        # staging bound with them so the quick sweep crosses the same
        # bounded/unbounded regimes as the full-scale one
        staging_mib = staging_mib * max(1, full // nodes)

    points = [{"machine": machine, "nodes": nodes, "mode": mode,
               "num_aggregators": agg, "gpus_per_node": g,
               "staging_mib": staging_mib, "engine_ext": engine_ext,
               "seed": seed, "config": config}
              for mode in modes for agg in aggregators
              for g in gpus_per_node]
    reports = sweep(gpu_report, points)

    result = GpuResult(
        machine=machine.name, nodes=nodes,
        nranks=nodes * machine.cores_per_node,
        staging_mib=staging_mib, engine=engine_ext.strip("."), seed=seed)
    for point, rep in zip(points, reports):
        drain = rep["drain_seconds_max"]
        result.rows.append(GpuRow(
            mode=point["mode"], aggregators=point["num_aggregators"],
            gpus_per_node=point["gpus_per_node"],
            makespan_s=rep["makespan_s"],
            staged_gib=to_gib(rep["staged_bytes"]),
            drain_seconds_max=drain,
            stall_seconds_max=rep["stall_seconds_max"],
            turnarounds=rep["turnarounds"],
            staging_gibps=(to_gib(rep["staged_bytes"]) / drain
                           if drain > 0.0 else 0.0),
            peak_staging_mib=rep["peak_staging_bytes"] / MiB))

    result.checks = result._check_cells()
    failed = [k for k, c in result.checks.items() if not c.get("pass")]
    result.notes.append(
        f"{len(result.checks) - len(failed)}/{len(result.checks)} "
        f"acceptance checks pass"
        + (f"; failing: {failed}" if failed else ""))
    if artifact_path is not None:
        write_artifact(artifact_path, result.to_artifact())
        result.notes.append(f"artifact written to {artifact_path}")
    return result

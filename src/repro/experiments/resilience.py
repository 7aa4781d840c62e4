"""Resilience sweep — MTBF × checkpoint interval on the dardel preset.

The paper's §VI names "continuing with checkpoint restarts towards
evaluating and improving resilience capabilities" as the next step; this
driver is that evaluation.  It answers the operational question behind
every ``dmpstep`` choice: given a machine failure rate, how often should
BIT1 checkpoint?

Method:

1. **Measure** the per-checkpoint wall cost on the virtual machine: two
   scaled openPMD runs of the same config, one with checkpoints on the
   paper's cadence and one with checkpointing disabled; the wall-time
   delta divided by the checkpoint count is the measured cost (the
   second run also carries a ``summary`` trace whose per-layer breakdown
   lands in the notes).
2. **Replay** a seeded failure timeline (exponential inter-failure times
   per MTBF, drawn from a named RNG stream, so the sweep is exactly
   reproducible) against each checkpoint interval: completed work
   advances block by block, a crash rolls back to the last checkpoint
   and pays a restart penalty, and the run completes when the paper's
   200K steps are done.

Reported per (MTBF, interval): crash count, checkpoint overhead, lost
(re-executed) work, time-to-solution, and waste relative to the
failure-free, checkpoint-free ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.presets import dardel
from repro.experiments.common import resolve_machine, subset, write_artifact
from repro.experiments.points import openpmd_report
from repro.util.rng import make_rng
from repro.util.tables import Table
from repro.workloads.datamodel import Bit1DataModel
from repro.workloads.presets import paper_use_case

#: MTBF sweep, hours (machine-wide failure rate seen by the job)
MTBF_HOURS = (2.0, 6.0, 24.0)
#: checkpoint-interval sweep, steps (the ``dmpstep`` candidates)
CKPT_INTERVALS = (1_000, 5_000, 10_000, 20_000)
#: nominal compute seconds per step for the 200K-step job (the scaled
#: runs charge only I/O; this stands in for the PIC cycle itself)
COMPUTE_SECONDS_PER_STEP = 0.05
#: seconds to requeue, relaunch and restore after a crash
RESTART_PENALTY_SECONDS = 120.0


@dataclass
class ResilienceRow:
    """One (MTBF, interval) cell of the sweep."""

    mtbf_hours: float
    interval: int
    n_crashes: int
    ckpt_overhead_s: float
    lost_work_s: float
    time_to_solution_s: float
    wasted_pct: float


@dataclass
class ResilienceResult:
    """The sweep plus the measured checkpoint cost it is built on."""

    machine: str
    nodes: int
    ckpt_cost_s: float
    step_seconds: float
    total_steps: int
    rows: list[ResilienceRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def best_interval(self, mtbf_hours: float) -> int:
        """The interval minimising time-to-solution for one MTBF."""
        rows = [r for r in self.rows if r.mtbf_hours == mtbf_hours]
        if not rows:
            raise KeyError(f"no rows for MTBF {mtbf_hours} h")
        return min(rows, key=lambda r: r.time_to_solution_s).interval

    def to_table(self) -> Table:
        t = Table(["MTBF [h]", "interval", "crashes", "ckpt ovh [s]",
                   "lost work [s]", "TTS [h]", "waste [%]"],
                  title=f"Resilience sweep on {self.machine} "
                        f"({self.nodes} nodes, {self.total_steps} steps)")
        for r in self.rows:
            t.add_row([f"{r.mtbf_hours:g}", r.interval, r.n_crashes,
                       f"{r.ckpt_overhead_s:.1f}", f"{r.lost_work_s:.1f}",
                       f"{r.time_to_solution_s / 3600.0:.3f}",
                       f"{r.wasted_pct:.2f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def _replay(total_steps: int, step_s: float, interval: int,
            ckpt_cost_s: float, mtbf_s: float, rng) -> ResilienceRow:
    """Walk one failure timeline against one checkpoint cadence."""
    wall = 0.0
    completed = 0
    n_crashes = 0
    ckpt_overhead = 0.0
    lost_work = 0.0
    next_fail = wall + float(rng.exponential(mtbf_s))
    while completed < total_steps:
        block = min(interval, total_steps - completed)
        block_time = block * step_s + ckpt_cost_s
        if wall + block_time >= next_fail:
            # the crash interrupts this block: everything since the last
            # checkpoint is lost and the job restarts from it
            lost_work += max(next_fail - wall, 0.0)
            wall = next_fail + RESTART_PENALTY_SECONDS
            next_fail = wall + float(rng.exponential(mtbf_s))
            n_crashes += 1
            continue
        wall += block_time
        completed += block
        ckpt_overhead += ckpt_cost_s
    ideal = total_steps * step_s
    return ResilienceRow(
        mtbf_hours=mtbf_s / 3600.0,
        interval=interval,
        n_crashes=n_crashes,
        ckpt_overhead_s=ckpt_overhead,
        lost_work_s=lost_work,
        time_to_solution_s=wall,
        wasted_pct=100.0 * (wall - ideal) / wall,
    )


def run_resilience(machine=None, nodes: int = 2, quick: bool = False,
                   seed: int = 0,
                   mtbf_hours=MTBF_HOURS,
                   intervals=CKPT_INTERVALS) -> ResilienceResult:
    """Measure the checkpoint cost, then sweep MTBF × interval."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    mtbf_hours = subset(tuple(mtbf_hours), quick)
    intervals = subset(tuple(intervals), quick)

    # measurement config: one short scaled run with the paper's
    # checkpoint cadence, one with checkpointing pushed past last_step
    meas_steps = 2_000 if quick else 10_000
    cfg_ckpt = paper_use_case().with_(last_step=meas_steps,
                                      datfile=1_000, dmpstep=1_000)
    cfg_none = cfg_ckpt.with_(dmpstep=meas_steps * 2)
    rep_ckpt = openpmd_report(machine, nodes, config=cfg_ckpt, seed=seed)
    rep_none = openpmd_report(machine, nodes, config=cfg_none, seed=seed,
                              trace_mode="summary")
    n_ckpts = meas_steps // cfg_ckpt.dmpstep
    ckpt_cost = max(
        (rep_ckpt["makespan"] - rep_none["makespan"]) / n_ckpts, 0.0)

    total_steps = paper_use_case().last_step
    step_s = (COMPUTE_SECONDS_PER_STEP
              + rep_none["makespan"] / cfg_none.last_step)

    result = ResilienceResult(
        machine=machine.name, nodes=nodes, ckpt_cost_s=ckpt_cost,
        step_seconds=step_s, total_steps=total_steps)
    result.notes.append(
        f"measured checkpoint cost {ckpt_cost:.2f} s, effective step time "
        f"{step_s * 1e3:.2f} ms (incl. {COMPUTE_SECONDS_PER_STEP * 1e3:.0f} "
        f"ms nominal compute), restart penalty "
        f"{RESTART_PENALTY_SECONDS:.0f} s")
    result.notes.append("I/O layer breakdown of the measurement run:")
    result.notes.extend(rep_none["breakdown"].splitlines())

    for mtbf_h in mtbf_hours:
        # one seeded timeline per MTBF, shared across intervals, so the
        # interval comparison sees identical failure times
        for interval in intervals:
            rng = make_rng(seed, "resilience", mtbf_h, interval)
            result.rows.append(_replay(
                total_steps, step_s, int(interval), ckpt_cost,
                mtbf_h * 3600.0, rng))
        best = result.best_interval(mtbf_h)
        result.notes.append(
            f"MTBF {mtbf_h:g} h: best checkpoint interval {best} steps")
    return result


# -- multi-level sweep (tier policy × MTBF × interval) ------------------------
#
# The headline question of the resilience plane: where does multi-level
# checkpointing keep machine efficiency flat while single-level PFS
# checkpointing at its own Young/Daly-optimal interval collapses?
# Failure statistics follow the SCR measurements (Moody et al., SC'10):
# the large majority of failures take out a single node, which a
# partner/XOR tier recovers *in allocation* at NIC speed — no PFS read,
# no requeue.

#: fraction of failures confined to one node (recoverable from the
#: memory tiers when partner/XOR redundancy is on)
SINGLE_NODE_FRACTION = 0.9
#: seconds to swap in a spare node and resume inside the allocation
IN_ALLOCATION_RESTART_SECONDS = 10.0
#: extended MTBF sweep, hours — reaches the regime where PFS-only
#: checkpointing collapses
MULTILEVEL_MTBF_HOURS = (0.5, 2.0, 6.0, 24.0)


def young_daly_interval_s(ckpt_cost_s: float, mtbf_s: float) -> float:
    """The classic single-level optimum T = sqrt(2 * delta * MTBF)."""
    return math.sqrt(2.0 * max(ckpt_cost_s, 1e-9) * mtbf_s)


@dataclass
class TierCosts:
    """Per-checkpoint tier costs derived from the machine model."""

    l0_s: float          # node-local staging at memory bandwidth
    l1_s: float          # partner copy over the NIC
    l2_s: float          # XOR ring-reduce over the NIC (per member)
    l3_s: float          # measured PFS checkpoint cost
    pfs_read_s: float    # reading one checkpoint back from the PFS
    tier_restore_s: float  # rebuilding one node from partner/parity


@dataclass
class MultiLevelRow:
    """One (policy, MTBF, interval) cell."""

    policy: str
    mtbf_hours: float
    interval: int
    n_failures: int
    n_memory_recoveries: int
    n_pfs_recoveries: int
    ckpt_overhead_s: float
    lost_work_s: float
    time_to_solution_s: float
    efficiency: float


@dataclass
class MultiLevelResult:
    """Tiered policies vs the single-level Young/Daly baseline."""

    machine: str
    nodes: int
    costs: TierCosts
    total_steps: int
    step_seconds: float
    rows: list[MultiLevelRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def best_rows(self) -> list[MultiLevelRow]:
        """Per (policy, MTBF): the interval with the best efficiency."""
        best: dict[tuple[str, float], MultiLevelRow] = {}
        for r in self.rows:
            key = (r.policy, r.mtbf_hours)
            if key not in best or r.efficiency > best[key].efficiency:
                best[key] = r
        return [best[k] for k in sorted(best)]

    def efficiency_curves(self) -> dict[str, list[dict]]:
        """policy -> [{mtbf_hours, efficiency, interval}] (the artifact)."""
        curves: dict[str, list[dict]] = {}
        for r in self.best_rows():
            curves.setdefault(r.policy, []).append({
                "mtbf_hours": r.mtbf_hours,
                "efficiency": r.efficiency,
                "interval": r.interval,
            })
        for curve in curves.values():
            curve.sort(key=lambda p: p["mtbf_hours"])
        return curves

    def to_artifact(self) -> dict:
        return {
            "experiment": "resilience_multilevel",
            "machine": self.machine,
            "nodes": self.nodes,
            "total_steps": self.total_steps,
            "step_seconds": self.step_seconds,
            "tier_costs_s": {
                "l0": self.costs.l0_s, "l1": self.costs.l1_s,
                "l2": self.costs.l2_s, "l3": self.costs.l3_s,
                "pfs_read": self.costs.pfs_read_s,
                "tier_restore": self.costs.tier_restore_s,
            },
            "single_node_fraction": SINGLE_NODE_FRACTION,
            "efficiency_vs_mtbf": self.efficiency_curves(),
        }

    def to_table(self) -> Table:
        t = Table(["policy", "MTBF [h]", "interval", "failures",
                   "mem rec", "PFS rec", "ovh [s]", "lost [s]",
                   "TTS [h]", "efficiency"],
                  title=f"Multi-level resilience sweep on {self.machine} "
                        f"({self.nodes} nodes, {self.total_steps} steps)")
        for r in self.best_rows():
            t.add_row([r.policy, f"{r.mtbf_hours:g}", r.interval,
                       r.n_failures, r.n_memory_recoveries,
                       r.n_pfs_recoveries, f"{r.ckpt_overhead_s:.0f}",
                       f"{r.lost_work_s:.0f}",
                       f"{r.time_to_solution_s / 3600.0:.3f}",
                       f"{r.efficiency:.4f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def _replay_multilevel(total_steps: int, step_s: float, interval: int,
                       policy: str, costs: TierCosts, l3_every: int,
                       mtbf_s: float, rng) -> MultiLevelRow:
    """Walk one failure timeline under one tier policy.

    ``pfs-only``: every checkpoint is a synchronous L3 write; every
    failure rolls back to the last checkpoint and pays a PFS read plus
    the full requeue penalty — the Young/Daly world.

    ``partner``/``xor``: every checkpoint is staged to L0 and promoted
    to the memory tier; every ``l3_every``-th is also flushed to the PFS
    asynchronously (overhead only when the flush outruns its window).  A
    single-node failure recovers from the memory tier in allocation;
    a multi-node failure falls back to the last *flushed* generation
    and pays the PFS read plus requeue.
    """
    tiered = policy != "pfs-only"
    if tiered:
        tier_s = costs.l1_s if policy == "partner" else costs.l2_s
        window = l3_every * interval * step_s
        per_ckpt = costs.l0_s + tier_s + max(0.0, costs.l3_s - window) \
            / l3_every
    else:
        per_ckpt = costs.l3_s
    wall = 0.0
    completed = 0
    last_l3 = 0            # newest generation on the PFS (steps)
    ckpts_since_l3 = 0
    n_failures = n_mem = n_pfs = 0
    ckpt_overhead = 0.0
    lost_work = 0.0
    next_fail = wall + float(rng.exponential(mtbf_s))
    while completed < total_steps:
        block = min(interval, total_steps - completed)
        block_time = block * step_s + per_ckpt
        if wall + block_time >= next_fail:
            n_failures += 1
            lost_since_ckpt = max(next_fail - wall, 0.0)
            single = tiered and float(rng.random()) < SINGLE_NODE_FRACTION
            if single:
                # memory-tier rebuild: roll back only to the last
                # checkpoint, resume inside the allocation
                n_mem += 1
                lost_work += lost_since_ckpt
                wall = next_fail + costs.tier_restore_s \
                    + IN_ALLOCATION_RESTART_SECONDS
            else:
                # beyond redundancy (or single-level): back to the last
                # PFS generation, full requeue
                n_pfs += 1
                rollback = (completed - last_l3) * step_s + lost_since_ckpt
                lost_work += rollback
                completed = last_l3
                ckpts_since_l3 = 0
                wall = next_fail + costs.pfs_read_s \
                    + RESTART_PENALTY_SECONDS
            next_fail = wall + float(rng.exponential(mtbf_s))
            continue
        wall += block_time
        completed += block
        ckpt_overhead += per_ckpt
        ckpts_since_l3 += 1
        if not tiered or ckpts_since_l3 >= l3_every:
            last_l3 = completed
            ckpts_since_l3 = 0
    ideal = total_steps * step_s
    return MultiLevelRow(
        policy=policy, mtbf_hours=mtbf_s / 3600.0, interval=interval,
        n_failures=n_failures, n_memory_recoveries=n_mem,
        n_pfs_recoveries=n_pfs, ckpt_overhead_s=ckpt_overhead,
        lost_work_s=lost_work, time_to_solution_s=wall,
        efficiency=ideal / wall)


def run_resilience_multilevel(machine=None, nodes: int = 2,
                              quick: bool = False, seed: int = 0,
                              mtbf_hours=MULTILEVEL_MTBF_HOURS,
                              intervals=CKPT_INTERVALS,
                              ranks_per_node: int = 128,
                              l3_every: int = 4,
                              artifact_path: str | None = None,
                              ) -> MultiLevelResult:
    """Sweep tier policy × MTBF × interval against the Young/Daly optimum.

    The L3 (PFS) checkpoint cost is *measured* on the virtual machine
    exactly as :func:`run_resilience` measures it; the memory-tier costs
    follow from the machine model (node memory bandwidth, NIC rate) and
    the data model's checkpoint volume.  The single-level baseline runs
    at its own Young/Daly-optimal interval per MTBF — the strongest
    version of the world the tiered policies are compared against.
    """
    machine = resolve_machine(machine) if machine is not None else dardel()
    mtbf_hours = subset(tuple(mtbf_hours), quick)
    intervals = subset(tuple(intervals), quick)

    base = run_resilience(machine=machine, nodes=nodes, quick=quick,
                          seed=seed, mtbf_hours=mtbf_hours[:1],
                          intervals=intervals[:1])
    nranks = nodes * ranks_per_node
    model = Bit1DataModel(paper_use_case(), nranks)
    node_bytes = float(np.mean(model.ckpt_bytes_per_rank())) * ranks_per_node
    nic = machine.network.nic_bandwidth
    lat = machine.network.latency
    costs = TierCosts(
        l0_s=node_bytes / machine.node.memory_bandwidth,
        l1_s=lat + node_bytes / nic,
        l2_s=lat + node_bytes / nic,
        l3_s=max(base.ckpt_cost_s, 1e-3),
        pfs_read_s=max(base.ckpt_cost_s, 1e-3),
        tier_restore_s=lat + node_bytes / nic,
    )

    result = MultiLevelResult(
        machine=machine.name, nodes=nodes, costs=costs,
        total_steps=base.total_steps, step_seconds=base.step_seconds)
    result.notes.append(
        f"tier costs per checkpoint: L0 {costs.l0_s * 1e3:.2f} ms, "
        f"L1/L2 {costs.l1_s * 1e3:.2f} ms, L3 {costs.l3_s:.2f} s "
        f"(measured); {SINGLE_NODE_FRACTION:.0%} of failures single-node")

    step_s = base.step_seconds
    for mtbf_h in mtbf_hours:
        mtbf_s = mtbf_h * 3600.0
        # the baseline checkpoints at its own optimum — Young/Daly
        daly_steps = max(1, int(round(
            young_daly_interval_s(costs.l3_s, mtbf_s) / step_s)))
        rng = make_rng(seed, "resilience-ml", "pfs-only", mtbf_h)
        result.rows.append(_replay_multilevel(
            base.total_steps, step_s, daly_steps, "pfs-only", costs,
            l3_every, mtbf_s, rng))
        for policy in ("partner", "xor"):
            for interval in intervals:
                rng = make_rng(seed, "resilience-ml", policy, mtbf_h,
                               interval)
                result.rows.append(_replay_multilevel(
                    base.total_steps, step_s, int(interval), policy,
                    costs, l3_every, mtbf_s, rng))
        daly_row = next(r for r in result.rows
                        if r.policy == "pfs-only"
                        and r.mtbf_hours == mtbf_h)
        result.notes.append(
            f"MTBF {mtbf_h:g} h: Young/Daly interval {daly_steps} steps, "
            f"baseline efficiency {daly_row.efficiency:.4f}")

    if artifact_path is not None:
        write_artifact(artifact_path, result.to_artifact())
        result.notes.append(f"artifact written to {artifact_path}")
    return result

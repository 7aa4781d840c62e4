"""Scaled job runner: full-size BIT1 runs on the virtual cluster.

Executes the paper's 1-to-200-node experiments with synthetic payloads:
the control flow (file creates, buffered appends, fsyncs, chunk stores,
aggregation, collective writes, metadata appends) is executed for real
through the same POSIX/ADIOS2/openPMD layers the functional runs use,
while the byte volumes come from :class:`~repro.workloads.datamodel.
Bit1DataModel` and time from the storage performance model.  Each run
yields a Darshan log plus the filesystem for the file census.
"""

from __future__ import annotations

import base64
import json
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.adios2.engine import EngineConfig, IntegrityError
from repro.adios2.profiling import EngineProfile
from repro.cluster.machine import Machine, StorageSystem
from repro.darshan.log import DarshanLog
from repro.darshan.runtime import DarshanMonitor
from repro.faults import FaultPlan, NodeCrashError, RetryPolicy, install_faults
from repro.fs.lustre import LustreFilesystem
from repro.fs.mount import MountedFilesystem, mount
from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.posix import PosixIO
from repro.fs.stdio import DEFAULT_BUFSIZE
from repro.fs.vfs import FileNotFound
from repro.gpu.hybrid import HybridConfig, HybridStager
from repro.io_adaptor.checkpoint import restore_from_openpmd, restore_from_original
from repro.io_adaptor.openpmd_adaptor import Bit1OpenPMDWriter
from repro.io_adaptor.original import CorruptCheckpointError, OriginalIOWriter
from repro.mem import (
    MemoryBudget,
    SplitValues,
    blocks,
    current_budget,
    derive_block_size,
    installed_budget,
    use_budget,
)
from repro.mpi.comm import VirtualComm, comm_for_nodes
from repro.openpmd.config import SeriesOptions
from repro.openpmd.record import Dataset
from repro.openpmd.series import Access, Series
from repro.pic.config import Bit1Config
from repro.pic.simulation import Bit1Simulation
from repro.resilience import CheckpointPolicy, MultiLevelStore
from repro.resilience.recovery import recover as _tiered_recover
from repro.trace.session import TraceSession
from repro.util.rng import RngRegistry, stream_seed
from repro.workloads.datamodel import (
    ORIGINAL_DIAG_TEXT_PER_RANK,
    ORIGINAL_FILE_HEADER,
    ORIGINAL_GLOBAL_FILE_BYTES,
    ORIGINAL_GLOBAL_FILES,
    Bit1DataModel,
)
from repro.workloads.presets import paper_use_case


#: rank-block size for the startup reads.  A *fixed* constant — not the
#: engine's ``RankBlockSize`` — so every run sees the identical startup
#: event sequence regardless of flush chunking (the per-file cumulative
#: time folds in event order, so the sequence itself is part of the
#: bit-identity contract).  Below this many ranks the loop is a single
#: window, byte-for-byte the pre-chunking behaviour.  Per-rank costs and
#: counters are invariant to this value (metadata costs use the phase's
#: client count and ``clients=`` pins read contention), so it is sized
#: purely for the transient working set: the block's rank ids, fds, byte
#: counts and descriptor-table rows, all O(block) arrays.
STARTUP_READ_BLOCK = 8192


def _read_startup_inputs(posix: PosixIO, comm: VirtualComm,
                         model: Bit1DataModel, outdir: str) -> None:
    """Model the read side: every rank reads the 1-3 kB input deck, and a
    restarting run re-reads its checkpoint share ("the time spent on
    reads remains consistent, primarily due to checkpointing", §IV-B).

    Ranks are processed in bounded blocks so the transient working set
    (rank ids, fds, per-rank byte counts) stays O(block) at million-rank
    scale; ``clients=`` pins the cost model to whole-job contention so
    per-op costs match the unchunked call exactly.
    """
    n = comm.size
    input_path = f"{outdir}/bit1.inp"
    fd0 = posix.open(0, input_path, create=True)
    posix.write(0, fd0, SyntheticPayload(3072, "ascii_table"))
    posix.close(0, fd0)
    particle = SplitValues.spread(model.particle_state_bytes, n)
    grid = SplitValues.spread(model.grid_state_bytes, n)
    meta = model.ckpt_meta_bytes_per_rank()
    for lo, hi in blocks(n, STARTUP_READ_BLOCK):
        ranks = comm.rank_range(lo, hi)
        fds = posix.open_group(ranks, [input_path] * (hi - lo), create=False)
        posix.read_group(ranks, fds, 3072, clients=n)
        # restart: re-read the previous checkpoint share
        posix.read_group(ranks, fds,
                         particle.slice(lo, hi) + grid.slice(lo, hi) + meta,
                         clients=n)
        posix.close_group(ranks, fds)
    posix.unlink(0, input_path)  # keep the census focused on outputs


@dataclass
class ScaledRunResult:
    """Everything one scaled run produces."""

    machine: str
    config_label: str
    nodes: int
    nranks: int
    log: DarshanLog
    fs: MountedFilesystem
    comm: VirtualComm
    outdir: str
    profiles: list[EngineProfile] = field(default_factory=list)
    #: the run's instrumentation session; its bus carried every counter
    #: folded into ``log`` and ``profiles`` (None only if tracing was
    #: explicitly torn down)
    trace: TraceSession | None = None
    #: async-drain accounting (openPMD runs): worst resident staging
    #: bytes on any aggregator, total stall waiting on in-flight drains,
    #: and total scheduled drain time (all zero for synchronous runs)
    peak_host_bytes: float = 0.0
    drain_wait_seconds: float = 0.0
    drain_seconds: float = 0.0
    #: memory-plane snapshot (``MemoryBudget.report()``): per-account
    #: used/high-water/spilled bytes of the *simulator's own* residency
    mem_report: dict = field(default_factory=dict)
    #: hybrid staging accounting (``HybridStager.report()``): per-GPU
    #: drain/stall leg seconds and staging residency — empty for
    #: CPU-only runs
    gpu_report: dict = field(default_factory=dict)

    def file_sizes(self) -> np.ndarray:
        return self.fs.vfs.subtree_file_sizes(self.outdir)


def _event_steps(config: Bit1Config) -> list[tuple[int, bool]]:
    """(step, is_checkpoint) milestones, in time order."""
    out = []
    for step in range(config.datfile, config.last_step + 1, config.datfile):
        out.append((step, False))
        if step % config.dmpstep == 0:
            out.append((step, True))
    return out


@contextmanager
def _setup(machine: Machine, nodes: int, ranks_per_node: int,
           storage_name: str | None, seed: int, exe: str,
           trace_mode: str | None = None,
           counter_granularity: str = "rank",
           ) -> Iterator[tuple[VirtualComm, MountedFilesystem, PosixIO,
                               DarshanMonitor, TraceSession, MemoryBudget]]:
    """A scaled run's stack, built and run under the run's memory budget
    (the scaled runners and ``run_streaming_scaled`` share it).

    The budget is the one a caller installed (``use_budget``), else one
    of the run's own: never the process default, whose accounts would
    carry every earlier run's residency into this run's ``mem_report``.
    """
    if nodes < 1 or nodes > machine.num_nodes:
        raise ValueError(
            f"{machine.name} has {machine.num_nodes} nodes; asked for {nodes}")
    storage: StorageSystem = (machine.default_storage if storage_name is None
                              else machine.storage_named(storage_name))
    # run identity feeds the RNG so "storage weather" differs per run
    rng = RngRegistry(stream_seed(seed, machine.name, nodes, exe))
    with use_budget(installed_budget() or MemoryBudget()) as budget:
        fs = mount(storage, rng)
        fs.vfs.configure_memory(budget.account("vfs"))
        comm = comm_for_nodes(nodes, ranks_per_node,
                              latency=machine.network.latency,
                              bandwidth=machine.network.nic_bandwidth,
                              shm_bandwidth=machine.node.memory_bandwidth)
        # one TraceSession per run is the instrumentation spine: the
        # Darshan monitor subscribes to its bus, and PosixIO emits onto
        # the same bus (passing the monitor to PosixIO as well would
        # double-subscribe it)
        monitor = DarshanMonitor(
            comm.size, exe=exe, granularity=counter_granularity,
            node_of_rank=(comm.node_of_rank
                          if counter_granularity == "node" else None),
            mem_account=budget.account("darshan"))
        session = TraceSession(comm, monitor=monitor, mode=trace_mode)
        if budget.has_quotas:
            # only a quota crosses watermarks; an attached bus would tie
            # the run's subscribers into the budget's reference cycle
            # with its accounts, alive until the cyclic collector runs
            budget.attach(session.bus)
        posix = PosixIO(fs, comm, trace=session.bus)
        yield comm, fs, posix, monitor, session, budget


def run_original_scaled(machine: Machine, nodes: int,
                        config: Bit1Config | None = None,
                        ranks_per_node: int = 128,
                        storage_name: str | None = None,
                        seed: int = 0,
                        bufsize: int = DEFAULT_BUFSIZE,
                        fsync_checkpoints: bool = True,
                        trace_mode: str | None = None,
                        fault_plan: FaultPlan | None = None,
                        retry_policy: RetryPolicy | None = None,
                        ) -> ScaledRunResult:
    """Full-scale BIT1 with the original file I/O (Figs. 2-5 baseline).

    ``fsync_checkpoints=False`` ablates the crash-safety fsyncs (the
    mechanism behind the paper's metadata mountain) — used by the
    ablation benches.  ``trace_mode`` selects the instrumentation depth
    (None: counters only; "summary": streaming per-layer breakdown;
    "full": retain the raw event stream — test scale only).
    ``fault_plan`` injects seeded failures into the run; recoverable ones
    are retried under ``retry_policy``, node crashes raise
    :class:`~repro.faults.NodeCrashError`.
    """
    config = config or paper_use_case()
    with _setup(machine, nodes, ranks_per_node, storage_name, seed,
                "bit1-original", trace_mode) as (
            comm, fs, posix, monitor, session, budget):
        injector = (install_faults(posix, fault_plan, retry_policy)
                    if fault_plan is not None else None)
        model = Bit1DataModel(config, comm.size)
        outdir = "/scratch/bit1_original"
        posix.mkdir(0, outdir, parents=True)
        ranks = comm.rank_range()

        dat_paths = [f"{outdir}/bit1_r{r:05d}.dat" for r in ranks]
        dmp_paths = [f"{outdir}/bit1_r{r:05d}.dmp" for r in ranks]
        with posix.phase(writers=comm.size, md_clients=comm.size):
            _read_startup_inputs(posix, comm, model, outdir)
            dat_fds = posix.open_group(ranks, dat_paths, create=True,
                                       api="STDIO")
            dmp_fds = posix.open_group(ranks, dmp_paths, create=True,
                                       api="STDIO")
            # per-file stdio header
            posix.write_group(ranks, dat_fds, int(ORIGINAL_FILE_HEADER),
                              api="STDIO")

            diag_per_event = model.original_diag_text_per_event()
            ckpt_per_rank = model.ckpt_particle_bytes_per_rank() \
                + model.ckpt_grid_bytes_per_rank()
            global_fd = posix.open(0, f"{outdir}/history.dat", create=True,
                                   api="STDIO")
            for i in range(ORIGINAL_GLOBAL_FILES - 1):
                fd = posix.open(0, f"{outdir}/global{i}.dat", create=True,
                                api="STDIO")
                posix.write(0, fd, SyntheticPayload(
                    int(ORIGINAL_GLOBAL_FILE_BYTES), "ascii_table"),
                    api="STDIO")
                posix.close(0, fd)

            for step, is_ckpt in _event_steps(config):
                with posix.trace.step(step):
                    if injector is not None:
                        injector.begin_step(step)
                    # diagnostics: reopen-append-close per event, buffered
                    # stdio
                    posix.meta_group(ranks, "open", api="STDIO")
                    posix.write_group(ranks, dat_fds, diag_per_event,
                                      api="STDIO")
                    posix.meta_group(ranks, "close", api="STDIO")
                    posix.write(0, global_fd,
                                SyntheticPayload(64, "ascii_table"),
                                api="STDIO")
                    if is_ckpt:
                        # checkpoint: truncate + rewrite the full state in
                        # buffered chunks, each committed with fsync
                        posix.meta_group(ranks, "open", api="STDIO")
                        posix.write_group(
                            ranks, dmp_fds,
                            ckpt_per_rank + int(ORIGINAL_FILE_HEADER),
                            chunk_size=bufsize,
                            sync_each_chunk=fsync_checkpoints,
                            truncate_first=True, api="STDIO")
                        posix.meta_group(ranks, "close", api="STDIO")
                    comm.barrier()

            posix.close(0, global_fd)
            posix.close_group(ranks, dat_fds, api="STDIO")
            posix.close_group(ranks, dmp_fds, api="STDIO")

        log = monitor.finalize(runtime_seconds=comm.max_time(),
                               machine=machine.name, config="original")
        return ScaledRunResult(machine.name, "original", nodes, comm.size,
                               log, fs, comm, outdir, trace=session,
                               mem_report=budget.report())


def run_openpmd_scaled(machine: Machine, nodes: int,
                       config: Bit1Config | None = None,
                       ranks_per_node: int = 128,
                       num_aggregators: int | None = None,
                       compressor: str | None = None,
                       profiling: bool = False,
                       stripe_count: int | None = None,
                       stripe_size: int | str | None = None,
                       engine_ext: str = ".bp4",
                       storage_name: str | None = None,
                       seed: int = 0,
                       trace_mode: str | None = None,
                       fault_plan: FaultPlan | None = None,
                       retry_policy: RetryPolicy | None = None,
                       async_drain: bool = False,
                       host_memory_bound: int | None = None,
                       compute_seconds_per_step: float = 0.0,
                       mem_budget: int | None = None,
                       rank_block_size: int | None = None,
                       counter_granularity: str = "rank",
                       hybrid: HybridConfig | None = None,
                       ) -> ScaledRunResult:
    """Full-scale BIT1 through openPMD + ADIOS2 (Figs. 3-9, Table II).

    ``async_drain`` turns on BP5-style ``AsyncWrite``: subfile drains are
    scheduled in the background and overlap the next step's compute
    (``compute_seconds_per_step`` of virtual time per simulation step),
    bounded by ``host_memory_bound`` bytes of staging per aggregator.

    The memory-plane knobs bound the *simulator's own* residency without
    changing any simulated result:

    - ``mem_budget`` installs a run-scoped :class:`~repro.mem.
      MemoryBudget` (total bytes) and derives a rank-block size from it;
    - ``rank_block_size`` forces the flush evaluation window directly
      (overrides the derived size) — results are bit-identical for every
      choice, including ``None`` (whole-job windows);
    - ``counter_granularity='node'`` bins Darshan counters and engine
      profiles by node, shrinking counter state from O(ranks) to
      O(nodes) for million-rank jobs.

    ``hybrid`` turns the run into a hybrid CPU+GPU job: the machine's
    nodes must carry :class:`~repro.cluster.machine.GpuSpec` entries,
    and every diagnostic/checkpoint payload pays the device→host
    staging leg (:class:`~repro.gpu.hybrid.HybridStager`) before the
    unchanged engine write path sees it.  ``None`` (the default) is the
    plain CPU path, bit-identical to pre-GPU behaviour even on a GPU
    machine preset.
    """
    config = config or paper_use_case()
    block = (rank_block_size if rank_block_size is not None
             else derive_block_size(mem_budget, ranks_per_node))
    with use_budget(MemoryBudget(total=mem_budget) if mem_budget is not None
                    else current_budget()), \
            _setup(machine, nodes, ranks_per_node, storage_name, seed,
                   "bit1-openpmd", trace_mode, counter_granularity) as (
                comm, fs, posix, monitor, session, budget):
        injector = (install_faults(posix, fault_plan, retry_policy)
                    if fault_plan is not None else None)
        stager = None
        if hybrid is not None:
            if not machine.node.gpus:
                raise ValueError(
                    f"{machine.name} nodes carry no GPUs; hybrid staging "
                    "needs a GPU machine preset (e.g. dardel_gpu)")
            stager = HybridStager(comm, machine.node.gpus, hybrid,
                                  bus=session.bus)
        model = Bit1DataModel(config, comm.size)
        outdir = "/scratch/io_openPMD"
        posix.mkdir(0, outdir, parents=True)
        if stripe_count is not None or stripe_size is not None:
            if not isinstance(fs, LustreFilesystem):
                raise ValueError(
                    "striping controls require a Lustre filesystem")
            fs.lfs_setstripe(outdir, stripe_count or 1, stripe_size or "1M")

        engine = EngineConfig(
            num_aggregators=num_aggregators, compressor=compressor,
            profiling=profiling, async_drain=async_drain,
            host_memory_bound=host_memory_bound, rank_block_size=block,
            profile_granularity=counter_granularity)
        options = SeriesOptions(engine_type=engine_ext.strip("."),
                                engine=engine)

        _read_startup_inputs(posix, comm, model, outdir)
        diag_series = Series(posix, comm, f"{outdir}/dat_file{engine_ext}",
                             Access.CREATE, options=options)
        ckpt_series = Series(posix, comm, f"{outdir}/dmp_file{engine_ext}",
                             Access.CREATE, options=options.for_checkpoints())

        # per-rank chunk sizes as O(1) span descriptors — never
        # materialised job-wide (the engine slices per rank block)
        n_particles = model.total_particles
        per_rank_particles = SplitValues.spread(n_particles, comm.size)
        grid_elems = model.grid_state_bytes // 8
        per_rank_grid = SplitValues.spread(grid_elems, comm.size)
        meta_elems = model.ckpt_meta_bytes_per_rank() // 8
        diag_elems = model.diag_bytes_per_rank_per_event() // 8
        diag_span = SplitValues(comm.size, int(diag_elems))
        meta_span = SplitValues(comm.size, int(meta_elems))

        # device-resident payload bytes per rank: what the hybrid
        # staging leg moves before the engine sees the same bytes
        # (4 float32 particle components + float64 grid + float64 meta)
        if stager is not None:
            ckpt_stage_bytes = (
                np.asarray(per_rank_particles.materialize(),
                           dtype=np.float64) * 16.0
                + np.asarray(per_rank_grid.materialize(),
                             dtype=np.float64) * 8.0
                + float(meta_elems) * 8.0)
            diag_stage_bytes = float(diag_elems) * 8.0

        def stage_diagnostics(step):
            it = diag_series.iterations[step]
            it.set_time(step * config.dt, config.dt)
            comp = it.meshes["rank_summary"].scalar
            comp.entropy = "diagnostic_float64"
            comp.reset_dataset(Dataset(np.float64,
                                       (int(diag_elems) * comm.size,)))
            comp.store_chunk_group(None, diag_span)
            return it

        # nothing but the flushes touches the clocks between consecutive
        # diagnostics milestones, unless faults fire, hybrid staging runs
        # or compute advances them per step: such runs close
        # milestone by milestone, the others close each run of
        # diagnostics milestones with one call (the step lane)
        close_runs = (injector is None and stager is None
                      and compute_seconds_per_step == 0.0)
        pending: list[int] = []

        def close_pending():
            diag_series.close_iterations(
                [diag_series.iterations[s] for s in pending], pending)
            pending.clear()

        last_step = 0
        with posix.phase(writers=comm.size, md_clients=comm.size):
            for step, is_ckpt in _event_steps(config):
                if close_runs and not is_ckpt:
                    stage_diagnostics(step)
                    pending.append(step)
                    continue
                if pending:
                    close_pending()
                if compute_seconds_per_step > 0.0 and step != last_step:
                    # advance every rank through the PIC compute between
                    # I/O milestones — the window async drains overlap
                    comm.clocks += \
                        (step - last_step) * compute_seconds_per_step
                last_step = step
                with posix.trace.step(step):
                    if injector is not None:
                        for directive in injector.begin_step(step):
                            diag_series.handle_rank_failure(directive.rank)
                            ckpt_series.handle_rank_failure(directive.rank)
                    if stager is not None:
                        stager.stage_step(diag_stage_bytes)
                    stage_diagnostics(step).close()

                    if is_ckpt:
                        if stager is not None:
                            stager.stage_step(ckpt_stage_bytes)
                        it0 = ckpt_series.iterations[0].reopen()
                        it0.set_time(step * config.dt, config.dt)
                        sp = it0.particles["all_species"]
                        for rec_name, comp_name in (("position", "x"),
                                                    ("momentum", "x"),
                                                    ("momentum", "y"),
                                                    ("momentum", "z")):
                            rec = sp[rec_name]
                            comp = rec[comp_name]
                            comp.entropy = "particle_float32"
                            comp.reset_dataset(Dataset(np.float32,
                                                       (n_particles,)))
                            comp.store_chunk_group(None, per_rank_particles)
                        moments = it0.meshes["grid_moments"].scalar
                        moments.entropy = "diagnostic_float64"
                        moments.reset_dataset(Dataset(np.float64,
                                                      (grid_elems,)))
                        moments.store_chunk_group(None, per_rank_grid)
                        meta = it0.meshes["rank_state"].scalar
                        meta.entropy = "diagnostic_float64"
                        meta.reset_dataset(Dataset(
                            np.float64, (int(meta_elems) * comm.size,)))
                        meta.store_chunk_group(None, meta_span)
                        it0.close()
            if pending:
                close_pending()

            diag_series.close()
            ckpt_series.close()

        label_parts = [f"openPMD+{engine_ext.strip('.').upper()}"]
        if num_aggregators is not None:
            label_parts.append(f"{num_aggregators}AGGR")
        if compressor:
            label_parts.append(compressor)
        if stripe_count is not None:
            label_parts.append(f"sc{stripe_count}")
        profiles = []
        peak_host = wait_s = drain_s = 0.0
        for s in (diag_series, ckpt_series):
            eng = s.engine
            if eng is None:
                continue
            profiles.append(eng.profile)
            peak_host = max(peak_host,
                            float(np.max(eng.peak_host_bytes, initial=0.0)))
            wait_s += float(eng.drain_wait_seconds.sum())
            drain_s += float(eng.drain_seconds.sum())
        log = monitor.finalize(runtime_seconds=comm.max_time(),
                               machine=machine.name,
                               config="+".join(label_parts))
        return ScaledRunResult(machine.name, "+".join(label_parts), nodes,
                               comm.size, log, fs, comm, outdir,
                               profiles=profiles, trace=session,
                               peak_host_bytes=peak_host,
                               drain_wait_seconds=wait_s,
                               drain_seconds=drain_s,
                               mem_report=budget.report(),
                               gpu_report=(stager.report()
                                           if stager is not None else {}))


# -- checkpoint-restart orchestration (functional, fault-injected) ------------


@dataclass
class FailureRecord:
    """One refused/failed restart attempt and why."""

    step: int
    error: str
    context: dict = field(default_factory=dict)


@dataclass
class CrashRecord:
    """One node crash and how the run recovered from it.

    Every crash produces one record (not only the refused-checkpoint
    ones), so the resilience experiment can attribute recovery cost per
    failure: which nodes died, which checkpoint step the replacement job
    resumed from, and which tier produced the state (``l1-partner`` /
    ``l2-xor`` from the memory tiers, ``l3`` from the PFS ring,
    ``writer`` from the legacy single-level path, ``scratch`` when
    nothing survived).
    """

    step: int
    nodes: tuple[int, ...]
    restored_step: int = 0
    source: str = "scratch"
    generation: int | None = None


@dataclass
class ResilientRunReport:
    """Outcome of one :func:`run_crash_restart` orchestration."""

    sim: Bit1Simulation
    writer_kind: str
    crashes: int
    restarts: int
    executed_steps: int
    failures: list[FailureRecord] = field(default_factory=list)
    #: one entry per crash, in order (see :class:`CrashRecord`)
    crash_records: list[CrashRecord] = field(default_factory=list)
    #: tier schedule label when a multi-level store was active
    checkpoint_policy: str | None = None
    #: stall charged when a checkpoint caught an unfinished async L3
    #: flush (0.0 without a store or with synchronous flushes)
    flush_wait_seconds: float = 0.0

    @property
    def wasted_steps(self) -> int:
        """Steps computed more than once (re-executed after restarts)."""
        return self.executed_steps - self.sim.step_index

    def render(self) -> str:
        policy = (f", policy {self.checkpoint_policy}"
                  if self.checkpoint_policy else "")
        lines = [
            f"resilient run ({self.writer_kind}{policy}): "
            f"{self.sim.step_index} steps, {self.crashes} crash(es), "
            f"{self.restarts} restart(s), {self.wasted_steps} wasted step(s)",
        ]
        for rec in self.crash_records:
            nodes = ",".join(str(n) for n in rec.nodes)
            lines.append(
                f"  crash at step {rec.step} (node {nodes}): resumed from "
                f"step {rec.restored_step} via {rec.source}"
                + (f" (generation {rec.generation})"
                   if rec.generation is not None else ""))
        for rec in self.failures:
            lines.append(f"  restart at step {rec.step} failed: {rec.error}")
            ctx = {k: v for k, v in rec.context.items() if v is not None}
            if ctx:
                lines.append("    " + ", ".join(
                    f"{k}={v}" for k, v in sorted(ctx.items())))
        return "\n".join(lines)


def _sidecar_path(outdir: str) -> str:
    return f"{outdir.rstrip('/')}/resilience.meta"


def _write_sidecar(posix: PosixIO, outdir: str, step: int,
                   rng: RngRegistry) -> None:
    """Persist restart metadata next to the checkpoint (rank 0, fsynced).

    The RNG snapshot rides along so a restarted run replays exactly the
    stochastic sequence the crashed run would have drawn — the piece of
    state neither output format records.
    """
    blob = rng.snapshot()
    doc = {"step": int(step), "rng_crc": zlib.crc32(blob),
           "rng": base64.b64encode(blob).decode("ascii")}
    payload = (json.dumps(doc) + "\n").encode()
    fd = posix.open(0, _sidecar_path(outdir), create=True, truncate=True)
    posix.write(0, fd, RealPayload(payload, "ascii_table"))
    posix.fsync(0, fd)
    posix.close(0, fd)


def _read_sidecar(posix: PosixIO, outdir: str) -> tuple[int, bytes] | None:
    """Load restart metadata; None when absent or torn."""
    path = _sidecar_path(outdir)
    try:
        fd = posix.open(0, path)
    except FileNotFound:
        return None
    size = posix.fs.vfs.size_of(posix.ino_of(fd))
    raw = posix.read(0, fd, size)
    posix.close(0, fd)
    try:
        doc = json.loads(raw.decode())
        blob = base64.b64decode(doc["rng"])
        if zlib.crc32(blob) != int(doc["rng_crc"]):
            return None
        return int(doc["step"]), blob
    except (ValueError, KeyError):
        return None


def _make_writer(kind: str, posix: PosixIO, comm: VirtualComm, outdir: str):
    if kind == "original":
        return OriginalIOWriter(posix, comm, outdir)
    if kind == "openpmd":
        return Bit1OpenPMDWriter(posix, comm, outdir)
    raise ValueError(f"unknown writer kind {kind!r}")


def run_crash_restart(config: Bit1Config, comm: VirtualComm, posix: PosixIO,
                      outdir: str, writer: str = "original",
                      plan: FaultPlan | None = None,
                      policy: RetryPolicy | None = None,
                      max_restarts: int = 8,
                      checkpoint_policy: CheckpointPolicy | None = None,
                      compute_seconds_per_step: float = 0.0,
                      hybrid: HybridStager | None = None,
                      ) -> ResilientRunReport:
    """Run a functional BIT1 simulation under a fault plan, restarting
    from the last valid checkpoint whenever a node crash kills the job.

    The orchestration mirrors a batch system resubmitting the job:

    1. the simulation advances step by step; diagnostics and checkpoints
       fire on the ``datfile``/``dmpstep`` cadence, and every checkpoint
       also persists a fsynced restart sidecar (checkpoint step + RNG
       snapshot);
    2. a :class:`~repro.faults.NodeCrashError` abandons the writer (open
       descriptors reaped, buffers lost — no closing I/O), emits a
       ``restart`` event, and brings up a fresh simulation restored from
       the last checkpoint;
    3. a checkpoint that fails verification
       (:class:`~repro.io_adaptor.original.CorruptCheckpointError` /
       :class:`~repro.adios2.engine.IntegrityError`) is *refused*: the
       failure is recorded with its structured context and the run falls
       back through any older valid generation before a scratch restart
       from step 0.

    ``checkpoint_policy`` activates the multi-level store
    (:class:`~repro.resilience.MultiLevelStore`): checkpoints are staged
    node-locally and promoted to partner copies / XOR parity / the
    asynchronously-flushed PFS ring per the policy's tier schedule, and
    recovery becomes failure-domain-aware — a crash inside redundancy
    restores entirely from the memory tiers with zero PFS reads; a
    crash beyond it (or a CRC-refused ring file) walks back through
    older ring generations before scratch.  ``None`` keeps the legacy
    single-level behaviour exactly.

    ``compute_seconds_per_step`` charges that much virtual time to every
    rank per simulation step (the functional sim itself models physics,
    not wall time) — this is what asynchronous L3 flushes overlap, so
    leave it 0.0 only when flush timing does not matter: with no virtual
    time between checkpoints, an async flush is still in flight at any
    same-interval crash and the ring contributes nothing.

    ``hybrid`` (a live :class:`~repro.gpu.hybrid.HybridStager`) marks
    the simulation state as device-resident: every multi-level
    checkpoint pays the D2H drain into the L0 memory tier, and every
    tier recovery pays the H2D restore back onto the replacement node's
    devices.  Requires ``checkpoint_policy`` (the staging target is the
    store's node-local tier).

    Because particle order, RNG state and rank assignment all survive
    the round trip, a recovered run's final state is bit-identical to a
    fault-free run of the same config and seed — for every tier
    combination.
    """
    if hybrid is not None and checkpoint_policy is None:
        raise ValueError("hybrid checkpoint staging requires a "
                         "checkpoint_policy (the multi-level store)")
    injector = (install_faults(posix, plan, policy)
                if plan is not None else None)
    store = (MultiLevelStore(posix, comm, outdir, checkpoint_policy,
                             hybrid=hybrid)
             if checkpoint_policy is not None else None)
    sim = Bit1Simulation(config, comm)
    out = _make_writer(writer, posix, comm, outdir)
    crashes = 0
    restarts = 0
    executed = 0
    failures: list[FailureRecord] = []
    crash_records: list[CrashRecord] = []
    bus = posix.trace

    def checkpoint() -> None:
        out.write_checkpoint(sim, sim.step_index)
        _write_sidecar(posix, outdir, sim.step_index, sim.rng)
        if store is not None:
            store.store(sim, sim.step_index)

    while True:
        try:
            while sim.step_index < config.last_step:
                nxt = sim.step_index + 1
                with bus.step(nxt):
                    if injector is not None:
                        for directive in injector.begin_step(nxt):
                            if hasattr(out, "handle_rank_failure"):
                                out.handle_rank_failure(directive.rank)
                    sim.step()
                    executed += 1
                    if compute_seconds_per_step > 0.0:
                        comm.clocks += compute_seconds_per_step
                    if sim.step_index % config.datfile == 0:
                        out.write_diagnostics(sim, sim.step_index)
                    if sim.step_index % config.dmpstep == 0:
                        checkpoint()
            checkpoint()
            if store is not None:
                store.settle_flushes()
            out.finalize(sim)
            break
        except NodeCrashError as crash:
            crashes += 1
            if crashes > max_restarts:
                raise
            out.abandon()
            if store is not None:
                store.fail_nodes(crash.nodes)
            if bus.wants("restart"):
                bus.emit("restart", comm.rank_range(), api="NODE",
                         layer="faults", start=comm.clocks.copy())
            # bring up the replacement job: fresh simulation, restored
            # from the cheapest surviving tier (or from scratch)
            sim = Bit1Simulation(config, comm)
            record = CrashRecord(step=crash.step, nodes=tuple(crash.nodes))
            if store is not None:
                outcome = _tiered_recover(store, sim, crash.nodes)
                if outcome is not None:
                    for gen_id, err in outcome.refused:
                        failures.append(FailureRecord(
                            step=crash.step, error=err,
                            context={"generation": gen_id}))
                    if outcome.source != "scratch":
                        record.restored_step = outcome.step
                        record.source = outcome.source
                        record.generation = outcome.generation
            else:
                meta = _read_sidecar(posix, outdir)
                if meta is not None:
                    step, rng_blob = meta
                    try:
                        if writer == "original":
                            reader = OriginalIOWriter(posix, comm, outdir)
                            restore_from_original(sim, reader)
                            reader.abandon()
                        else:
                            restore_from_openpmd(
                                sim, posix, comm, f"{outdir}/bit1_dmp.bp4")
                        sim.rng.restore(rng_blob)
                        sim.step_index = step
                        record.restored_step = step
                        record.source = "writer"
                    except (CorruptCheckpointError, IntegrityError) as exc:
                        failures.append(FailureRecord(
                            step=crash.step, error=str(exc),
                            context=dict(getattr(exc, "context", {}))))
                        sim = Bit1Simulation(config, comm)  # scratch restart
            crash_records.append(record)
            restarts += 1
            # the replacement writer truncates the output set; re-seed it
            # with the restored state so a second crash can still restore
            out = _make_writer(writer, posix, comm, outdir)
            if sim.step_index > 0:
                checkpoint()

    return ResilientRunReport(
        sim=sim, writer_kind=writer, crashes=crashes, restarts=restarts,
        executed_steps=executed, failures=failures,
        crash_records=crash_records,
        checkpoint_policy=(checkpoint_policy.label()
                           if checkpoint_policy is not None else None),
        flush_wait_seconds=(store.flush_wait_seconds
                            if store is not None else 0.0))

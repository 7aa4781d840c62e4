"""The in-situ pipeline: BIT1 coupled to consumers through staging.

Two drivers, mirroring the repo's functional/modeled split:

* :func:`run_insitu` — a real (small-scale) BIT1 simulation whose openPMD
  output flows through the SST staging transport instead of files; the
  attached :mod:`repro.streaming.consumers` run the actual analysis
  reductions step by step.  The streamed variables carry exactly the
  bytes :class:`~repro.io_adaptor.openpmd_adaptor.Bit1OpenPMDWriter`
  would store (same dtypes, offsets, accumulator side effects), so the
  in-situ reductions are bit-identical to post-hoc analysis of the
  file-based series for the same config and seed.
* :func:`run_streaming_scaled` — the full-scale counterpart of
  :func:`repro.workloads.runner.run_openpmd_scaled`: synthetic byte
  volumes from the Table-II data model, published through the transport
  at the ``datfile``/``dmpstep`` cadence, with an analysis consumer and
  an optional checkpoint tee (the only storage the streaming path pays).

Fault-plane coverage: :class:`~repro.faults.plan.ConsumerCrash` specs
are interpreted here (the I/O-side injector ignores them) — the named
consumer detaches at its crash step and optionally reattaches at
``rejoin_step``; NIC flaps derate stream transfers live through the
communicator's fault state, with or without a full injector installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adios2.sst import SSTEngine, StreamRegistry
from repro.faults import ConsumerCrash, FaultPlan, NICFlap, RetryPolicy
from repro.faults.injector import FaultState, install_faults
from repro.fs.posix import PosixIO
from repro.io_adaptor.naming import species_path
from repro.mpi.comm import VirtualComm
from repro.pic.config import Bit1Config
from repro.pic.simulation import Bit1Simulation
from repro.streaming.consumers import (
    ANALYSIS_RATE,
    CheckpointTee,
    InSituConsumer,
    MomentsConsumer,
    TimeseriesConsumer,
)
from repro.streaming.staging import StagedTransport
from repro.trace.session import TraceSession
from repro.workloads.datamodel import Bit1DataModel
from repro.workloads.presets import paper_use_case
from repro.workloads.runner import _event_steps, _setup


class StreamingBit1Writer:
    """openPMD-over-SST output path for BIT1 (functional mode).

    Satisfies the simulation's :class:`~repro.pic.simulation.OutputWriter`
    protocol, but every iteration becomes one staged stream step instead
    of filesystem writes.  The variable set, dtypes, chunk offsets and
    accumulator side effects (``profiles()`` before ``snapshot(reset=
    True)``) replicate :class:`Bit1OpenPMDWriter` exactly — the basis of
    the in-situ == post-hoc bit-identity guarantee.  Steps are tagged
    with ``kind`` (``diagnostics``/``checkpoint``) and ``time_step``
    attributes so consumers can dispatch.
    """

    def __init__(self, transport: StagedTransport, comm: VirtualComm):
        self.transport = transport
        self.comm = comm
        self._snapshots = 0

    # -- diagnostics ------------------------------------------------------

    def write_diagnostics(self, sim, step: int) -> None:
        t = self.transport
        t.begin_step()
        t.put_attribute("kind", "diagnostics")
        t.put_attribute("time_step", step)
        # profiles must be taken before snapshot() resets the accumulators
        profiles = sim.diagnostics.profiles()
        dists = sim.diagnostics.snapshot(reset=True)
        nnodes = sim.grid.nnodes
        nranks = self.comm.size

        for name, dist in dists.items():
            sp = species_path(name)
            nbins = len(dist.velocity)
            for kind, values in (("dfv", dist.velocity),
                                 ("dfe", dist.energy),
                                 ("dfa", dist.angular)):
                t.put(f"{sp}_{kind}", "double", (nbins,), 0, (0,), (nbins,),
                      values.astype(np.float64), entropy="diagnostic_float64")

        for name, profile in profiles.items():
            sp = species_path(name)
            t.put(f"{sp}_density", "double", (nnodes,), 0, (0,), (nnodes,),
                  profile.astype(np.float64), entropy="diagnostic_float64")

        names = sim.species_names()
        row_len = 2 * len(names)
        offsets = self.comm.exscan_sum([row_len] * nranks)
        rows = np.empty((nranks, row_len), dtype=np.float64)
        stores = sim.merged_species()
        for j, name in enumerate(names):
            rows[:, 2 * j] = stores[name].counts
            rows[:, 2 * j + 1] = stores[name].rank_kinetic_energy()
        for r in range(nranks):
            t.put("rank_summary", "double", (nranks * row_len,), r,
                  (int(offsets[r]),), (row_len,), rows[r],
                  entropy="diagnostic_float64")
        t.end_step()
        self._snapshots += 1

    # -- checkpoints ------------------------------------------------------

    def write_checkpoint(self, sim, step: int) -> None:
        t = self.transport
        t.begin_step()
        t.put_attribute("kind", "checkpoint")
        t.put_attribute("time_step", step)
        t.put_attribute("checkpointStep", step)
        stores = sim.merged_species()
        for name in sim.species_names():
            sp = species_path(name)
            store = stores[name]
            counts = store.counts
            bounds = store.bounds
            total = len(store)
            offsets = self.comm.exscan_sum(counts)
            active = np.nonzero(counts)[0]
            records = {
                ("position", "x"): "x",
                ("momentum", "x"): "vx",
                ("momentum", "y"): "vy",
                ("momentum", "z"): "vz",
                ("weighting", None): "weight",
            }
            for (rec_name, comp_name), fld in records.items():
                vname = f"{sp}/{rec_name}" + (
                    f"/{comp_name}" if comp_name is not None else "")
                t.engine.declare_variable(vname, "double",
                                          (max(total, 0),))
                values = getattr(store, fld)
                for r in active.tolist():
                    t.put(vname, "double", (max(total, 0),), r,
                          (int(offsets[r]),), (int(counts[r]),),
                          values[bounds[r]:bounds[r + 1]].astype(np.float64))
        t.put("charge_density", "double", (sim.grid.nnodes,), 0, (0,),
              (sim.grid.nnodes,), sim.charge_density(),
              entropy="diagnostic_float64")
        t.end_step()

    # -- lifecycle --------------------------------------------------------

    def finalize(self, sim) -> None:
        self.transport.close()

    @property
    def snapshots_written(self) -> int:
        return self._snapshots


class _StreamFaultController:
    """Applies the streaming-plane slice of a FaultPlan.

    The I/O injector deliberately ignores :class:`ConsumerCrash` —
    consumers are not filesystem entities.  This controller interprets
    them: detach at the crash step, reattach at ``rejoin_step``.  It
    also recomputes the NIC derating per step when no full injector is
    installed (functional runs without a POSIX stack), so NIC flaps
    derate stream transfers identically either way.
    """

    def __init__(self, plan: FaultPlan | None, transport: StagedTransport,
                 comm: VirtualComm, bus=None, own_nic: bool = False):
        self.plan = plan
        self.transport = transport
        self.comm = comm
        self.bus = bus
        self.own_nic = own_nic and plan is not None \
            and bool(plan.of_type(NICFlap))
        if self.own_nic and comm.fault_state is None:
            comm.fault_state = FaultState()
        self._events: list[tuple[int, int, str, str]] = []
        if plan is not None:
            for spec in plan.of_type(ConsumerCrash):
                self._events.append((spec.step, 0, "detach", spec.consumer))
                if spec.rejoin_step is not None:
                    self._events.append(
                        (spec.rejoin_step, 1, "reattach", spec.consumer))
        self._events.sort()
        self._next = 0

    def begin_step(self, step: int) -> None:
        if self.own_nic:
            self.comm.fault_state.nic_factor = min(
                [s.factor for s in self.plan.of_type(NICFlap)
                 if s.active(step)], default=1.0)
        while (self._next < len(self._events)
               and self._events[self._next][0] <= step):
            at, _order, action, name = self._events[self._next]
            self._next += 1
            if name not in self.transport._by_name:
                continue
            if action == "detach":
                self.transport.detach(name)
            else:
                self.transport.reattach(name)
            if self.bus is not None and self.bus.wants("fault"):
                with self.bus.step(at):
                    self.bus.emit("fault", np.array([0]), api="CONSUMER",
                                  layer="faults", start=np.array(
                                      [self.comm.max_time()]))


# -- functional driver ----------------------------------------------------


@dataclass
class InSituRunReport:
    """Outcome of one :func:`run_insitu` coupled run."""

    sim: Bit1Simulation
    transport: StagedTransport
    consumers: dict[str, InSituConsumer]
    steps: int

    @property
    def makespan(self) -> float:
        return self.transport.makespan()

    @property
    def time_to_first_insight(self) -> float | None:
        return self.transport.time_to_first_insight()


def run_insitu(config: Bit1Config, comm: VirtualComm | None = None,
               consumers: dict[str, InSituConsumer] | None = None,
               queue_depth: int = 2, policy: str = "block",
               registry: StreamRegistry | None = None,
               plan: FaultPlan | None = None,
               bus=None,
               compute_seconds_per_step: float = 0.0,
               stream_name: str = "bit1_insitu") -> InSituRunReport:
    """Run a functional BIT1 simulation with streamed in-situ analysis.

    No simulation output touches the filesystem: every diagnostics and
    checkpoint iteration is staged through a (run-scoped) SST stream
    and consumed as it arrives.  ``consumers=None`` attaches the default
    analysis pair — :class:`MomentsConsumer` over the streamed phase
    space and :class:`TimeseriesConsumer` over the density profiles.

    The step loop is driven here (not via ``sim.run``) so the fault
    plan's streaming-plane specs apply at step boundaries exactly as the
    injector applies I/O faults; determinism is inherited from the
    seeded config + plan (no wall-clock anywhere in the path).
    """
    comm = comm or VirtualComm(1, 1)
    registry = registry if registry is not None else StreamRegistry()
    engine = SSTEngine(None, comm, f"{stream_name}.sst",
                       queue_depth=queue_depth, policy=policy,
                       registry=registry)
    transport = StagedTransport(engine, bus=bus)
    sim = Bit1Simulation(config, comm)
    if consumers is None:
        masses = {s.name: s.mass for s in config.species}
        consumers = {
            "moments": MomentsConsumer(sim.grid, masses),
            "timeseries": TimeseriesConsumer(),
        }
    for name, consumer in consumers.items():
        transport.attach(consumer, name=name)
    writer = StreamingBit1Writer(transport, comm)
    controller = _StreamFaultController(plan, transport, comm, bus=bus,
                                        own_nic=True)
    cfg = config
    while sim.step_index < cfg.last_step:
        controller.begin_step(sim.step_index + 1)
        sim.step()
        if compute_seconds_per_step:
            comm.advance_all(compute_seconds_per_step)
        if sim.step_index % cfg.datfile == 0:
            writer.write_diagnostics(sim, sim.step_index)
        if sim.step_index % cfg.dmpstep == 0:
            writer.write_checkpoint(sim, sim.step_index)
    writer.write_checkpoint(sim, sim.step_index)
    writer.finalize(sim)
    return InSituRunReport(sim=sim, transport=transport,
                           consumers=dict(consumers),
                           steps=sim.step_index)


# -- scaled driver --------------------------------------------------------


@dataclass
class StreamingRunResult:
    """Everything one scaled streaming run produces."""

    machine: str
    config_label: str
    nodes: int
    nranks: int
    comm: VirtualComm
    transport: StagedTransport
    #: job wall time including consumer drain (seconds, virtual)
    makespan: float
    producer_seconds: float
    time_to_first_insight: float | None
    peak_staging_bytes: int
    stalls: int
    stall_seconds: float
    dropped: int
    published: int
    #: bytes the checkpoint tee landed on storage (0 without a tee)
    stored_bytes: int
    #: bytes a file-based run would have written (storage avoided =
    #: this minus ``stored_bytes``)
    file_bytes_equivalent: float
    consumer_stats: dict = field(default_factory=dict)
    trace: TraceSession | None = None

    @property
    def storage_bytes_avoided(self) -> float:
        return max(self.file_bytes_equivalent - self.stored_bytes, 0.0)


def run_streaming_scaled(machine, nodes: int,
                         config: Bit1Config | None = None,
                         ranks_per_node: int = 128,
                         queue_depth: int = 4, policy: str = "block",
                         analysis_rate: float = ANALYSIS_RATE,
                         compute_seconds_per_step: float = 0.0,
                         checkpoint_tee: bool = True,
                         storage_name: str | None = None,
                         seed: int = 0, trace_mode: str | None = None,
                         fault_plan: FaultPlan | None = None,
                         retry_policy: RetryPolicy | None = None,
                         ) -> StreamingRunResult:
    """Full-scale BIT1 with in-situ streaming instead of file output.

    The modeled counterpart of :func:`run_openpmd_scaled`: identical
    event cadence and Table-II byte volumes, but every event is staged
    to an analysis consumer over the NIC (network model) rather than
    written through the storage model.  An optional checkpoint tee on a
    staging node persists each streamed checkpoint — the only storage
    traffic the streaming path pays.
    """
    config = config or paper_use_case()
    with _setup(machine, nodes, ranks_per_node, storage_name, seed,
                "bit1-sst", trace_mode) as (
            comm, fs, posix, monitor, session, _budget):
        injector = (install_faults(posix, fault_plan, retry_policy)
                    if fault_plan is not None else None)
        model = Bit1DataModel(config, comm.size)
        registry = StreamRegistry()
        engine = SSTEngine(posix, comm, "bit1_stream.sst",
                           queue_depth=queue_depth, policy=policy,
                           registry=registry)
        transport = StagedTransport(engine, bus=session.bus)
        transport.attach(InSituConsumer("analysis",
                                        analysis_rate=analysis_rate))
        tee = None
        if checkpoint_tee:
            # the tee is a staging-node process: its own 1-rank comm and an
            # untraced POSIX stack so its writes never pollute the producer
            # job's Darshan counters
            tee_comm = VirtualComm(1, 1, latency=machine.network.latency,
                                   bandwidth=machine.network.nic_bandwidth)
            tee_posix = PosixIO(fs, tee_comm)
            tee = CheckpointTee(tee_posix, tee_comm, "/scratch/io_stream")
            transport.attach(tee)
        controller = _StreamFaultController(fault_plan, transport, comm,
                                            bus=session.bus)

        ranks = np.arange(comm.size)
        diag_bytes = model.diag_bytes_per_rank_per_event()
        ckpt_bytes = model.ckpt_bytes_per_rank()
        prev_step = 0
        with posix.phase(writers=comm.size, md_clients=comm.size):
            for step, is_ckpt in _event_steps(config):
                with posix.trace.step(step):
                    if injector is not None:
                        injector.begin_step(step)
                    controller.begin_step(step)
                    if compute_seconds_per_step and step > prev_step:
                        comm.advance_all(
                            (step - prev_step) * compute_seconds_per_step)
                    prev_step = step
                    transport.begin_step()
                    transport.put_attribute("time_step", step)
                    if is_ckpt:
                        transport.put_attribute("kind", "checkpoint")
                        transport.put_group("phase_space", ranks, ckpt_bytes)
                    else:
                        transport.put_attribute("kind", "diagnostics")
                        transport.put_group("rank_summary", ranks,
                                            int(diag_bytes))
                    transport.end_step()
            transport.close()

        label = f"SST+{policy}+q{queue_depth}"
        monitor.finalize(runtime_seconds=transport.makespan(),
                         machine=machine.name, config=label)
        return StreamingRunResult(
            machine=machine.name, config_label=label, nodes=nodes,
            nranks=comm.size, comm=comm, transport=transport,
            makespan=transport.makespan(),
            producer_seconds=transport.producer_seconds(),
            time_to_first_insight=transport.time_to_first_insight(),
            peak_staging_bytes=transport.peak_staging_bytes(),
            stalls=transport.stalls, stall_seconds=transport.stall_seconds,
            dropped=transport.dropped, published=transport.published,
            stored_bytes=tee.stored_bytes if tee is not None else 0,
            file_bytes_equivalent=model.openpmd_transferred_bytes(),
            consumer_stats=transport.stats(), trace=session)

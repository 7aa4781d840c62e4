"""The openPMD I/O adaptor for BIT1 — the paper's core contribution.

Implements §III-A/B: BIT1's state flows through the openPMD-api into the
ADIOS2 BP4 engine.  Two series are produced per run (mirroring the
original output's split, and Table II's file census):

* ``<prefix>_dat.bp4`` — time-dependent diagnostics, one iteration per
  snapshot, default aggregation (one subfile per node);
* ``<prefix>_dmp.bp4`` — the checkpoint series: particle phase space and
  grid state written into **iteration 0, overwritten in place** each
  ``dmpstep`` ("iteration 0 is chosen to record data that is
  periodically overwritten, such as the latest system state for
  simulation continuation"), through a single shared subfile.

The write procedure follows the paper verbatim: each rank builds local
vectors, obtains its offset in the global extent from MPI (exscan), calls
``storeChunk`` (data immutable until flush), and the iteration close
flushes everything "in a single action for optimal I/O efficiency".
"""

from __future__ import annotations

import numpy as np

from repro.fs.posix import PosixIO
from repro.io_adaptor.naming import species_path
from repro.mpi.comm import VirtualComm
from repro.openpmd.config import parse_options
from repro.openpmd.record import Dataset
from repro.openpmd.series import Access, Series


class Bit1OpenPMDWriter:
    """openPMD + ADIOS2 output path for BIT1 (functional mode)."""

    def __init__(self, posix: PosixIO, comm: VirtualComm, outdir: str,
                 prefix: str = "bit1",
                 options: str | dict | None = None,
                 env: dict | None = None,
                 engine_ext: str = ".bp4"):
        self.posix = posix
        self.comm = comm
        self.outdir = outdir.rstrip("/")
        self.prefix = prefix
        if not posix.exists(self.outdir):
            posix.mkdir(0, self.outdir, parents=True)
        self.options = parse_options(options, env)
        self.diag_series = Series(
            posix, comm, f"{self.outdir}/{prefix}_dat{engine_ext}",
            Access.CREATE, options=self.options)
        self.ckpt_series = Series(
            posix, comm, f"{self.outdir}/{prefix}_dmp{engine_ext}",
            Access.CREATE, options=self.options.for_checkpoints())
        self._snapshots = 0

    # -- diagnostics ------------------------------------------------------------

    def write_diagnostics(self, sim, step: int) -> None:
        """One iteration per snapshot: profiles + distribution functions."""
        with self.posix.trace.step(step):
            self._write_diagnostics(sim, step)
        self._snapshots += 1

    def _write_diagnostics(self, sim, step: int) -> None:
        it = self.diag_series.iterations[step]
        it.set_time(step * sim.config.dt, sim.config.dt)
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
                mesh = it.meshes[f"{sp}_{kind}"]
                comp = mesh.scalar
                comp.entropy = "diagnostic_float64"
                comp.reset_dataset(Dataset(np.float64, (nbins,)))
                # the averaged DF is global; rank 0 stores it
                comp.store_chunk(values.astype(np.float64), (0,), rank=0)

        for name, profile in profiles.items():
            sp = species_path(name)
            mesh = it.meshes[f"{sp}_density"]
            mesh.set_grid([sim.grid.dx])
            comp = mesh.scalar
            comp.entropy = "diagnostic_float64"
            comp.reset_dataset(Dataset(np.float64, (nnodes,)))
            comp.store_chunk(profile.astype(np.float64), (0,), rank=0)

        # per-rank summary rows (counts + kinetic energy per species):
        # every rank contributes its local extent at its exscan offset —
        # the §III-B procedure
        names = sim.species_names()
        row_len = 2 * len(names)
        summary = it.meshes["rank_summary"]
        comp = summary.scalar
        comp.entropy = "diagnostic_float64"
        comp.reset_dataset(Dataset(np.float64, (nranks * row_len,)))
        local_lens = [row_len] * nranks
        offsets = self.comm.exscan_sum(local_lens)
        # build all rows as one (nranks, row_len) matrix, its columns
        # read from the rank-major stores, and stage each row in a
        # single batched call
        stores = sim.merged_species()
        rows = np.empty((nranks, row_len), dtype=np.float64)
        for j, name in enumerate(names):
            rows[:, 2 * j] = stores[name].counts
            rows[:, 2 * j + 1] = stores[name].rank_kinetic_energy()
        comp.store_chunks(list(rows), offsets, np.arange(nranks))
        it.close()

    # -- checkpoints -------------------------------------------------------------------

    def write_checkpoint(self, sim, step: int) -> None:
        """Overwrite iteration 0 with the complete system state."""
        with self.posix.trace.step(step):
            self._write_checkpoint(sim, step)

    def _write_checkpoint(self, sim, step: int) -> None:
        it = self.ckpt_series.iterations[0].reopen()
        it.set_time(step * sim.config.dt, sim.config.dt)
        it.attributes["checkpointStep"] = step
        stores = sim.merged_species()
        for name in sim.species_names():
            sp = species_path(name)
            # counts, offsets and every rank's slice come from the
            # species' rank-major store, once for all five records
            store = stores[name]
            counts = store.counts
            bounds = store.bounds
            total = len(store)
            offsets = self.comm.exscan_sum(counts)
            active = np.nonzero(counts)[0]
            species = it.particles[sp]
            records = {
                ("position", "x"): "x",
                ("momentum", "x"): "vx",
                ("momentum", "y"): "vy",
                ("momentum", "z"): "vz",
                ("weighting", None): "weight",
            }
            for (rec_name, comp_name), field in records.items():
                rec = species[rec_name]
                comp = rec.scalar if comp_name is None else rec[comp_name]
                comp.reset_dataset(Dataset(np.float64, (max(total, 0),)))
                values = getattr(store, field)
                datas = [values[bounds[r]:bounds[r + 1]].astype(np.float64)
                         for r in active.tolist()]
                comp.store_chunks(datas, offsets[active], active)
        # grid-state moments (the solver/smoother restart state)
        dens = it.meshes["charge_density"]
        comp = dens.scalar
        comp.reset_dataset(Dataset(np.float64, (sim.grid.nnodes,)))
        comp.store_chunk(sim.charge_density(), (0,), rank=0)
        it.close()

    # -- lifecycle -----------------------------------------------------------------------

    def abandon(self) -> None:
        """Drop both series as a crashed job would (no closing I/O)."""
        self.diag_series.abandon()
        self.ckpt_series.abandon()

    def handle_rank_failure(self, dead_ranks) -> None:
        """Fail dead aggregator ranks over in both series' engines."""
        self.diag_series.handle_rank_failure(dead_ranks)
        self.ckpt_series.handle_rank_failure(dead_ranks)

    def finalize(self, sim) -> None:
        self.diag_series.close()
        self.ckpt_series.close()

    @property
    def snapshots_written(self) -> int:
        return self._snapshots

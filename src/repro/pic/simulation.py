"""The BIT1 simulation driver: the five-phase PIC-MC cycle + I/O hooks.

Runs the full cycle of §II — deposit, smooth, field solve, MC collisions
and particle push — SPMD over the virtual communicator's ranks, with the
paper's use case (§III-C) available as a preset: unbounded unmagnetised
plasma of electrons, D⁺ ions and D neutrals, ionization only, field
solver and smoother disabled.

I/O is pluggable: writer objects (the original stdio writer or the
openPMD adaptor from :mod:`repro.io_adaptor`) receive diagnostic
snapshots every ``datfile`` steps and checkpoints every ``dmpstep``
steps, exactly the cadence the paper benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.mpi.comm import VirtualComm
from repro.pic.config import Bit1Config
from repro.pic.deposit import deposit_density_ranks
from repro.pic.diagnostics import DiagnosticsAccumulator, TimeHistory
from repro.pic.grid import Grid1D, Subdomain, decompose
from repro.pic.elastic import ElasticOperator
from repro.pic.mcc import IonizationOperator
from repro.pic.boris import boris_step
from repro.pic.mover import leapfrog_step
from repro.pic.poisson import electric_field, solve_poisson_dirichlet, solve_poisson_periodic
from repro.pic.smoother import binomial_smooth
from repro.pic.species import (
    FIELDS,
    ParticleArrays,
    RankParticles,
    SpeciesStore,
    sample_maxwellian,
)
from repro.pic.wall import AbsorbingWalls
from repro.util.rng import RngRegistry


class OutputWriter(Protocol):
    """What the simulation expects from an I/O adaptor."""

    def write_diagnostics(self, sim: "Bit1Simulation", step: int) -> None: ...

    def write_checkpoint(self, sim: "Bit1Simulation", step: int) -> None: ...

    def finalize(self, sim: "Bit1Simulation") -> None: ...


@dataclass
class StepReport:
    """What one ``step()`` call did (for tests and examples)."""

    step: int
    ionized: int
    migrated: int
    wall_absorbed: int


class Bit1Simulation:
    """One BIT1 run over a virtual communicator.

    Each species lives in one rank-major :class:`SpeciesStore` (rank 0's
    particles, then rank 1's, ...), so every phase of :meth:`step` runs
    over a species once instead of once per rank.  The results are
    bit-identical to stepping each rank's particles on their own:

    * rank-local quantities stay per rank — MC collisions see their own
      rank's densities, and each rank draws from its own RNG streams,
      skipping the draws a rank with nothing to collide skips;
    * sums across ranks (the field solver's charge, wall fluxes, global
      densities) add each rank's own partial sum in rank order;
    * each rank's particle order is kept by every mutation, and
      migration is one stable sort per species (see :meth:`_migrate`).
    """

    def __init__(self, config: Bit1Config, comm: VirtualComm | None = None,
                 writers: Sequence[OutputWriter] = (),
                 rng: RngRegistry | None = None):
        self.config = config
        self.comm = comm or VirtualComm(1, 1)
        self.writers = list(writers)
        self.rng = rng or RngRegistry(config.seed)
        self.grid = Grid1D(config.ncells, config.length)
        self.subdomains = decompose(self.grid, self.comm.size)
        self.step_index = 0
        self.history = TimeHistory()
        self.diagnostics = DiagnosticsAccumulator(
            self.grid, [s.name for s in config.species])
        self.walls = AbsorbingWalls(config.length, recycle_neutrals=False)
        self.ionization = IonizationOperator(config.ionization_rate)
        self.elastic = (ElasticOperator(config.elastic_rate)
                        if config.elastic_rate > 0 else None)
        #: optional particle sources, applied each step on rank 0's
        #: owning subdomain (see repro.pic.source)
        self.sources: list = []
        self._species_stores = self._load_particles()
        self._stores_view = MappingProxyType(self._species_stores)
        #: particles[rank][species_name]: read-only maps of per-rank
        #: handles onto the stores, built once
        self.particles: tuple[Mapping[str, RankParticles], ...] = tuple(
            MappingProxyType({name: RankParticles(store, rank)
                              for name, store in self._species_stores.items()})
            for rank in range(self.comm.size))

    @property
    def subdomains(self) -> tuple[Subdomain, ...]:
        return self._subdomains

    @subdomains.setter
    def subdomains(self, subdomains: Sequence[Subdomain]) -> None:
        self._subdomains = tuple(subdomains)
        self._sub_lo = np.array([s.x_min for s in self._subdomains])
        self._sub_hi = np.array([s.x_max for s in self._subdomains])

    # -- setup -----------------------------------------------------------------

    def _load_particles(self) -> dict[str, SpeciesStore]:
        """Sample every rank's particles from its own (rank, species)
        stream, ranks in order, then lay each species out rank-major."""
        cfg = self.config
        loaded: dict[str, list[ParticleArrays]] = {
            sp.name: [] for sp in cfg.species}
        for sub in self.subdomains:
            for sp in cfg.species:
                arrays = ParticleArrays(sp.name, sp.mass, sp.charge)
                n = int(round(sp.particles_per_cell * sub.ncells))
                if n:
                    cell_volume = self.grid.dx  # 1-D: per-metre densities
                    weight = sp.density * cell_volume / max(
                        sp.particles_per_cell, 1e-300)
                    sample_maxwellian(
                        arrays, n, sub.x_min, sub.x_max,
                        sp.temperature_ev, weight,
                        generator=self.rng.get("load", sub.rank, sp.name),
                    )
                loaded[sp.name].append(arrays)
        return {name: SpeciesStore.from_ranks(parts)
                for name, parts in loaded.items()}

    # -- global views ------------------------------------------------------------

    def species_names(self) -> list[str]:
        return [s.name for s in self.config.species]

    def merged_species(self) -> Mapping[str, SpeciesStore]:
        """All ranks' particles per species: the live rank-major stores
        (read-only map, no copies)."""
        return self._stores_view

    def total_count(self, species: str) -> int:
        return len(self._species_stores[species])

    def global_density(self, species: str) -> np.ndarray:
        """Node density of one species over the whole grid."""
        store = self._species_stores[species]
        return _rank_order_sum(
            deposit_density_ranks(self.grid, store, store.counts))

    def charge_density(self) -> np.ndarray:
        """Net charge density over the whole grid: each rank's charge
        deposit, summed in rank order (the field solver's source and
        the checkpoint's ``charge_density``)."""
        per_rank = np.zeros((self.comm.size, self.grid.nnodes))
        for store in self._species_stores.values():
            if store.charge != 0.0:
                per_rank += store.charge * deposit_density_ranks(
                    self.grid, store, store.counts)
        return _rank_order_sum(per_rank)

    # -- the PIC cycle --------------------------------------------------------------

    def step(self) -> StepReport:
        cfg = self.config
        grid = self.grid
        stores = self._species_stores
        report = StepReport(step=self.step_index, ionized=0, migrated=0,
                            wall_absorbed=0)

        # Phases 1-3: deposit → smooth → field solve (optional in the
        # paper's use case).
        if cfg.field_solver:
            rho = self.charge_density()
            if cfg.smoothing:
                rho = binomial_smooth(rho, 1,
                                      periodic=cfg.boundary == "periodic")
            if cfg.boundary == "periodic":
                phi = solve_poisson_periodic(grid, rho)
            else:
                phi = solve_poisson_dirichlet(grid, rho)
            efield = electric_field(grid, phi,
                                    periodic=cfg.boundary == "periodic")
        else:
            efield = np.zeros(grid.nnodes)

        # Phase 4: Monte Carlo collisions (ionization + elastic).  Each
        # rank draws from its own streams, looked up rank by rank so
        # they register in the same order as they always have.
        ionize = {"e", "D+", "D"} <= stores.keys()
        scatter = self.elastic is not None and {"e", "D"} <= stores.keys()
        mcc_rngs, elastic_rngs = [], []
        for rank in range(self.comm.size):
            if ionize:
                mcc_rngs.append(self.rng.get("mcc", rank))
            if scatter:
                elastic_rngs.append(self.rng.get("elastic", rank))
        if ionize:
            report.ionized = int(self.ionization.step_ranks(
                grid, stores["e"], stores["D+"], stores["D"], cfg.dt,
                mcc_rngs).sum())
        if scatter:
            self.elastic.step_ranks(grid, stores["e"], stores["D"], cfg.dt,
                                    elastic_rngs)

        # sources (refuelling / gas puff), applied on the owning rank;
        # each draws from a stream keyed by its place in ``sources``, so
        # a run with sources replays across interpreters and restarts
        for i, source in enumerate(self.sources):
            x_probe = getattr(source, "x_min", None)
            if x_probe is None:  # wall sources attach at the domain ends
                x_probe = (1e-9 if source.wall == "left"
                           else cfg.length - 1e-9)
            owners = np.flatnonzero((self._sub_lo <= x_probe)
                                    & (x_probe < self._sub_hi))
            owner = int(owners[0]) if len(owners) else 0
            source.inject(self.particles[owner], self.rng.get("source", i))

        # Phase 5: push particles, then handle boundaries and migration.
        periodic = cfg.boundary == "periodic"
        magnetised = any(b != 0.0 for b in cfg.magnetic_field)
        for store in stores.values():
            if magnetised:
                boris_step(grid, store, efield, cfg.magnetic_field, cfg.dt,
                           periodic=periodic)
            else:
                leapfrog_step(grid, store, efield, cfg.dt, periodic=periodic)
        if not periodic:
            report.wall_absorbed = self.walls.apply_ranks(
                list(stores.values()), self.rng.get("wall"), neutral={"D"})
        report.migrated = self._migrate()

        # time-dependent diagnostics (mvflag/mvstep machinery)
        if cfg.mvflag > 0 and self.step_index % cfg.mvstep == 0:
            self.diagnostics.accumulate(self._stores_view)
        self.history.record(self.step_index, self._stores_view)

        self.step_index += 1
        return report

    def _migrate(self) -> int:
        """Move particles to the rank owning their new position.

        One stable sort per species gives each rank, in order, its
        stayers, then its arrivals by source rank — the order of a
        per-rank exchange in which ranks take turns, in rank order, to
        extract their leavers and append them to their destinations.
        At the domain's ends such an exchange is uneven, and the sort
        keeps that too.  A stray, a position no subdomain contains, can
        only sit in a sliver the subdomain bounds leave at an end of the
        domain (the last rank's upper bound is ``ncells * dx``, which
        rounding can put below ``length``).  The last rank re-extracts
        its strays after the lower ranks' arrivals, so they end up
        behind them and an arriving one counts as migrated twice; the
        first rank's own strays likewise land before the higher ranks'
        arrivals.
        """
        nranks = self.comm.size
        if nranks == 1:
            return 0
        lo, hi = self._sub_lo, self._sub_hi
        moved = 0
        for store in self._species_stores.values():
            x = store.positions()
            src = store.rank_ids()
            leaving = ~((x >= lo[src]) & (x < hi[src]))
            if not leaving.any():
                continue
            xl, sl = x[leaving], src[leaving]
            dest = np.searchsorted(lo, xl, side="right") - 1
            np.maximum(dest, 0, out=dest)  # clip strays to the end ranks
            np.minimum(dest, nranks - 1, out=dest)
            inside = (xl >= lo[dest]) & (xl < hi[dest])
            # order within a destination: 0 stayers, 1 arrivals from
            # below, 2 own strays, 3 strays from below, 4 arrivals from
            # above (the strays exist only at the domain's ends)
            cls = np.where(sl > dest, 4,
                           np.where(sl == dest, 2, np.where(inside, 1, 3)))
            key = src * 5
            key[leaving] = dest * 5 + cls
            counts = (store.counts - np.bincount(sl, minlength=nranks)
                      + np.bincount(dest, minlength=nranks))
            store.permute(np.argsort(key, kind="stable"), counts)
            moved += len(sl) + int(np.count_nonzero(cls == 3))
        return moved

    # -- run loop with output events ----------------------------------------------------

    def run(self, nsteps: int | None = None) -> None:
        """Advance until ``last_step`` (or ``nsteps`` more), firing I/O."""
        target = (self.step_index + nsteps if nsteps is not None
                  else self.config.last_step)
        target = min(target, self.config.last_step)
        cfg = self.config
        while self.step_index < target:
            self.step()
            if self.step_index % cfg.datfile == 0:
                for w in self.writers:
                    w.write_diagnostics(self, self.step_index)
            if self.step_index % cfg.dmpstep == 0:
                for w in self.writers:
                    w.write_checkpoint(self, self.step_index)
        if self.step_index >= cfg.last_step:
            # "last_step marks the time step at which the code concludes,
            # saving the present state on the disk"
            for w in self.writers:
                w.write_checkpoint(self, self.step_index)
                w.finalize(self)

    # -- checkpoint state ------------------------------------------------------------------

    def state_arrays(self, rank: int) -> dict[str, dict[str, np.ndarray]]:
        """Per-species phase-space arrays for one rank (checkpoint set)."""
        out = {}
        for name, store in self._species_stores.items():
            lo, hi = store.bounds[rank], store.bounds[rank + 1]
            out[name] = {f: getattr(store, f)[lo:hi].copy() for f in FIELDS}
        return out

    def restore_state(self, rank: int,
                      state: dict[str, dict[str, np.ndarray]]) -> None:
        """Replace one rank's particles from a checkpoint set."""
        for name, store in self._species_stores.items():
            store.replace_rank(rank, state.get(name, _NO_PARTICLES))

    def restore_species(self, name: str, counts,
                        parts: dict[str, np.ndarray]) -> None:
        """Replace one species on every rank: ``counts[r]`` particles of
        ``parts`` (rank-major) become rank r's."""
        self._species_stores[name].assign(counts, parts)


#: an empty checkpoint set for one species
_NO_PARTICLES = {f: np.zeros(0) for f in FIELDS}


def _rank_order_sum(per_rank: np.ndarray) -> np.ndarray:
    """Sum rows in rank order from zeros, as ranks reducing one by one."""
    total = np.zeros(per_rank.shape[1])
    for row in per_rank:
        total += row
    return total

"""The rank-major PIC step against the per-rank step it replaced.

``Bit1Simulation`` keeps one particle store per species across all ranks
(rank 0's particles, then rank 1's, ...) and runs each phase once per
step.  :class:`PerRankReference` below is the per-rank step it replaced
— every rank's particles in their own ``ParticleArrays``, every phase
looped over ranks and species — kept as the oracle.  The two must agree
bit for bit: every rank's particles in order, the RNG snapshot, every
step report, the time history, the diagnostics accumulators and the
wall fluxes, over a matrix of configurations that reaches every phase.

The output-bytes goldens pin what the writers put under ``/out`` for the
``restart_functional`` benchmark config; the digests were computed with
the per-rank step.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.faults import FaultPlan, NodeCrash
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.pic import (
    AbsorbingWalls,
    Bit1Simulation,
    DiagnosticsAccumulator,
    ElasticOperator,
    Grid1D,
    IonizationOperator,
    ParticleArrays,
    StepReport,
    Subdomain,
    TimeHistory,
    VolumeSource,
    WallSource,
    balanced_partition,
    binomial_smooth,
    boris_step,
    decompose,
    deposit_charge,
    deposit_density,
    electric_field,
    leapfrog_step,
    rebalance,
    sample_maxwellian,
    solve_poisson_dirichlet,
    solve_poisson_periodic,
)
from repro.pic.species import FIELDS, SpeciesStore
from repro.resilience import CheckpointPolicy
from repro.trace import TraceSession
from repro.util.rng import RngRegistry
from repro.workloads import run_crash_restart, sheath_case, small_use_case


class PerRankReference:
    """The per-rank ``Bit1Simulation`` step: the rank-major step's oracle."""

    def __init__(self, config, comm):
        self.config = config
        self.comm = comm
        self.rng = RngRegistry(config.seed)
        self.grid = Grid1D(config.ncells, config.length)
        self.subdomains = decompose(self.grid, comm.size)
        self.particles: list[dict[str, ParticleArrays]] = []
        self.step_index = 0
        self.history = TimeHistory()
        self.diagnostics = DiagnosticsAccumulator(
            self.grid, [s.name for s in config.species])
        self.walls = AbsorbingWalls(config.length, recycle_neutrals=False)
        self.ionization = IonizationOperator(config.ionization_rate)
        self.elastic = (ElasticOperator(config.elastic_rate)
                        if config.elastic_rate > 0 else None)
        self.sources: list = []
        self._load_particles()

    def _load_particles(self) -> None:
        cfg = self.config
        for sub in self.subdomains:
            per_rank: dict[str, ParticleArrays] = {}
            for sp in cfg.species:
                arrays = ParticleArrays(sp.name, sp.mass, sp.charge)
                n = int(round(sp.particles_per_cell * sub.ncells))
                if n:
                    cell_volume = self.grid.dx
                    weight = sp.density * cell_volume / max(
                        sp.particles_per_cell, 1e-300)
                    sample_maxwellian(
                        arrays, n, sub.x_min, sub.x_max,
                        sp.temperature_ev, weight,
                        generator=self.rng.get("load", sub.rank, sp.name),
                    )
                per_rank[sp.name] = arrays
            self.particles.append(per_rank)

    def species_names(self) -> list[str]:
        return [s.name for s in self.config.species]

    def merged_species(self) -> dict[str, ParticleArrays]:
        out: dict[str, ParticleArrays] = {}
        for sp in self.config.species:
            merged = ParticleArrays(sp.name, sp.mass, sp.charge)
            for per_rank in self.particles:
                arrays = per_rank[sp.name]
                n = len(arrays)
                if n:
                    merged.add(arrays.x[:n], arrays.vx[:n], arrays.vy[:n],
                               arrays.vz[:n], arrays.weight[:n])
            out[sp.name] = merged
        return out

    def global_density(self, species: str) -> np.ndarray:
        total = np.zeros(self.grid.nnodes)
        for per_rank in self.particles:
            total += deposit_density(self.grid, per_rank[species])
        return total

    def charge_density(self) -> np.ndarray:
        rho = np.zeros(self.grid.nnodes)
        for per_rank in self.particles:
            rho += deposit_charge(self.grid, list(per_rank.values()))
        return rho

    def step(self) -> StepReport:
        cfg = self.config
        report = StepReport(step=self.step_index, ionized=0, migrated=0,
                            wall_absorbed=0)
        if cfg.field_solver:
            rho = self.charge_density()
            if cfg.smoothing:
                rho = binomial_smooth(rho, 1,
                                      periodic=cfg.boundary == "periodic")
            if cfg.boundary == "periodic":
                phi = solve_poisson_periodic(self.grid, rho)
            else:
                phi = solve_poisson_dirichlet(self.grid, rho)
            efield = electric_field(self.grid, phi,
                                    periodic=cfg.boundary == "periodic")
        else:
            efield = np.zeros(self.grid.nnodes)

        for sub, per_rank in zip(self.subdomains, self.particles):
            if "D" in per_rank and "e" in per_rank and "D+" in per_rank:
                stats = self.ionization.step(
                    self.grid, per_rank["e"], per_rank["D+"], per_rank["D"],
                    cfg.dt, self.rng.get("mcc", sub.rank))
                report.ionized += stats.ionized
            if self.elastic is not None and "D" in per_rank and "e" in per_rank:
                self.elastic.step(self.grid, per_rank["e"], per_rank["D"],
                                  cfg.dt, self.rng.get("elastic", sub.rank))

        for i, source in enumerate(self.sources):
            x_probe = getattr(source, "x_min", None)
            if x_probe is None:
                x_probe = (1e-9 if source.wall == "left"
                           else self.config.length - 1e-9)
            owner = 0
            for sub in self.subdomains:
                if sub.x_min <= x_probe < sub.x_max:
                    owner = sub.rank
                    break
            source.inject(self.particles[owner], self.rng.get("source", i))

        periodic = cfg.boundary == "periodic"
        magnetised = any(b != 0.0 for b in cfg.magnetic_field)
        for per_rank in self.particles:
            for arrays in per_rank.values():
                if magnetised:
                    boris_step(self.grid, arrays, efield,
                               cfg.magnetic_field, cfg.dt,
                               periodic=periodic)
                else:
                    leapfrog_step(self.grid, arrays, efield, cfg.dt,
                                  periodic=periodic)
        if not periodic:
            for per_rank in self.particles:
                for name, arrays in per_rank.items():
                    report.wall_absorbed += self.walls.apply(
                        arrays, self.rng.get("wall"),
                        is_neutral=(name == "D"))
        report.migrated = self._migrate()

        if cfg.mvflag > 0 and self.step_index % cfg.mvstep == 0:
            self.diagnostics.accumulate(self.merged_species())
        self.history.record(self.step_index,
                            {n: self._species_proxy(n)
                             for n in self.species_names()})
        self.step_index += 1
        return report

    def _species_proxy(self, name: str) -> ParticleArrays:
        proxy = ParticleArrays(name, 1.0, 0.0)
        for per_rank in self.particles:
            arrays = per_rank[name]
            n = len(arrays)
            if n:
                proxy.add(arrays.x[:n], 0.0, 0.0, 0.0, arrays.weight[:n])
        return proxy

    def _migrate(self) -> int:
        if self.comm.size == 1:
            return 0
        moved = 0
        starts = np.array([s.x_min for s in self.subdomains])
        for sub, per_rank in zip(self.subdomains, self.particles):
            for name, arrays in per_rank.items():
                n = len(arrays)
                if n == 0:
                    continue
                outside = ~sub.contains(arrays.x[:n])
                if not outside.any():
                    continue
                leavers = arrays.extract(outside)
                dest = np.searchsorted(starts, leavers["x"], side="right") - 1
                dest = np.clip(dest, 0, self.comm.size - 1)
                moved += len(dest)
                for r in np.unique(dest):
                    sel = dest == r
                    self.particles[int(r)][name].add_dict(
                        {k: v[sel] for k, v in leavers.items()})
        return moved

    def rebalance(self) -> tuple[int, ...]:
        """``repro.pic.rebalance`` over the per-rank lists."""
        before = np.array([sum(len(a) for a in pr.values())
                           for pr in self.particles])
        counts = np.zeros(self.grid.ncells, dtype=np.int64)
        for per_rank in self.particles:
            for arrays in per_rank.values():
                np.add.at(counts, self.grid.cell_of(arrays.positions()), 1)
        bounds = balanced_partition(counts, self.comm.size)
        self.subdomains = [
            Subdomain(rank=r, cell_start=a, cell_stop=b, dx=self.grid.dx)
            for r, (a, b) in enumerate(bounds)]
        migrated = self._migrate()
        after = np.array([sum(len(a) for a in pr.values())
                          for pr in self.particles])
        return (int(before.max()), float(before.mean()), int(after.max()),
                float(after.mean()), migrated)

    def state_arrays(self, rank: int) -> dict[str, dict[str, np.ndarray]]:
        return {name: {f: getattr(arrays, f)[:len(arrays)].copy()
                       for f in FIELDS}
                for name, arrays in self.particles[rank].items()}


# ---------------------------------------------------------------------------
# comparison


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_state(ref: PerRankReference, sim: Bit1Simulation) -> None:
    assert sim.step_index == ref.step_index
    nranks = ref.comm.size
    assert len(sim.particles) == nranks
    for rank in range(nranks):
        want, got = ref.state_arrays(rank), sim.state_arrays(rank)
        assert list(got) == list(want)
        for name in want:
            for f in FIELDS:
                assert got[name][f].tobytes() == want[name][f].tobytes(), (
                    f"rank {rank} species {name} field {f}")
    assert sim.rng.snapshot() == ref.rng.snapshot()
    assert sim.history.steps == ref.history.steps
    assert list(sim.history.counts) == list(ref.history.counts)
    for name, series in ref.history.counts.items():
        assert _bits(sim.history.counts[name]) == _bits(series)
    want_d = ref.diagnostics.snapshot(reset=False)
    got_d = sim.diagnostics.snapshot(reset=False)
    for name, dist in want_d.items():
        assert got_d[name].samples == dist.samples
        for kind in ("velocity", "energy", "angular"):
            assert (getattr(got_d[name], kind).tobytes()
                    == getattr(dist, kind).tobytes())
    want_p, got_p = ref.diagnostics.profiles(), sim.diagnostics.profiles()
    assert {n: p.tobytes() for n, p in got_p.items()} == {
        n: p.tobytes() for n, p in want_p.items()}
    assert ([(n, _bits(f.as_row())) for n, f in sim.walls.fluxes.items()]
            == [(n, _bits(f.as_row())) for n, f in ref.walls.fluxes.items()])
    # the global views and the writers' per-rank reductions
    assert sim.charge_density().tobytes() == ref.charge_density().tobytes()
    merged = ref.merged_species()
    for name, store in sim.merged_species().items():
        assert sim.global_density(name).tobytes() == \
            ref.global_density(name).tobytes()
        for f in FIELDS:
            assert (getattr(store, f)[:len(store)].tobytes()
                    == getattr(merged[name], f)[:len(merged[name])].tobytes())
        per_rank = [ref.particles[r][name] for r in range(nranks)]
        assert store.counts.tolist() == [len(p) for p in per_rank]
        assert _bits(store.rank_kinetic_energy()) == _bits(
            [p.kinetic_energy() for p in per_rank])
        assert _bits(store.rank_sums(store.weights())) == _bits(
            [p.total_weight() for p in per_rank])


def run_both(ref: PerRankReference, sim: Bit1Simulation, steps: int) -> None:
    for _ in range(steps):
        want = dataclasses.astuple(ref.step())
        got = dataclasses.astuple(sim.step())
        assert got == want
    assert_same_state(ref, sim)


def pair(config, nranks: int, per_node: int = 2):
    ref = PerRankReference(config, VirtualComm(nranks, per_node))
    sim = Bit1Simulation(config, VirtualComm(nranks, per_node))
    assert_same_state(ref, sim)
    return ref, sim


def _sparse_species(config, name: str, particles_per_cell: float):
    """``config`` with one species loaded so thinly that some ranks get
    none of it (ranks of 9 cells round up to one particle, of 8 to none)."""
    species = tuple(
        dataclasses.replace(s, particles_per_cell=particles_per_cell)
        if s.name == name else s for s in config.species)
    return config.with_(species=species)


# ---------------------------------------------------------------------------
# the matrix


class TestRankMajorStepMatchesPerRank:
    def test_small_use_case_eight_ranks(self):
        cfg = small_use_case(ncells=64, particles_per_cell=10, last_step=40,
                             datfile=10)
        ref, sim = pair(cfg, 8, 4)
        run_both(ref, sim, 40)
        assert sum(sim.history.counts["D"]) > 0

    def test_sheath_case_walls_field_solver_smoothing(self):
        cfg = sheath_case(ncells=32, particles_per_cell=12, last_step=30)
        assert cfg.field_solver and cfg.smoothing
        ref, sim = pair(cfg, 4)
        run_both(ref, sim, 30)
        assert sim.walls.fluxes  # particles reached the walls

    def test_magnetised_boris(self):
        cfg = sheath_case(ncells=32, particles_per_cell=10,
                          last_step=20).with_(magnetic_field=(0.3, 0.0, 1.0))
        ref, sim = pair(cfg, 4)
        run_both(ref, sim, 20)

    def test_elastic_scattering(self):
        cfg = small_use_case(ncells=32, particles_per_cell=10,
                             last_step=20).with_(elastic_rate=1e-13)
        ref, sim = pair(cfg, 4)
        run_both(ref, sim, 20)
        _root, streams = pickle.loads(sim.rng.snapshot())
        assert ("elastic", 3) in streams

    def test_volume_source_with_pair_and_wall_source(self):
        cfg = sheath_case(ncells=32, particles_per_cell=8, last_step=20)
        ref, sim = pair(cfg, 4)
        length = cfg.length
        # the same source objects feed both runs; their RNG streams are
        # keyed by their place in ``sources``, and their stats count twice
        sources = [
            VolumeSource("e", 3.5, 0.3 * length, 0.6 * length, 2.0, 1e9,
                         pair_species="D+"),
            WallSource("D", 2.5, "left", length, 0.1, 1e9),
            WallSource("D", 1.0, "right", length, 0.1, 1e9),
        ]
        ref.sources.extend(sources)
        sim.sources.extend(sources)
        run_both(ref, sim, 20)
        assert sources[0].stats.injected > 0

    def test_rebalance_mid_run(self):
        cfg = small_use_case(ncells=64, particles_per_cell=10, last_step=30)
        ref, sim = pair(cfg, 4)
        extra = np.random.default_rng(3).uniform(0.0, sim.subdomains[0].x_max,
                                                 500)
        ref.particles[0]["e"].add(extra, 0.0, 0.0, 0.0, 1.0)
        sim.particles[0]["e"].add(extra, 0.0, 0.0, 0.0, 1.0)
        run_both(ref, sim, 10)
        want = ref.rebalance()
        got = rebalance(sim)
        assert (got.before_max, got.before_mean, got.after_max,
                got.after_mean, got.migrated) == want
        assert sim.subdomains == tuple(ref.subdomains)
        assert_same_state(ref, sim)
        run_both(ref, sim, 10)

    def test_one_rank(self):
        cfg = small_use_case(ncells=16, particles_per_cell=10, last_step=20)
        ref, sim = pair(cfg, 1, 1)
        run_both(ref, sim, 20)

    @pytest.mark.parametrize("species", ["D", "e", "D+"])
    def test_ranks_without_one_species(self, species):
        cfg = _sparse_species(
            small_use_case(ncells=68, particles_per_cell=10, last_step=20),
            species, 0.06)
        ref, sim = pair(cfg, 8, 4)
        assert 0 in sim.merged_species()[species].counts.tolist()
        run_both(ref, sim, 20)

    def test_positions_at_the_domain_length(self):
        """``np.mod(-1e-19, L)`` is ``L``, a position no subdomain holds;
        the wrap maps it to its periodic image 0.0.  The first rank's own
        such particles stay, the last rank's arrive on the first rank
        behind the other arrivals, and each counts as migrated once."""
        cfg = small_use_case(ncells=64, particles_per_cell=10, last_step=20)
        assert np.mod(-1e-19, cfg.length) == cfg.length
        plain = pair(cfg, 8, 4)[1].step()
        ref, sim = pair(cfg, 8, 4)
        for model in (ref, sim):
            for rank in (0, 7):
                model.particles[rank]["e"].add([-1e-19, -1e-19], 0.0, 0.0,
                                               0.0, [3.0, 5.0])
        want = ref.step()
        got = sim.step()
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert_same_state(ref, sim)
        # the last rank's two move to the first rank; nothing else moves
        # because of them (the weights are too small to shift the field)
        assert got.migrated == plain.migrated + 2
        first = sim.particles[0]["e"]
        assert cfg.length not in np.concatenate(
            [sim.particles[r]["e"].x for r in range(8)])
        # its own two stay together among its stayers; the last rank's
        # two arrive after every other arrival
        at_zero = np.flatnonzero(first.x == 0.0)
        assert len(at_zero) == 4 and at_zero[1] == at_zero[0] + 1
        assert at_zero[2:].tolist() == [len(first) - 2, len(first) - 1]
        assert first.weight[at_zero].tolist() == [3.0, 5.0, 3.0, 5.0]
        run_both(ref, sim, 10)


# ---------------------------------------------------------------------------
# per-rank handles


class TestRankHandles:
    @pytest.fixture
    def sim(self):
        return Bit1Simulation(small_use_case(ncells=32, particles_per_cell=10,
                                             last_step=10), VirtualComm(4, 2))

    def test_handles_are_built_once(self, sim):
        assert sim.particles is sim.particles
        assert sim.particles[1]["e"] is sim.particles[1]["e"]

    def test_add_through_a_handle_reaches_the_store(self, sim):
        store = sim.merged_species()["e"]
        before = store.counts.copy()
        handle = sim.particles[1]["e"]
        lo = int(store.bounds[1])
        n1 = len(handle)
        handle.add([0.011, 0.012], 1.0, 2.0, 3.0, 4.0)
        assert store.counts.tolist() == (before + [0, 2, 0, 0]).tolist()
        assert handle.x[-2:].tolist() == [0.011, 0.012]
        assert store.x[lo + n1:lo + n1 + 2].tolist() == [0.011, 0.012]
        assert handle.vz[-2:].tolist() == [3.0, 3.0]
        assert sim.total_count("e") == int(before.sum()) + 2

    def test_remove_and_extract_through_a_handle(self, sim):
        handle = sim.particles[2]["D"]
        n = len(handle)
        x = handle.x.copy()
        mask = np.zeros(n, dtype=bool)
        mask[[1, 4]] = True
        out = handle.extract(mask)
        assert out["x"].tolist() == x[[1, 4]].tolist()
        assert handle.x.tolist() == x[~mask].tolist()
        assert handle.remove(np.ones(n - 2, dtype=bool)) == n - 2
        assert len(handle) == 0
        assert sim.merged_species()["D"].counts[2] == 0

    def test_field_writes_through_a_handle_reach_the_store(self, sim):
        handle = sim.particles[3]["D+"]
        handle.vx[:] = 7.0
        store = sim.merged_species()["D+"]
        lo, hi = store.bounds[3], store.bounds[4]
        assert np.all(store.vx[lo:hi] == 7.0)

    def test_detaching_a_handle_raises(self, sim):
        with pytest.raises(TypeError):
            sim.particles[0]["e"] = ParticleArrays("e", 1.0, -1.0)
        with pytest.raises(TypeError):
            sim.particles[0] = {}
        with pytest.raises(AttributeError):
            sim.particles[0]["e"].x = np.zeros(3)
        with pytest.raises(TypeError):
            sim.merged_species()["e"] = None
        with pytest.raises(AttributeError):
            sim.merged_species()["e"].add([0.01], 0.0, 0.0, 0.0)

    def test_restore_state_writes_through(self, sim):
        sim.step()
        state = sim.state_arrays(1)
        other = sim.state_arrays(2)
        sim.restore_state(1, {"e": state["e"]})
        assert len(sim.particles[1]["D"]) == 0
        assert sim.particles[1]["e"].x.tobytes() == state["e"]["x"].tobytes()
        assert sim.state_arrays(2)["e"]["x"].tobytes() == \
            other["e"]["x"].tobytes()


# ---------------------------------------------------------------------------
# particle order under removal (restart and migration rely on it)


class TestSurvivorOrder:
    def _arrays(self):
        p = ParticleArrays("e", 1.0, -1.0)
        p.add(np.arange(10.0), np.arange(10.0) * 2, 0.0, 0.0,
              np.arange(10.0) + 100)
        return p

    def test_remove_keeps_survivor_order(self):
        p = self._arrays()
        mask = np.zeros(10, dtype=bool)
        mask[[0, 3, 4, 8]] = True
        assert p.remove(mask) == 4
        assert p.positions().tolist() == [1.0, 2.0, 5.0, 6.0, 7.0, 9.0]
        assert p.weights().tolist() == [101.0, 102.0, 105.0, 106.0, 107.0,
                                        109.0]

    def test_extract_keeps_both_orders(self):
        p = self._arrays()
        mask = np.zeros(10, dtype=bool)
        mask[[7, 2, 5]] = True
        out = p.extract(mask)
        assert out["x"].tolist() == [2.0, 5.0, 7.0]
        assert out["vx"].tolist() == [4.0, 10.0, 14.0]
        assert p.positions().tolist() == [0.0, 1.0, 3.0, 4.0, 6.0, 8.0, 9.0]

    def test_store_remove_keeps_each_rank_in_order(self):
        store = SpeciesStore(self._arrays(), [3, 0, 4, 3])
        mask = np.zeros(10, dtype=bool)
        mask[[1, 3, 9]] = True
        assert store.remove(mask).tolist() == [1, 0, 1, 1]
        assert store.counts.tolist() == [2, 0, 3, 2]
        assert store.positions().tolist() == [0.0, 2.0, 4.0, 5.0, 6.0, 7.0,
                                              8.0]

    def test_store_append_lands_at_each_segment_end(self):
        store = SpeciesStore(self._arrays(), [3, 0, 4, 3])
        store.append([2, 1, 0, 1], [20.0, 21.0, 22.0, 23.0], 0.0, 0.0, 0.0)
        assert store.counts.tolist() == [5, 1, 4, 4]
        assert store.positions().tolist() == [
            0.0, 1.0, 2.0, 20.0, 21.0, 22.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0,
            9.0, 23.0]
        assert store.rank_ids().tolist() == [0] * 5 + [1] + [2] * 4 + [3] * 4


# ---------------------------------------------------------------------------
# output bytes of the functional crash/restart benchmark


#: sha256 over every (path, size, content) under /out, computed with the
#: per-rank step and the merge-on-append extent store
OUTPUT_DIGESTS = {
    ("original", "fault_free"):
        "cf72ad6f3dd34988c9ed1af2d4ff30ed029f8cb3d8e14bafc88be033f3804373",
    ("original", "partner"):
        "bfa9355740f2c8d6f340ad530b68030ae90317fe8ba3e698f4b9f3e43328ecbb",
    ("openpmd", "fault_free"):
        "b7f473ca3d80d406f39de11a2a203a207de52833faa5c9924822b09ea15f743a",
    ("openpmd", "partner"):
        "78d54a0bac9f4f86b0128bc861741c8acd3f7c6688a50c38b85fd0b7e5fab453",
}


@pytest.mark.parametrize("writer,case", sorted(OUTPUT_DIGESTS))
def test_restart_functional_output_bytes(writer, case):
    cfg = small_use_case(ncells=128, particles_per_cell=40, last_step=100,
                         datfile=20, dmpstep=20)
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(8, 4)
    posix = PosixIO(fs, comm, trace=TraceSession(comm).bus)
    plan = policy = None
    if case == "partner":
        plan = FaultPlan((NodeCrash(0, 50),))
        policy = CheckpointPolicy.partner(l3_interval=0)
    run_crash_restart(cfg, comm, posix, "/out", writer=writer, plan=plan,
                      checkpoint_policy=policy)
    vfs = fs.vfs
    h = hashlib.sha256()
    for path in vfs.files_under("/out"):
        ino = vfs.lookup(path)
        data = vfs.read(ino, 0, vfs.size_of(ino))
        h.update(path.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    assert h.hexdigest() == OUTPUT_DIGESTS[writer, case]

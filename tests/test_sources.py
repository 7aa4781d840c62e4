"""Tests for particle sources (refuelling / gas puff)."""

import numpy as np
import pytest

from repro.mpi import VirtualComm
from repro.pic import Bit1Simulation, ParticleArrays, VolumeSource, WallSource
from repro.pic.constants import MD, ME, QE
from repro.workloads import small_use_case


def _populations():
    return {
        "e": ParticleArrays("e", ME, -QE),
        "D+": ParticleArrays("D+", MD, QE),
        "D": ParticleArrays("D", MD, 0.0),
    }


class TestVolumeSource:
    def test_injects_rate_per_step(self):
        pops = _populations()
        src = VolumeSource("D", 7, 0.0, 1.0, 0.1, 1e10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            src.inject(pops, rng)
        assert len(pops["D"]) == 70
        assert src.stats.injected == 70

    def test_positions_in_region(self):
        pops = _populations()
        src = VolumeSource("e", 50, 0.25, 0.5, 1.0, 1e10)
        src.inject(pops, np.random.default_rng(1))
        x = pops["e"].positions()
        assert np.all((x >= 0.25) & (x < 0.5))

    def test_pair_injection_neutral(self):
        pops = _populations()
        src = VolumeSource("e", 20, 0.0, 1.0, 5.0, 1e10,
                           pair_species="D+", pair_temperature_ev=1.0)
        src.inject(pops, np.random.default_rng(2))
        assert len(pops["e"]) == len(pops["D+"]) == 20
        # pairs born at identical positions (local charge neutrality)
        assert np.array_equal(pops["e"].positions(),
                              pops["D+"].positions())

    def test_fractional_rate_statistics(self):
        pops = _populations()
        src = VolumeSource("D", 0.3, 0.0, 1.0, 0.1, 1e10)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            src.inject(pops, rng)
        assert len(pops["D"]) == pytest.approx(600, rel=0.15)

    def test_unknown_species_rejected(self):
        src = VolumeSource("Xe", 1, 0.0, 1.0, 1.0, 1e10)
        with pytest.raises(KeyError):
            src.inject(_populations(), np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeSource("e", -1, 0.0, 1.0, 1.0, 1e10)
        with pytest.raises(ValueError):
            VolumeSource("e", 1, 1.0, 0.5, 1.0, 1e10)
        with pytest.raises(ValueError):
            VolumeSource("e", 1, 0.0, 1.0, 1.0, 0.0)


class TestWallSource:
    def test_left_wall_inward_velocity(self):
        pops = _populations()
        src = WallSource("D", 30, "left", 1.0, 0.1, 1e10)
        src.inject(pops, np.random.default_rng(0))
        assert np.all(pops["D"].positions() < 0.01)
        assert np.all(pops["D"].vx[:30] > 0)

    def test_right_wall_inward_velocity(self):
        pops = _populations()
        src = WallSource("D", 30, "right", 1.0, 0.1, 1e10)
        src.inject(pops, np.random.default_rng(0))
        assert np.all(pops["D"].positions() > 0.99)
        assert np.all(pops["D"].vx[:30] < 0)

    def test_invalid_wall(self):
        with pytest.raises(ValueError):
            WallSource("D", 1, "top", 1.0, 0.1, 1e10)


class TestSimulationIntegration:
    def test_steady_state_with_walls_and_source(self):
        """Refuelled bounded plasma approaches particle balance."""
        cfg = small_use_case(ncells=32, particles_per_cell=20, last_step=100)
        cfg = cfg.with_(boundary="absorbing", ionization_rate=0.0)
        sim = Bit1Simulation(cfg, VirtualComm(2, 2))
        weight = sim.particles[0]["e"].weight[0]
        sim.sources.append(VolumeSource(
            "e", 40, 0.0, cfg.length, 1.0, weight, pair_species="D+"))
        sim.run(nsteps=100)
        # injection keeps the population alive despite wall losses
        assert sim.total_count("e") > 0
        assert sim.sources[0].stats.injected == 4000

    def test_source_owner_rank_holds_particles(self):
        cfg = small_use_case(ncells=32, particles_per_cell=0, last_step=10)
        sim = Bit1Simulation(cfg, VirtualComm(4, 2))
        sub = sim.subdomains[2]
        mid = (sub.x_min + sub.x_max) / 2
        sim.sources.append(VolumeSource(
            "D", 10, sub.x_min, sub.x_max, 0.05, 1e10))
        sim.step()
        # injected on the owning rank (before any migration they sit there)
        assert len(sim.particles[2]["D"]) == 10

    def test_resumed_run_with_new_source_objects_replays(self):
        """A run resumed in a fresh simulation, whose sources are new
        objects, draws what the uninterrupted run drew: each source's
        stream is keyed by its place in ``sim.sources``."""
        cfg = small_use_case(ncells=32, particles_per_cell=10, last_step=20)

        def simulation():
            sim = Bit1Simulation(cfg, VirtualComm(4, 2))
            length = cfg.length
            sim.sources.extend([
                VolumeSource("e", 3.5, 0.2 * length, 0.7 * length, 2.0,
                             1e9, pair_species="D+"),
                WallSource("D", 1.5, "left", length, 0.1, 1e9),
            ])
            return sim

        whole = simulation()
        whole.run(nsteps=10)
        first = simulation()
        first.run(nsteps=5)
        resumed = simulation()
        for rank in range(4):
            resumed.restore_state(rank, first.state_arrays(rank))
        resumed.rng.restore(first.rng.snapshot())
        resumed.step_index = first.step_index
        resumed.run(nsteps=5)
        for rank in range(4):
            got, want = resumed.state_arrays(rank), whole.state_arrays(rank)
            assert got.keys() == want.keys()
            for name, fields in want.items():
                for f, values in fields.items():
                    assert got[name][f].tobytes() == values.tobytes(), \
                        (rank, name, f)

    def test_wall_source_attaches_to_end_rank(self):
        cfg = small_use_case(ncells=32, particles_per_cell=0, last_step=10)
        sim = Bit1Simulation(cfg, VirtualComm(4, 2))
        sim.sources.append(WallSource("D", 5, "right", cfg.length, 0.05,
                                      1e10))
        sim.step()
        total = sum(len(pr["D"]) for pr in sim.particles)
        assert total == 5

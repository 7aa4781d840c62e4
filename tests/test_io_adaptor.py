"""Tests for BIT1's I/O adaptors (original stdio path, openPMD path)."""

import copy

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.darshan import DarshanMonitor
from repro.fs import PosixIO, mount
from repro.io_adaptor import (
    GLOBAL_FILES,
    Bit1OpenPMDWriter,
    OriginalIOWriter,
    mapping_for,
    restore_from_openpmd,
    restore_from_original,
    species_path,
)
from repro.mpi import VirtualComm
from repro.openpmd import Access, Series
from repro.pic import Bit1Simulation
from repro.workloads import small_use_case


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    mon = DarshanMonitor(4)
    posix = PosixIO(fs, comm, mon)
    return fs, comm, mon, posix


@pytest.fixture
def config():
    return small_use_case(ncells=32, particles_per_cell=10, last_step=80,
                          datfile=20, dmpstep=40)


class TestNaming:
    def test_species_paths(self):
        assert species_path("e") == "e"
        assert species_path("D+") == "D_plus"  # openPMD-safe
        with pytest.raises(KeyError):
            species_path("Xe")

    def test_mapping_lookup(self):
        m = mapping_for("particle position")
        assert m.category == "particles"
        assert m.record == "position"
        with pytest.raises(KeyError):
            mapping_for("vorticity")

    def test_density_unit_dimension(self):
        assert mapping_for("density profile").unit_dimension == {"L": -3.0}


class TestOriginalWriter:
    def test_file_layout(self, env, config):
        fs, comm, _mon, posix = env
        writer = OriginalIOWriter(posix, comm, "/o")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run()
        files = fs.vfs.files_under("/o")
        # 2 files per rank + the global files
        per_rank = [f for f in files if "_r000" in f]
        assert len(per_rank) == 2 * comm.size
        for g in GLOBAL_FILES:
            assert f"/o/{g}" in files

    def test_dat_is_text(self, env, config):
        fs, comm, _mon, posix = env
        writer = OriginalIOWriter(posix, comm, "/o")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=20)  # one dat event
        blob = fs.vfs.read(fs.vfs.lookup(writer.dat_path(0)), 0, 200)
        assert blob.startswith(b"# step 20")

    def test_checkpoint_overwritten_in_place(self, env, config):
        fs, comm, _mon, posix = env
        writer = OriginalIOWriter(posix, comm, "/o")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=40)
        size_first = fs.vfs.stat(writer.dmp_path(0)).size
        sim.run(nsteps=40)
        size_second = fs.vfs.stat(writer.dmp_path(0)).size
        # ionisation converts neutrals to e+ion pairs: similar size, but
        # the file is truncated+rewritten (no unbounded growth)
        assert size_second < 2 * size_first

    def test_restart_roundtrip(self, env, config):
        fs, comm, _mon, posix = env
        writer = OriginalIOWriter(posix, comm, "/o")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=40)
        ref = {n: sim.total_count(n) for n in sim.species_names()}
        sim2 = Bit1Simulation(config, comm)
        restore_from_original(sim2, writer)
        for n, c in ref.items():
            assert sim2.total_count(n) == c
        # phase-space values restored bit-exactly per rank
        a = np.sort(sim.particles[1]["e"].positions())
        b = np.sort(sim2.particles[1]["e"].positions())
        assert np.array_equal(a, b)

    def test_fsyncs_recorded(self, env, config):
        fs, comm, mon, posix = env
        writer = OriginalIOWriter(posix, comm, "/o")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=40)
        log = mon.finalize()
        assert log.counter_total("STDIO_FSYNCS") > 0

    def test_finalize_writes_input_echo(self, env, config):
        fs, comm, _mon, posix = env
        writer = OriginalIOWriter(posix, comm, "/o")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run()
        blob = fs.vfs.read(fs.vfs.lookup("/o/input.echo"), 0, 4096)
        assert b"ncells = 32" in blob


class TestOpenPMDWriter:
    def test_two_series_layout(self, env, config):
        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/p")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run()
        files = fs.vfs.files_under("/p")
        dat = [f for f in files if "bit1_dat.bp4" in f]
        dmp = [f for f in files if "bit1_dmp.bp4" in f]
        # diag: one subfile per node (+md.0 +md.idx); ckpt: single subfile
        assert len([f for f in dat if "/data." in f]) == comm.nnodes
        assert len([f for f in dmp if "/data." in f]) == 1

    def test_writers_leave_the_callers_options_unchanged(self):
        """The checkpoint series' one-subfile default must not leak into
        the caller's options, or a second writer built from the same
        dict writes its diagnostics through one aggregator."""
        comm = VirtualComm(8, 4)
        posix = PosixIO(mount(dardel().storage_named("lfs")), comm)
        options = {"adios2": {"engine": {"type": "bp4"}}}
        before = copy.deepcopy(options)
        writers = [Bit1OpenPMDWriter(posix, comm, f"/w{i}", options=options)
                   for i in range(2)]
        assert options == before
        for writer in writers:
            assert writer.diag_series.options.engine.num_aggregators is None
            assert writer.ckpt_series.options.engine.num_aggregators == 1

    def test_checkpoint_restart_different_rank_count(self, env, config):
        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/p")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=40)
        writer.finalize(sim)
        ref = {n: sim.total_count(n) for n in sim.species_names()}
        comm8 = VirtualComm(8, 4)
        posix8 = PosixIO(fs, comm8)
        sim2 = Bit1Simulation(config, comm8)
        restore_from_openpmd(sim2, posix8, comm8, "/p/bit1_dmp.bp4")
        for n, c in ref.items():
            assert sim2.total_count(n) == c

    def test_restore_missing_checkpoint_raises(self, env, config):
        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/p")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=20)  # diag written, no checkpoint yet
        writer.finalize(sim)
        sim2 = Bit1Simulation(config, comm)
        with pytest.raises(ValueError):
            restore_from_openpmd(sim2, posix, comm, "/p/bit1_dmp.bp4")

    def test_diagnostics_iterations_match_snapshots(self, env, config):
        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/p")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run()
        writer_snapshots = writer.snapshots_written
        rd = Series(posix, comm, "/p/bit1_dat.bp4", Access.READ_ONLY)
        its = rd.read_iterations()
        assert len(its) == writer_snapshots == config.n_dat_events
        assert its == [20, 40, 60, 80]

    def test_distribution_functions_stored(self, env, config):
        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/p")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=20)
        writer.finalize(sim)
        rd = Series(posix, comm, "/p/bit1_dat.bp4", Access.READ_ONLY)
        dfv = rd.load_mesh(20, "e_dfv")
        assert dfv.shape[0] > 0
        assert dfv.sum() > 0  # electrons exist

    def test_rank_summary_uses_exscan_offsets(self, env, config):
        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/p")
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=20)
        writer.finalize(sim)
        rd = Series(posix, comm, "/p/bit1_dat.bp4", Access.READ_ONLY)
        summary = rd.load_mesh(20, "rank_summary")
        row = 2 * len(sim.species_names())
        counts = summary.reshape(comm.size, row)[:, 0]
        assert counts.sum() == sim.total_count("e")

    def test_compressed_writer_roundtrip(self, env, config):
        from repro.openpmd import BIT1_BLOSC_TOML

        fs, comm, _mon, posix = env
        writer = Bit1OpenPMDWriter(posix, comm, "/pz",
                                   options=BIT1_BLOSC_TOML)
        sim = Bit1Simulation(config, comm, writers=[writer])
        sim.run(nsteps=40)
        writer.finalize(sim)
        sim2 = Bit1Simulation(config, comm)
        restore_from_openpmd(sim2, posix, comm, "/pz/bit1_dmp.bp4")
        assert sim2.total_count("e") == sim.total_count("e")

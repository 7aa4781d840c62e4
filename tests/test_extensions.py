"""Tests for the extension modules: DXT tracing, openPMD validator,
elastic collisions."""

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.darshan import DarshanMonitor, DXTRecorder
from repro.fs import PosixIO, SyntheticPayload, mount
from repro.mpi import VirtualComm
from repro.openpmd import Access, Dataset, Series, validate_path, validate_series
from repro.pic import (
    Bit1Simulation,
    ElasticOperator,
    Grid1D,
    ParticleArrays,
    expected_drift_decay,
)
from repro.pic.constants import MD, ME, QE
from repro.trace import TraceSession
from repro.workloads import small_use_case


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    return fs, comm


def _traced(fs, comm, mode=None):
    """A PosixIO whose bus carries Darshan and a DXT recorder side by
    side; returns (posix, monitor, recorder, session)."""
    monitor = DarshanMonitor(comm.size)
    session = TraceSession(comm, monitor, mode=mode)
    rec = session.bus.subscribe(DXTRecorder())
    return PosixIO(fs, comm, trace=session.bus), monitor, rec, session


class TestDXT:
    def test_segments_recorded_with_timestamps(self, env):
        fs, comm = env
        posix, _monitor, rec, _session = _traced(fs, comm)
        fd = posix.open(1, "/f", create=True)
        posix.write(1, fd, SyntheticPayload(4096))
        clock_after_write = comm.clocks[1]
        posix.close(1, fd)
        segs = rec.by_rank(1)
        assert len(segs) == 1
        s = segs[0]
        assert s.kind == "write"
        assert s.path == "/f"
        assert s.nbytes == 4096
        assert s.end > s.start >= 0
        assert s.end == pytest.approx(clock_after_write)

    def test_counters_flow_to_the_monitor_beside_it(self, env):
        fs, comm = env
        posix, monitor, rec, _session = _traced(fs, comm)
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, SyntheticPayload(100))
        posix.close(0, fd)
        log = monitor.finalize()
        assert log.counter_total("POSIX_BYTES_WRITTEN") == 100
        assert [s.nbytes for s in rec.segments] == [100]

    def test_group_ops_traced_per_rank(self, env):
        fs, comm = env
        posix, _monitor, rec, _session = _traced(fs, comm)
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/r{i}" for i in range(4)])
        posix.write_group(ranks, fds, 256)
        posix.close_group(ranks, fds)
        assert len(rec.segments) == 4
        assert {s.rank for s in rec.segments} == {0, 1, 2, 3}
        assert [s.path for s in rec.segments] == [f"/r{i}" for i in range(4)]

    def test_scalar_lane_ops_are_traced_exactly(self, env):
        """Single-rank ops take the bus's scalar lane; the recorder has
        no ``on_scalar``, so it gets the event the array path builds."""
        fs, comm = env
        posix, monitor, rec, _session = _traced(fs, comm)
        fd = posix.open(2, "/s", create=True)
        spans = []
        t = comm.clocks[2]
        posix.write(2, fd, SyntheticPayload(512), offset=0)
        spans.append((t, comm.clocks[2]))
        t = comm.clocks[2]
        posix.read(2, fd, 512, offset=0)
        spans.append((t, comm.clocks[2]))
        t = comm.clocks[2]
        posix.read_synthetic(2, fd, 256)
        spans.append((t, comm.clocks[2]))
        cost = posix.write_scheduled(2, fd, SyntheticPayload(64),
                                     start_at=10.0)
        spans.append((10.0, 10.0 + cost))
        posix.close(2, fd)
        got = [(s.kind, s.rank, s.path, s.nbytes) for s in rec.segments]
        assert got == [("write", 2, "/s", 512), ("read", 2, "/s", 512),
                       ("read", 2, "/s", 256), ("write", 2, "/s", 64)]
        for seg, (start, end) in zip(rec.segments, spans):
            assert seg.start == pytest.approx(start, abs=1e-15)
            assert seg.end == pytest.approx(end, abs=1e-15)
        # Darshan took the same ops through its on_scalar fold
        log = monitor.finalize()
        assert log.counter_total("POSIX_BYTES_WRITTEN") == 576
        assert log.counter_total("POSIX_BYTES_READ") == 768

    def test_sync_each_chunk_batch_traces_the_writes(self, env):
        """``write_group(sync_each_chunk=True)`` emits a write and then
        an fsync: Darshan folds both, DXT traces the write."""
        fs, comm = env
        posix, monitor, rec, session = _traced(fs, comm, mode="full")
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/c{i}" for i in range(4)])
        posix.write_group(ranks, fds, 3000, chunk_size=1000,
                          sync_each_chunk=True)
        posix.close_group(ranks, fds)
        assert [(s.kind, s.rank, s.nbytes) for s in rec.segments] == [
            ("write", r, 3000) for r in range(4)]
        write, fsync = [e for e in session.events
                        if e.kind in ("write", "fsync")]
        assert [s.end for s in rec.segments] == write.end.tolist()
        np.testing.assert_allclose(write.end, fsync.start, rtol=1e-12)
        log = monitor.finalize()
        assert log.counter_total("POSIX_FSYNCS") == 12
        assert log.counter_total("POSIX_WRITES") == 12

    def test_openpmd_engine_writes_are_traced(self, env):
        """BP4 subfile flushes (``collective_write``) and index appends
        (``meta_append``) land as DXT ``write`` segments."""
        fs, comm = env
        posix, _monitor, rec, session = _traced(fs, comm, mode="full")
        posix.mkdir(0, "/run")
        s = Series(posix, comm, "/run/d.bp4", Access.CREATE)
        comp = s.iterations[0].particles["e"]["position"]["x"]
        comp.reset_dataset(Dataset(np.float64, (40,)))
        for r in range(4):
            comp.store_chunk(np.zeros(10), (r * 10,), rank=r)
        s.iterations[0].close()
        s.close()
        kinds = {e.kind for e in session.events}
        assert {"collective_write", "meta_append"} <= kinds
        paths = {seg.path for seg in rec.segments}
        assert any("/data." in p for p in paths)
        assert any(p.endswith(("/md.0", "/md.idx")) for p in paths)
        assert {seg.kind for seg in rec.segments} == {"write"}

    def test_dxt_text_matches_the_recorder(self, env):
        """The session's post-hoc dump and the live recorder print the
        same segment lines for one run."""
        fs, comm = env
        posix, _monitor, rec, session = _traced(fs, comm, mode="full")
        posix.mkdir(0, "/run")
        s = Series(posix, comm, "/run/m.bp4", Access.CREATE)
        comp = s.iterations[0].particles["e"]["position"]["x"]
        comp.reset_dataset(Dataset(np.float64, (40,)))
        for r in range(4):
            comp.store_chunk(np.arange(10.0), (r * 10,), rank=r)
        s.iterations[0].close()
        s.close()
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/run/r{i}" for i in range(4)])
        posix.write_group(ranks, fds, 100, sync_each_chunk=True)
        posix.read_group(ranks, fds, 50)
        posix.close_group(ranks, fds)
        lines = session.dxt_text().splitlines()
        assert lines
        assert rec.render().splitlines()[3:] == lines

    def test_ring_buffer_bounds_memory(self):
        rec = DXTRecorder(capacity=4)
        for i in range(10):
            rec.record("DXT_POSIX", "write", i, "/f", 1, 0.0, 1.0)
        assert len(rec.segments) == 4
        assert rec.dropped == 6
        assert rec.segments[0].rank == 6  # oldest survivor

    def test_busiest_files(self):
        rec = DXTRecorder()
        rec.record("DXT_POSIX", "write", 0, "/big", 1000, 0.0, 1.0)
        rec.record("DXT_POSIX", "write", 0, "/small", 10, 0.0, 1.0)
        rec.record("DXT_POSIX", "write", 1, "/big", 500, 0.0, 1.0)
        assert rec.busiest_files()[0] == ("/big", 1500)

    def test_timeline_histogram_conserves_bytes(self):
        rec = DXTRecorder()
        for t in range(10):
            rec.record("DXT_POSIX", "write", 0, "/f", 7, float(t),
                       float(t) + 0.5)
        hist = rec.timeline_histogram(bins=5)
        assert hist.sum() == 70

    def test_render_format(self):
        rec = DXTRecorder()
        rec.record("DXT_STDIO", "read", 3, "/x", 42, 1.0, 2.0)
        text = rec.render()
        assert "DXT_STDIO 3 read /x 42" in text
        assert "# segments: 1" in text

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DXTRecorder(capacity=0)


class TestValidator:
    def _write_series(self, fs, comm, path="/run/v.bp4"):
        posix = PosixIO(fs, comm)
        posix.mkdir(0, "/run")
        s = Series(posix, comm, path, Access.CREATE)
        it = s.iterations[0]
        comp = it.particles["e"]["position"]["x"]
        comp.reset_dataset(Dataset(np.float64, (40,)))
        for r in range(4):
            comp.store_chunk(np.zeros(10), (r * 10,), rank=r)
        it.close()
        s.close()
        return posix

    def test_valid_series_passes(self, env):
        fs, comm = env
        posix = self._write_series(fs, comm)
        report = validate_path(posix, comm, "/run/v.bp4")
        assert report.valid, report.render()
        assert report.iterations == [0]
        assert report.variables == 1
        assert "PASS" in report.render()

    def test_adaptor_output_validates(self, env):
        from repro.io_adaptor import Bit1OpenPMDWriter

        fs, comm = env
        posix = PosixIO(fs, comm)
        writer = Bit1OpenPMDWriter(posix, comm, "/run/full")
        sim = Bit1Simulation(
            small_use_case(ncells=32, particles_per_cell=10, last_step=40,
                           datfile=20, dmpstep=40), comm, writers=[writer])
        sim.run()
        for series_path in ("/run/full/bit1_dat.bp4",
                            "/run/full/bit1_dmp.bp4"):
            report = validate_path(posix, comm, series_path)
            assert report.valid, f"{series_path}: {report.render()}"

    def test_sparse_coverage_warns(self, env):
        fs, comm = env
        posix = PosixIO(fs, comm)
        posix.mkdir(0, "/run")
        s = Series(posix, comm, "/run/sparse.bp4", Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (100,)))
        comp.store_chunk(np.zeros(10), (0,), rank=0)  # 10 of 100
        it.close()
        s.close()
        report = validate_path(posix, comm, "/run/sparse.bp4")
        assert report.valid  # warnings only
        assert any(f.code == "sparse-coverage" for f in report.warnings)

    def test_requires_read_only(self, env):
        fs, comm = env
        posix = PosixIO(fs, comm)
        posix.mkdir(0, "/run")
        s = Series(posix, comm, "/run/w.bp4", Access.CREATE)
        with pytest.raises(ValueError):
            validate_series(s)
        s.close()

    def test_nonstandard_path_flagged(self, env):
        from repro.adios2 import BP4Engine

        fs, comm = env
        posix = PosixIO(fs, comm)
        posix.mkdir(0, "/run")
        eng = BP4Engine(posix, comm, "/run/raw", "w")
        eng.begin_step()
        eng.put("/totally/custom/name", "double", (4,), 0, (0,), (4,),
                np.zeros(4))
        eng.end_step()
        eng.close()
        report = validate_path(posix, comm, "/run/raw.bp4")
        assert not report.valid
        assert any(f.code == "nonstandard-path" for f in report.errors)


class TestElastic:
    def _beam(self, n=4000, speed=1e6):
        g = Grid1D(16, 0.01)
        e = ParticleArrays("e", ME, -QE)
        rng = np.random.default_rng(0)
        e.add(rng.uniform(0, g.length, n), speed, 0.0, 0.0, 1.0)
        d = ParticleArrays("D", MD, 0.0)
        # weight chosen so the deposited density is n_D = 4e17 m^-3
        weight = 4e17 * g.length / n
        d.add(rng.uniform(0, g.length, n), 0, 0, 0, weight)
        return g, e, d

    def test_energy_conserved_exactly(self):
        g, e, d = self._beam()
        op = ElasticOperator(1e-13)
        before = e.kinetic_energy()
        rng = np.random.default_rng(1)
        for _ in range(20):
            op.step(g, e, d, 1e-9, rng)
        assert e.kinetic_energy() == pytest.approx(before, rel=1e-12)

    def test_counts_unchanged(self):
        g, e, d = self._beam()
        op = ElasticOperator(1e-13)
        op.step(g, e, d, 1e-9, np.random.default_rng(0))
        assert len(e) == 4000 and len(d) == 4000

    def test_beam_isotropises_at_analytic_rate(self):
        g, e, d = self._beam(n=20000)
        n_d = 4e17  # deposited density of the neutral background
        rate, dt, steps = 2e-11, 1e-9, 30
        op = ElasticOperator(rate)
        rng = np.random.default_rng(2)
        v0 = e.vx[: len(e)].mean()
        for _ in range(steps):
            op.step(g, e, d, dt, rng)
        drift = e.vx[: len(e)].mean() / v0
        expected = expected_drift_decay(n_d, rate, dt, steps)
        assert drift == pytest.approx(expected, abs=0.05)

    def test_zero_rate_noop(self):
        g, e, d = self._beam(n=100)
        vx = e.vx[:100].copy()
        ElasticOperator(0.0).step(g, e, d, 1e-9, np.random.default_rng(0))
        assert np.array_equal(e.vx[:100], vx)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ElasticOperator(-1.0)

    def test_oracle_validates(self):
        with pytest.raises(ValueError):
            expected_drift_decay(1e30, 1.0, 1.0, 2)

    def test_simulation_integration(self):
        cfg = small_use_case(ncells=32, particles_per_cell=20, last_step=20)
        cfg = cfg.with_(elastic_rate=1e-13)
        sim = Bit1Simulation(cfg, VirtualComm(2, 2))
        assert sim.elastic is not None
        before = {n: sim.total_count(n) for n in sim.species_names()}
        sim.run(nsteps=20)
        # elastic scattering changes no counts beyond ionization pairing
        assert (sim.total_count("e") - before["e"]
                == before["D"] - sim.total_count("D"))

    def test_config_roundtrip_with_elastic(self):
        cfg = small_use_case().with_(elastic_rate=3.3e-14)
        from repro.pic import Bit1Config

        assert Bit1Config.from_input_file(cfg.to_input_file()) == cfg


class TestDXTHeatmap:
    def test_heatmap_dimensions(self):
        rec = DXTRecorder()
        for r in range(8):
            rec.record("DXT_POSIX", "write", r, "/f", 100, float(r),
                       float(r) + 0.5)
        text = rec.heatmap(time_bins=10, rank_bins=4)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 rank rows
        assert all(len(l.split("|")[1]) == 10 for l in lines[1:])

    def test_heatmap_empty(self):
        assert "no segments" in DXTRecorder().heatmap()

    def test_heatmap_peak_cell_marked(self):
        rec = DXTRecorder()
        rec.record("DXT_POSIX", "write", 0, "/f", 1_000_000, 0.0, 0.1)
        rec.record("DXT_POSIX", "write", 1, "/f", 10, 0.9, 1.0)
        text = rec.heatmap(time_bins=4, rank_bins=2)
        assert "@" in text.splitlines()[1]  # the hot cell

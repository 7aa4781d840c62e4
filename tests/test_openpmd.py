"""Tests for the openPMD layer: config, records, series, backends."""

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.openpmd import (
    Access,
    BIT1_BLOSC_TOML,
    BIT1_DEFAULT_TOML,
    Dataset,
    Mesh,
    ParticleSpecies,
    Record,
    RecordComponent,
    SCALAR,
    Series,
    parse_options,
)


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    posix = PosixIO(fs, comm)
    posix.mkdir(0, "/run")
    return fs, comm, posix


class TestConfig:
    def test_default_options(self):
        opts = parse_options(None)
        assert opts.engine_type == "bp4"
        assert opts.engine.num_aggregators is None
        assert not opts.engine.profiling

    def test_paper_toml(self):
        opts = parse_options(BIT1_BLOSC_TOML)
        assert opts.engine.compressor == "blosc"
        assert opts.iteration_encoding == "group_based_with_steps"

    def test_default_toml_no_compressor(self):
        assert parse_options(BIT1_DEFAULT_TOML).engine.compressor is None

    def test_numagg_from_toml(self):
        opts = parse_options("""
[adios2.engine]
type = "bp5"
[adios2.engine.parameters]
NumAggregators = 16
Profile = "On"
""")
        assert opts.engine_type == "bp5"
        assert opts.engine.num_aggregators == 16
        assert opts.engine.profiling

    def test_env_overrides(self):
        # the paper's OPENPMD_ADIOS2_BP5_NumAgg environment control
        opts = parse_options(None, env={
            "OPENPMD_ADIOS2_BP5_NumAgg": "1",
            "OPENPMD_ADIOS2_HAVE_PROFILING": "1",
        })
        assert opts.engine.num_aggregators == 1
        assert opts.engine.profiling

    def test_dict_options(self):
        opts = parse_options({"adios2": {"dataset": {
            "operators": [{"type": "bzip2"}]}}})
        assert opts.engine.compressor == "bzip2"

    def test_async_write_defaults_off(self):
        opts = parse_options(None)
        assert opts.engine.async_drain is False
        assert opts.engine.buffer_chunk_size is None
        assert opts.engine.host_memory_bound is None

    def test_bp5_drain_parameters(self):
        # BP5's AsyncWrite / BufferChunkSize / MaxShmSize knobs
        opts = parse_options("""
[adios2.engine]
type = "bp5"
[adios2.engine.parameters]
AsyncWrite = "On"
BufferChunkSize = 16777216
MaxShmSize = 536870912
""")
        assert opts.engine.async_drain is True
        assert opts.engine.buffer_chunk_size == 16 * 1024 * 1024
        assert opts.engine.host_memory_bound == 512 * 1024 * 1024

    def test_async_write_accepts_booleans(self):
        opts = parse_options({"adios2": {"engine": {
            "parameters": {"AsyncWrite": True}}}})
        assert opts.engine.async_drain is True

    def test_checkpoint_options_default_to_one_subfile(self):
        opts = parse_options(BIT1_BLOSC_TOML)
        ckpt = opts.for_checkpoints()
        assert ckpt.engine.num_aggregators == 1
        assert ckpt.engine.compressor == "blosc"
        assert opts.engine.num_aggregators is None
        pinned = parse_options(None, env={"OPENPMD_ADIOS2_BP5_NumAgg": "3"})
        assert pinned.for_checkpoints() == pinned

    def test_series_takes_parsed_options(self, env):
        _fs, comm, posix = env
        opts = parse_options(BIT1_BLOSC_TOML)
        series = Series(posix, comm, "/run/parsed.bp4", Access.CREATE,
                        options=opts)
        assert series.options is opts

    def test_invalid_encoding(self):
        with pytest.raises(ValueError):
            parse_options({"iteration": {"encoding": "stream_of_vibes"}})

    def test_invalid_numagg(self):
        with pytest.raises(ValueError):
            parse_options(None, env={"OPENPMD_ADIOS2_BP5_NumAgg": "0"})


class TestRecords:
    def test_dataset_validation(self):
        d = Dataset(np.float64, (100,))
        assert d.nbytes == 800
        assert d.adios_dtype == "double"
        with pytest.raises(ValueError):
            Dataset(np.float32, (-1,))

    def test_store_chunk_requires_dataset(self):
        rc = RecordComponent("x")
        with pytest.raises(RuntimeError):
            rc.store_chunk(np.zeros(4), (0,))

    def test_store_chunk_dtype_checked(self):
        rc = RecordComponent("x")
        rc.reset_dataset(Dataset(np.float32, (10,)))
        with pytest.raises(TypeError):
            rc.store_chunk(np.zeros(4, dtype=np.float64), (0,))

    def test_store_chunk_bounds_checked(self):
        rc = RecordComponent("x")
        rc.reset_dataset(Dataset(np.float32, (10,)))
        with pytest.raises(ValueError):
            rc.store_chunk(np.zeros(8, dtype=np.float32), (5,))

    def test_chunk_holds_reference_not_copy(self):
        # the storeChunk/flush contract the paper stresses (§III-B)
        rc = RecordComponent("x")
        rc.reset_dataset(Dataset(np.float64, (4,)))
        arr = np.zeros(4)
        rc.store_chunk(arr, (0,))
        assert rc.staged[0].payload.array is arr

    def test_group_chunks_1d_only(self):
        rc = RecordComponent("x")
        rc.reset_dataset(Dataset(np.float64, (4, 4)))
        with pytest.raises(ValueError):
            rc.store_chunk_group(np.arange(2), 2)

    def test_group_chunks_extent_checked(self):
        rc = RecordComponent("x")
        rc.reset_dataset(Dataset(np.float64, (10,)))
        with pytest.raises(ValueError):
            rc.store_chunk_group(np.arange(4), 5)  # 20 > 10

    def test_staged_bytes(self):
        rc = RecordComponent("x")
        rc.reset_dataset(Dataset(np.float64, (100,)))
        rc.store_chunk(np.zeros(10), (0,))
        rc.store_chunk_group(np.arange(2), 5)
        assert rc.staged_bytes == 80 + 2 * 5 * 8

    def test_record_scalar_component(self):
        rec = Record("density")
        assert rec.scalar is rec[SCALAR]

    def test_unit_dimension(self):
        rec = Record("E")
        rec.set_unit_dimension({"L": 1, "M": 1, "T": -3, "I": -1})
        assert rec.attributes["unitDimension"] == [1, 1, -3, -1, 0, 0, 0]

    def test_mesh_grid_attributes(self):
        m = Mesh("density")
        m.set_grid([0.01], axis_labels=["x"], unit_si=1.0)
        assert m.attributes["gridSpacing"] == [0.01]

    def test_species_containers(self):
        sp = ParticleSpecies("e")
        assert sp.position is sp["position"]
        assert sp.momentum is sp["momentum"]
        sp.set_constant("charge", -1.6e-19)
        assert sp.attributes["charge"] == -1.6e-19

    def test_make_constant(self):
        rc = RecordComponent("w")
        rc.reset_dataset(Dataset(np.float64, (10,)))
        rc.make_constant(1.0)
        assert rc.attributes["value"] == 1.0


class TestSeries:
    def test_write_read_roundtrip(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/a.bp4", Access.CREATE)
        it = s.iterations[5]
        comp = it.meshes["rho"].scalar
        comp.reset_dataset(Dataset(np.float64, (16,)))
        comp.store_chunk(np.arange(16.0), (0,), rank=0)
        it.close()
        s.close()
        rd = Series(posix, comm, "/run/a.bp4", Access.READ_ONLY)
        assert rd.read_iterations() == [5]
        assert np.array_equal(rd.load_mesh(5, "rho"), np.arange(16.0))

    def test_particles_roundtrip_multirank(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/p.bp4", Access.CREATE)
        it = s.iterations[0]
        comp = it.particles["e"]["position"]["x"]
        comp.reset_dataset(Dataset(np.float64, (40,)))
        for r in range(4):
            comp.store_chunk(np.full(10, float(r)), (r * 10,), rank=r)
        it.close()
        s.close()
        rd = Series(posix, comm, "/run/p.bp4", Access.READ_ONLY)
        x = rd.load_particles(0, "e", "position", "x")
        assert np.array_equal(x, np.repeat(np.arange(4.0), 10))

    def test_iteration0_overwrite(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/c.bp4", Access.CREATE)
        for value in (1.0, 2.0, 3.0):
            it = s.iterations[0].reopen()
            comp = it.meshes["state"].scalar
            comp.reset_dataset(Dataset(np.float64, (8,)))
            comp.store_chunk(np.full(8, value), (0,), rank=0)
            it.close()
        s.close()
        rd = Series(posix, comm, "/run/c.bp4", Access.READ_ONLY)
        assert np.all(rd.load_mesh(0, "state") == 3.0)

    def test_compressor_from_options_roundtrip(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/z.bp4", Access.CREATE,
                   options=BIT1_BLOSC_TOML)
        it = s.iterations[1]
        comp = it.meshes["v"].scalar
        comp.reset_dataset(Dataset(np.float64, (32,)))
        comp.store_chunk(np.linspace(0, 1, 32), (0,), rank=0)
        it.close()
        s.close()
        rd = Series(posix, comm, "/run/z.bp4", Access.READ_ONLY,
                    options=BIT1_BLOSC_TOML)
        assert np.allclose(rd.load_mesh(1, "v"), np.linspace(0, 1, 32))

    def test_flush_keeps_iteration_open(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/f.bp4", Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["a"].scalar
        comp.reset_dataset(Dataset(np.float64, (4,)))
        comp.store_chunk(np.zeros(4), (0,), rank=0)
        flushed = s.flush()
        assert flushed == 32
        assert not it.closed
        s.close()

    def test_read_only_cannot_create_iterations(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/r.bp4", Access.CREATE)
        s.iterations[0].close()
        s.close()
        rd = Series(posix, comm, "/run/r.bp4", Access.READ_ONLY)
        with pytest.raises(PermissionError):
            rd.iterations[1]

    def test_load_requires_read_only(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/w.bp4", Access.CREATE)
        with pytest.raises(PermissionError):
            s.load("/data/0/meshes/x")
        s.close()

    def test_file_based_encoding(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/dump_%T.bp4", Access.CREATE,
                   options={"iteration": {"encoding": "file_based"}})
        for i in (0, 10):
            it = s.iterations[i]
            comp = it.meshes["m"].scalar
            comp.reset_dataset(Dataset(np.float64, (4,)))
            comp.store_chunk(np.full(4, float(i)), (0,), rank=0)
            it.close()
        s.close()
        assert _fs.vfs.exists("/run/dump_0.bp4")
        assert _fs.vfs.exists("/run/dump_10.bp4")

    def test_bp5_engine_selected_by_extension(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/e.bp5", Access.CREATE)
        s.iterations[0].close()
        s.close()
        assert _fs.vfs.exists("/run/e.bp5/mmd.0")

    def test_series_close_flushes_pending(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/pend.bp4", Access.CREATE)
        it = s.iterations[3]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (4,)))
        comp.store_chunk(np.ones(4), (0,), rank=0)
        s.close()  # implicit flush of the open iteration
        rd = Series(posix, comm, "/run/pend.bp4", Access.READ_ONLY)
        assert rd.read_iterations() == [3]

    def test_root_attributes(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/attr.bp4", Access.CREATE)
        assert s.attributes["openPMD"] == "1.1.0"
        assert s.attributes["basePath"] == "/data/%T/"
        s.close()


class _Recorder:
    """Trace subscriber that keeps every event."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestAbandon:
    @pytest.mark.parametrize("ext", [".bp4", ".h5", ".json"])
    def test_abandon_does_no_io(self, env, ext):
        fs, comm, posix = env
        open_before = posix.open_fd_count
        s = Series(posix, comm, f"/run/crash{ext}", Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (4,)))
        comp.store_chunk(np.ones(4), (0,), rank=0)
        it.close()
        rec = posix.trace.subscribe(_Recorder())
        clocks = comm.clocks.copy()
        s.abandon()
        assert rec.events == []
        assert np.array_equal(comm.clocks, clocks)
        assert posix.open_fd_count == open_before
        if ext == ".json":  # the file is written on close only
            assert not fs.vfs.exists("/run/crash.json")
        if ext == ".h5":  # no footer: the file cannot be read back
            with pytest.raises(ValueError):
                Series(posix, comm, "/run/crash.h5", Access.READ_ONLY)


class TestClosedSeries:
    @pytest.mark.parametrize("end", ["close", "abandon"])
    @pytest.mark.parametrize("path", ["/run/done.bp4", "/run/done_%T.bp4"])
    def test_iterations_of_a_closed_series_raise(self, env, end, path):
        _fs, comm, posix = env
        s = Series(posix, comm, path, Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (4,)))
        comp.store_chunk(np.ones(4), (0,), rank=0)
        it.close()
        getattr(s, end)()
        for index in (0, 1):
            with pytest.raises(RuntimeError, match="series is closed"):
                s.iterations[index]
        with pytest.raises(RuntimeError, match="series is closed"):
            it.close()


class TestJSONBackend:
    def test_roundtrip(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/out.json", Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (6,)))
        comp.store_chunk(np.arange(6.0), (0,), rank=0)
        it.close()
        s.close()
        rd = Series(posix, comm, "/run/out.json", Access.READ_ONLY)
        assert np.array_equal(rd.load_mesh(0, "m"), np.arange(6.0))

    def test_json_is_human_readable(self, env):
        _fs, comm, posix = env
        s = Series(posix, comm, "/run/h.json", Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (2,)))
        comp.store_chunk(np.array([1.5, 2.5]), (0,), rank=0)
        it.close()
        s.close()
        blob = _fs.vfs.read(_fs.vfs.lookup("/run/h.json"), 0, 10_000)
        assert b"1.5" in blob

    def test_synthetic_rejected(self, env):
        from repro.fs import SyntheticPayload

        _fs, comm, posix = env
        s = Series(posix, comm, "/run/s.json", Access.CREATE)
        it = s.iterations[0]
        comp = it.meshes["m"].scalar
        comp.reset_dataset(Dataset(np.float64, (10,)))
        comp.store_chunk(SyntheticPayload(80), (0,), (10,), rank=0)
        with pytest.raises(NotImplementedError):
            it.close()

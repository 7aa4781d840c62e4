"""Tests for the HDF5-like shared-file backend."""

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.darshan import DarshanMonitor, write_throughput_gib
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.openpmd import Access, Dataset, HDF5Engine, Series
from repro.workloads import run_openpmd_scaled


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    mon = DarshanMonitor(4)
    posix = PosixIO(fs, comm, mon)
    posix.mkdir(0, "/run")
    return fs, comm, mon, posix


class TestHDF5Engine:
    def test_single_file_layout(self, env):
        fs, comm, _mon, posix = env
        eng = HDF5Engine(posix, comm, "/run/out", "w")
        eng.begin_step()
        eng.put("/data/0/meshes/m", "double", (4,), 0, (0,), (4,),
                np.ones(4))
        eng.end_step()
        eng.close()
        assert fs.vfs.files_under("/run") == ["/run/out.h5"]

    def test_multirank_roundtrip(self, env):
        fs, comm, _mon, posix = env
        eng = HDF5Engine(posix, comm, "/run/rt", "w")
        eng.begin_step()
        for r in range(4):
            eng.put("/v", "double", (20,), r, (r * 5,), (5,),
                    np.full(5, float(r)))
        eng.end_step()
        eng.close()
        rd = HDF5Engine(posix, comm, "/run/rt", "r")
        assert np.array_equal(rd.get("/v"),
                              np.repeat(np.arange(4.0), 5))
        rd.close()

    def test_series_integration(self, env):
        fs, comm, _mon, posix = env
        s = Series(posix, comm, "/run/s.h5", Access.CREATE)
        s.attributes["author"] = "h5 writer"
        it = s.iterations[2]
        comp = it.meshes["rho"].scalar
        comp.reset_dataset(Dataset(np.float64, (8,)))
        comp.store_chunk(np.arange(8.0), (0,), rank=0)
        it.close()
        s.close()
        rd = Series(posix, comm, "/run/s.h5", Access.READ_ONLY)
        assert np.array_equal(rd.load_mesh(2, "rho"), np.arange(8.0))
        assert rd.attributes["author"] == "h5 writer"

    def test_overwrite_key_reuses_space(self, env):
        fs, comm, _mon, posix = env
        eng = HDF5Engine(posix, comm, "/run/ow", "w")
        for _ in range(3):
            eng.begin_step()
            eng.put_group("/state", np.arange(4), 1000)
            eng.end_step(overwrite_key="it0")
        tail_after = eng._tail
        eng.close()
        # one slot allocated, rewritten in place
        assert tail_after < 3 * 4000 + 4096

    def test_load_charges_reads_like_bp4(self, env):
        # an .h5 load costs the reader what the same .bp4 load costs,
        # and Darshan counts the bytes it reads
        fs, comm, mon, posix = env
        data = np.arange(64.0)
        advance, counted = {}, {}
        for ext in (".bp4", ".h5"):
            s = Series(posix, comm, f"/run/load{ext}", Access.CREATE)
            comp = s.iterations[0].meshes["rho"].scalar
            comp.reset_dataset(Dataset(np.float64, data.shape))
            comp.store_chunk(data, (0,), rank=0)
            s.close()
            rd = Series(posix, comm, f"/run/load{ext}", Access.READ_ONLY)
            clock, read = comm.clocks[0], mon.total_bytes_read()
            assert np.array_equal(rd.load_mesh(0, "rho"), data)
            advance[ext] = comm.clocks[0] - clock
            counted[ext] = mon.total_bytes_read() - read
        assert advance[".h5"] > 0
        assert advance[".h5"] == pytest.approx(advance[".bp4"], rel=1e-12)
        assert counted[".h5"] == counted[".bp4"] == data.nbytes

    def test_compression_rejected(self, env):
        from repro.adios2 import EngineConfig

        fs, comm, _mon, posix = env
        with pytest.raises(NotImplementedError):
            HDF5Engine(posix, comm, "/run/z", "w",
                       EngineConfig(compressor="blosc"))

    def test_step_protocol(self, env):
        fs, comm, _mon, posix = env
        eng = HDF5Engine(posix, comm, "/run/p", "w")
        with pytest.raises(RuntimeError):
            eng.end_step()
        eng.begin_step()
        with pytest.raises(RuntimeError):
            eng.begin_step()
        eng.end_step()
        eng.close()

    def test_read_without_footer_rejected(self, env):
        fs, comm, _mon, posix = env
        fd = posix.open(0, "/run/garbage.h5", create=True)
        posix.write(0, fd, b"not an h5-like file")
        posix.close(0, fd)
        with pytest.raises(ValueError):
            HDF5Engine(posix, comm, "/run/garbage", "r")

    def test_collective_write_charges_all_ranks(self, env):
        fs, comm, mon, posix = env
        eng = HDF5Engine(posix, comm, "/run/c", "w")
        eng.begin_step()
        for r in range(4):
            eng.put("/v", "double", (4000,), r, (r * 1000,), (1000,),
                    np.zeros(1000))
        eng.end_step()
        eng.close()
        log = mon.finalize()
        wt = log.per_rank_time("F_WRITE_TIME")
        assert np.all(wt > 0), "every rank participates in collective I/O"


class TestHDF5AtScale:
    def test_throughput_flat_with_nodes(self):
        t = [write_throughput_gib(
            run_openpmd_scaled(dardel(), n, engine_ext=".h5").log)
            for n in (1, 50)]
        assert max(t) / min(t) < 1.5

    def test_two_files_regardless_of_scale(self):
        from repro.darshan import file_stats_from_sizes

        r = run_openpmd_scaled(dardel(), 20, engine_ext=".h5")
        assert file_stats_from_sizes(r.file_sizes()).total_files == 2

    def test_bp4_beats_hdf5_at_scale(self):
        bp4 = run_openpmd_scaled(dardel(), 50, num_aggregators=50)
        h5 = run_openpmd_scaled(dardel(), 50, engine_ext=".h5")
        assert (write_throughput_gib(bp4.log)
                > 3 * write_throughput_gib(h5.log))

"""Tests for attribute persistence through the engine metadata."""

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.openpmd import Access, Dataset, Series


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(2, 2)
    posix = PosixIO(fs, comm)
    posix.mkdir(0, "/run")
    return fs, comm, posix


def _write(posix, comm, path, author=None, iteration=0, time=0.0, **attrs):
    s = Series(posix, comm, path, Access.CREATE)
    if author:
        s.attributes["author"] = author
    s.attributes.update(attrs)
    it = s.iterations[iteration]
    it.set_time(time, 1e-12)
    comp = it.meshes["m"].scalar
    comp.reset_dataset(Dataset(np.float64, (4,)))
    comp.store_chunk(np.ones(4), (0,), rank=0)
    it.close()
    s.close()


class TestAttributePersistence:
    def test_root_attributes_roundtrip(self, env):
        _fs, comm, posix = env
        _write(posix, comm, "/run/a.bp4", author="A. Physicist")
        rd = Series(posix, comm, "/run/a.bp4", Access.READ_ONLY)
        assert rd.attributes["author"] == "A. Physicist"
        assert rd.attributes["openPMD"] == "1.1.0"
        assert rd.attributes["basePath"] == "/data/%T/"

    def test_iteration_time_attributes_stored(self, env):
        _fs, comm, posix = env
        _write(posix, comm, "/run/t.bp4", iteration=42, time=2.5e-9)
        rd = Series(posix, comm, "/run/t.bp4", Access.READ_ONLY)
        attrs = rd._read_engine.attributes
        assert attrs["/data/42/time"] == 2.5e-9
        assert attrs["/data/42/dt"] == 1e-12

    def test_attributes_in_md0_bytes(self, env):
        fs, comm, posix = env
        _write(posix, comm, "/run/b.bp4", author="Findable Name")
        blob = fs.vfs.read(fs.vfs.lookup("/run/b.bp4/md.0"), 0, 1 << 20)
        assert b"Findable Name" in blob

    def test_validator_sees_stored_attributes(self, env):
        from repro.openpmd import validate_path

        _fs, comm, posix = env
        _write(posix, comm, "/run/v.bp4")
        report = validate_path(posix, comm, "/run/v.bp4")
        assert report.valid
        assert not any(f.code == "missing-root-attribute"
                       for f in report.findings)

    def test_engine_attributes_property(self, env):
        from repro.adios2 import BP4Engine

        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/run/e", "w")
        eng.define_attribute("custom", 3.14)
        assert eng.attributes["custom"] == 3.14
        eng.close()

    @pytest.mark.parametrize("ext", [".bp4", ".h5", ".json"])
    def test_every_backend_round_trips_attributes(self, env, ext):
        _fs, comm, posix = env
        _write(posix, comm, f"/run/r{ext}", author="me", time=1.5)
        rd = Series(posix, comm, f"/run/r{ext}", Access.READ_ONLY)
        assert rd.attribute("author") == "me"
        assert rd.attribute("/data/0/time") == 1.5

    def test_one_unencodable_attribute_keeps_the_others(self, env):
        _fs, comm, posix = env
        # JSON cannot encode an array
        _write(posix, comm, "/run/u.bp4", time=1.5, grid=np.arange(3))
        rd = Series(posix, comm, "/run/u.bp4", Access.READ_ONLY)
        assert rd.attribute("openPMD") == "1.1.0"
        assert rd.attribute("/data/0/time") == 1.5
        assert rd.attribute("grid") == repr(np.arange(3))

"""Micro-benchmark: the serving plane is free when it is not used.

``repro.serving`` put a chunk-granular cache surface in front of the
engine read path and refactored ``BPEngineBase.get`` onto the shared
``chunk_entries``/``read_chunk`` primitives; the contract is twofold:

* **model**: a ``policy="none"`` cached reader charges exactly the same
  virtual clocks as direct ``Series.load`` — not approximately, bit-for-
  bit (the refactored ``get`` is the same per-entry cost/event order);
* **wall**: routing every load through the (disabled) cache surface
  costs < 5 % wall time over direct loads of the same series.  Both
  sides go in pairs in one process (:func:`conftest.paired_ratio`), so
  machine speed cancels out.
"""

import numpy as np
from conftest import paired_ratio

from repro.cluster.presets import dardel
from repro.fs import PosixIO, mount
from repro.io_adaptor import Bit1OpenPMDWriter
from repro.mpi import VirtualComm
from repro.openpmd.series import Access, Series
from repro.pic import Bit1Simulation
from repro.serving import CachedSeriesReader, ServingConfig
from repro.workloads import small_use_case

#: one load loop takes well under a millisecond; the median of 101
#: pairs holds still to about 1 %
PAIRS = 101
MAX_OVERHEAD = 0.05


def _fresh_series():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    posix = PosixIO(fs, comm)
    writer = Bit1OpenPMDWriter(posix, comm, "/run/bench")
    cfg = small_use_case(ncells=64, particles_per_cell=20, last_step=80,
                         datfile=20, dmpstep=80)
    Bit1Simulation(cfg, comm, writers=[writer]).run()
    series = Series(posix, comm, "/run/bench/bit1_dat.bp4",
                    Access.READ_ONLY)
    paths = [series.mesh_path(it, mesh)
             for it in series.read_iterations()
             for mesh in ("e_density", "D_density", "D_plus_density")]
    return comm, series, [p for p in paths if series.variable_chunks(p)]


class TestServingOverhead:
    def test_disabled_cache_charges_identical_virtual_clocks(self):
        comm_a, series_a, paths_a = _fresh_series()
        direct = [series_a.load(p) for p in paths_a]
        comm_b, series_b, paths_b = _fresh_series()
        reader = CachedSeriesReader(series_b,
                                    config=ServingConfig(policy="none"))
        cached = [reader.load(p) for p in paths_b]
        assert np.array_equal(comm_a.clocks, comm_b.clocks), (
            "policy='none' must charge the exact virtual time of direct "
            "loads")
        for a, b in zip(direct, cached):
            assert a.tobytes() == b.tobytes()

    def test_disabled_cache_wall_overhead_under_5_percent(self):
        _, series, paths = _fresh_series()
        reader = CachedSeriesReader(series,
                                    config=ServingConfig(policy="none"))

        def direct():
            for p in paths:
                series.load(p)

        def through_serving():
            for p in paths:
                reader.load(p)

        ratio = paired_ratio(PAIRS, direct, through_serving)
        assert ratio <= 1 + MAX_OVERHEAD, (
            f"reads through the disabled serving surface took {ratio:.3f}x "
            f"the direct loads (median of {PAIRS} pairs); allowed "
            f"{1 + MAX_OVERHEAD:.2f}x")

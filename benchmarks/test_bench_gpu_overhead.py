"""Micro-benchmark: the GPU/hybrid plane is free when it is not used.

``repro.gpu`` threads an optional staging leg through the scaled runner
and the multi-level checkpoint store; the contract is twofold:

* **model**: a hybrid run on an idealised device (infinite link, zero
  latency, unbounded staging) charges exactly the same virtual clocks
  as the plain CPU run — not approximately, bit-for-bit (every staging
  charge is exactly ``0.0`` seconds);
* **wall**: the no-GPU path (``hybrid=None``, the default every
  existing caller takes) costs < 5 % wall time over the pre-plane
  runner.  Both sides go in pairs in one process
  (:func:`conftest.paired_ratio`), so machine speed cancels out.
"""

import numpy as np
from conftest import paired_ratio

from repro.cluster import GpuSpec, dardel, dardel_gpu
from repro.cluster.machine import replace
from repro.gpu import HybridConfig
from repro.workloads import small_use_case
from repro.workloads.runner import run_openpmd_scaled

#: a pair of ~20 ms runs; the median of 101 pairs holds still to about 1 %
PAIRS = 101
MAX_OVERHEAD = 0.05

IDEAL = GpuSpec(link_bandwidth=float("inf"), link_latency=0.0,
                gds_bandwidth=float("inf"))


def _config():
    return small_use_case(ncells=32, particles_per_cell=10, last_step=40,
                          datfile=20, dmpstep=20)


def _run(machine, hybrid=None):
    return run_openpmd_scaled(machine, 2, config=_config(),
                              ranks_per_node=8, engine_ext=".bp5",
                              seed=3, hybrid=hybrid)


class TestGpuOverhead:
    def test_ideal_hybrid_charges_identical_virtual_clocks(self):
        m = dardel_gpu()
        ideal = replace(m, node=replace(m.node, gpus=(IDEAL,) * 4))
        base = _run(m)
        hyb = _run(ideal, hybrid=HybridConfig(staging_bytes=None))
        assert np.array_equal(base.comm.clocks, hyb.comm.clocks), (
            "an infinite-link hybrid run must charge the exact virtual "
            "time of the plain CPU run")

    def test_no_gpu_path_wall_overhead_under_5_percent(self):
        # both sides run the same runner; the candidate carries the GPU
        # machine preset (gpus field populated, hybrid=None) so any cost
        # of the plane's plumbing on the default path is measured
        ratio = paired_ratio(PAIRS, lambda: _run(dardel()),
                             lambda: _run(dardel_gpu()))
        assert ratio <= 1 + MAX_OVERHEAD, (
            f"the no-hybrid path on a GPU preset took {ratio:.3f}x the "
            f"CPU preset run (median of {PAIRS} pairs); allowed "
            f"{1 + MAX_OVERHEAD:.2f}x")

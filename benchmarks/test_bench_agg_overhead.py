"""Micro-benchmark: the async drain's knob and scheduler stay cheap.

The two-level/async-drain work added per-flush bookkeeping to
``BPEngineBase`` (drain schedules, residency tracking) and routed
``write_aggregate`` costs through ``aggregate_stream_seconds``.  Both
checks compare two variants of the two-node openPMD scaled run in the
same process, so machine speed cancels out:

* **staging bound**: the per-aggregator staging bound
  (``host_memory_bound``, BP5 MaxShmSize), which only the async drain
  reads, adds <= 5 % wall time to a default synchronous run (BP4's
  one-level shuffle);
* **async**: a BP5 run with the async drain stays within 2x of the same
  BP5 run draining synchronously, so the drain scheduler itself is not a
  hot spot.

Neither check times the drain bookkeeping that a synchronous run does
in every configuration: both sides of the first pair do it alike.  The
contract that a default run pays < 5 % over the implementation before
the drain layer has no in-process reference, since that implementation
no longer exists, and is not guarded here.
"""

from conftest import paired_ratio

from repro.cluster.presets import dardel
from repro.workloads.runner import run_openpmd_scaled

#: both sides of a pair do the same work, so a single pair reads only
#: host noise (0.5x-1.6x on a busy shared 2-vCPU VM); the median of 101
#: pairs stayed within 4 % of 1x there
PAIRS = 101
MAX_OVERHEAD = 0.05
#: per-aggregator staging bound for the async drain (BP5 MaxShmSize)
STAGING_BOUND = 64 << 20


class TestAggOverhead:
    def test_async_staging_bound_is_inert_on_sync_path(self):
        """A synchronous run never reads the async drain's staging bound,
        so setting it costs nothing."""
        ratio = paired_ratio(
            PAIRS,
            lambda: run_openpmd_scaled(dardel(), 2, seed=0),
            lambda: run_openpmd_scaled(dardel(), 2, seed=0,
                                       host_memory_bound=STAGING_BOUND))
        assert ratio <= 1 + MAX_OVERHEAD, (
            f"sync openPMD run with a staging bound took {ratio:.3f}x the "
            f"run without it (median of {PAIRS} pairs); allowed "
            f"{1 + MAX_OVERHEAD:.2f}x")

    def test_async_drain_stays_bounded(self):
        """Sanity: the drain scheduler itself is not a hot spot."""
        ratio = paired_ratio(
            5,
            lambda: run_openpmd_scaled(dardel(), 2, seed=0,
                                       engine_ext=".bp5"),
            lambda: run_openpmd_scaled(dardel(), 2, seed=0,
                                       engine_ext=".bp5", async_drain=True))
        assert ratio <= 2, (
            f"async-drain BP5 run took {ratio:.3f}x the same run with a "
            f"synchronous drain (median of 5 pairs); allowed 2x")

"""Micro-benchmark: fault injection is near-free when nothing fires.

The `repro.faults` guard sits in front of every PosixIO data operation,
so the contract is that a run with an installed-but-inert FaultPlan (no
spec ever fires) and a RetryPolicy pays <= 5 % wall time over the same
run with no fault plan at all.  Both runs go in pairs in one process
(:func:`conftest.paired_ratio`), so machine speed cancels out.
"""

from conftest import paired_ratio

from repro.cluster.presets import dardel
from repro.faults import FaultPlan, RetryPolicy, TransientError
from repro.workloads.runner import run_original_scaled

#: a single pair of ~80 ms runs reads mostly host noise; the median of
#: 101 pairs holds still to about 1 %
PAIRS = 101
MAX_OVERHEAD = 0.05

#: armed far past the run's last step: the guard is installed and
#: consulted at every step boundary, but no fault ever matches
INERT_PLAN = FaultPlan((TransientError("write", step=10**9),), seed=0)


class TestFaultGuardOverhead:
    def test_inert_plan_under_five_percent(self):
        ratio = paired_ratio(
            PAIRS,
            lambda: run_original_scaled(dardel(), 2, seed=0),
            lambda: run_original_scaled(dardel(), 2, seed=0,
                                        fault_plan=INERT_PLAN,
                                        retry_policy=RetryPolicy()))
        assert ratio <= 1 + MAX_OVERHEAD, (
            f"inert fault plan took {ratio:.3f}x the run without faults "
            f"(median of {PAIRS} pairs); allowed {1 + MAX_OVERHEAD:.2f}x")

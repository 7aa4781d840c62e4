"""Micro-benchmark: the trace spine is zero-cost when disabled.

Every Darshan counter flows through the ``repro.trace`` bus, and the bus
promises that a subscriber costs nothing for the event kinds it does not
want (``TraceBus.wants``), which is what keeps ``trace_mode=None`` — the
default everywhere — cheap.  Both checks compare two variants of the
Fig. 2 two-node scaled run in the same process, so machine speed cancels
out:

* **disabled**: the counters-only run with one more subscriber attached,
  wanting no kind the run emits, costs <= 5 % wall time over the same
  run without it;
* **full**: retaining the raw event stream (``trace_mode="full"``) stays
  within 2x of the counters-only run.
"""

from conftest import paired_ratio

import repro.workloads.runner as runner
from repro.cluster.presets import dardel
from repro.trace import TraceSession

#: single pairs of identical runs read 0.5x-1.6x on a busy shared
#: 2-vCPU VM; the median of 101 pairs stayed within 4 % of 1x there
PAIRS = 101
MAX_OVERHEAD = 0.05


class _InertSubscriber:
    """Wants only a GPU-plane kind, which a CPU run never emits."""

    kinds = frozenset({"gds"})

    def on_event(self, event) -> None:
        raise AssertionError(f"inert subscriber received {event!r}")


class _SessionWithInertSubscriber(TraceSession):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus.subscribe(_InertSubscriber())


def _counters_only():
    return runner.run_original_scaled(dardel(), 2, seed=0)


class TestTraceOverhead:
    def test_disabled_tracing_under_five_percent(self, monkeypatch):
        def with_inert_subscriber():
            with monkeypatch.context() as patch:
                patch.setattr(runner, "TraceSession",
                              _SessionWithInertSubscriber)
                return _counters_only()

        ratio = paired_ratio(PAIRS, _counters_only, with_inert_subscriber)
        assert ratio <= 1 + MAX_OVERHEAD, (
            f"counters-only run with an inert subscriber took {ratio:.3f}x "
            f"the run without it (median of {PAIRS} pairs); allowed "
            f"{1 + MAX_OVERHEAD:.2f}x")

    def test_full_mode_stays_bounded(self):
        """Sanity: even event retention stays within 2x of counters only."""
        ratio = paired_ratio(
            5, _counters_only,
            lambda: runner.run_original_scaled(dardel(), 2, seed=0,
                                               trace_mode="full"))
        assert ratio <= 2, (
            f"full-mode run took {ratio:.3f}x the counters-only run "
            f"(median of 5 pairs); allowed 2x")

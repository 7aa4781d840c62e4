"""Overhead guards: each feature costs little or nothing when unused.

One row per guard: a feature, a reference run and a variant run that
differ by that feature alone, a number of pairs and a bound on the
median wall-time ratio variant / reference.  The two runs of a row go
in one process, so machine speed cancels out.

* ``agg_staging_bound``: the async drain's staging bound
  (``host_memory_bound``, BP5 MaxShmSize) on a synchronous run, which
  never reads it;
* ``agg_async_drain`` (sanity): a BP5 run with the async drain against
  the same run draining synchronously — the drain scheduler is no hot
  spot;
* ``faults_inert_plan``: an installed fault plan whose only spec never
  fires, with a retry policy, on the original writer;
* ``gpu_no_hybrid``: the default ``hybrid=None`` path on the GPU
  machine preset against the CPU preset;
* ``resilience_disabled_store``: ``run_crash_restart`` without a
  checkpoint policy against its fault-free loop written inline with no
  store plumbing;
* ``serving_disabled_cache``: loads through a ``policy="none"`` cached
  reader against direct ``Series.load`` calls;
* ``trace_inert_subscriber``: a counters-only run with one more
  subscriber that wants no kind the run emits;
* ``trace_full`` (sanity): retaining the raw event stream against
  counters only.

Single pairs of identical runs read 0.5x-1.6x on a busy shared 2-vCPU
VM; the median of 101 pairs held within 4 % of 1x there.  Neither the
drain bookkeeping a synchronous run does in every configuration nor the
pre-drain-layer implementation has an in-process reference, so neither
is guarded.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import pytest

import repro.workloads.runner as runner
from repro.cluster import dardel, dardel_gpu
from repro.faults import FaultPlan, RetryPolicy, TransientError
from repro.fs import PosixIO, mount
from repro.io_adaptor import Bit1OpenPMDWriter, OriginalIOWriter
from repro.mpi import VirtualComm
from repro.openpmd.series import Access, Series
from repro.pic import Bit1Simulation
from repro.serving import CachedSeriesReader, ServingConfig
from repro.trace import TraceSession
from repro.workloads import run_crash_restart, small_use_case


def paired_ratio(n: int, reference, variant) -> float:
    """Median over ``n`` pairs of ``variant()`` / ``reference()`` wall time.

    The two runs of a pair go back to back, in alternating order, so
    both see the same host load, and the median drops the pairs a burst
    of load hit on one side only.  On a busy shared host the best-of-n
    time of each side does not cancel that noise: one lucky fast
    reference run is enough to fail the check.
    """
    ratios = []
    for i in range(n):
        pair = [reference, variant] if i % 2 == 0 else [variant, reference]
        seconds = {}
        for fn in pair:
            t0 = time.perf_counter()
            fn()
            seconds[fn] = time.perf_counter() - t0
        ratios.append(seconds[variant] / seconds[reference])
    return statistics.median(ratios)


# ---------------------------------------------------------------------------
# the runs the rows compare


def _openpmd(**kw):
    return runner.run_openpmd_scaled(dardel(), 2, seed=0, **kw)


def _original(**kw):
    return runner.run_original_scaled(dardel(), 2, seed=0, **kw)


#: armed far past the run's last step: the guard is installed and
#: consulted at every step boundary, but no fault ever matches
INERT_PLAN = FaultPlan((TransientError("write", step=10**9),), seed=0)

SMALL = small_use_case(ncells=32, particles_per_cell=10, last_step=40,
                       datfile=20, dmpstep=20)


def _gpu_preset_run(machine):
    return runner.run_openpmd_scaled(machine, 2, config=SMALL,
                                     ranks_per_node=8, engine_ext=".bp5",
                                     seed=3)


def _small_stack():
    comm = VirtualComm(4, 2)
    session = TraceSession(comm)
    posix = PosixIO(mount(dardel().storage_named("lfs")), comm,
                    trace=session.bus)
    return comm, posix, session


def _inline_restart_loop():
    """The runner's fault-free path with zero store plumbing."""
    comm, posix, session = _small_stack()
    out = OriginalIOWriter(posix, comm, "/out")
    sim = Bit1Simulation(SMALL, comm)
    while sim.step_index < SMALL.last_step:
        with session.bus.step(sim.step_index + 1):
            sim.step()
            if sim.step_index % SMALL.datfile == 0:
                out.write_diagnostics(sim, sim.step_index)
            if sim.step_index % SMALL.dmpstep == 0:
                out.write_checkpoint(sim, sim.step_index)
                runner._write_sidecar(posix, "/out", sim.step_index,
                                      sim.rng)
    out.write_checkpoint(sim, sim.step_index)
    runner._write_sidecar(posix, "/out", sim.step_index, sim.rng)
    out.finalize(sim)


def _store_disabled():
    comm, posix, _ = _small_stack()
    assert run_crash_restart(SMALL, comm, posix, "/out",
                             writer="original").crashes == 0


def _serving_pair():
    comm = VirtualComm(4, 2)
    posix = PosixIO(mount(dardel().storage_named("lfs")), comm)
    Bit1Simulation(small_use_case(ncells=64, particles_per_cell=20,
                                  last_step=80, datfile=20, dmpstep=80),
                   comm, writers=[Bit1OpenPMDWriter(posix, comm,
                                                    "/run/bench")]).run()
    series = Series(posix, comm, "/run/bench/bit1_dat.bp4",
                    Access.READ_ONLY)
    paths = [p for p in (series.mesh_path(it, mesh)
                         for it in series.read_iterations()
                         for mesh in ("e_density", "D_density",
                                      "D_plus_density"))
             if series.variable_chunks(p)]
    reader = CachedSeriesReader(series, config=ServingConfig(policy="none"))
    return (lambda: [series.load(p) for p in paths],
            lambda: [reader.load(p) for p in paths])


class _InertSubscriber:
    """Wants only a GPU-plane kind, which a CPU run never emits."""

    kinds = frozenset({"gds"})

    def on_event(self, event) -> None:
        raise AssertionError(f"inert subscriber received {event!r}")


class _SessionWithInertSubscriber(TraceSession):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus.subscribe(_InertSubscriber())


def _with_inert_subscriber():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(runner, "TraceSession", _SessionWithInertSubscriber)
        return _original()


# ---------------------------------------------------------------------------
# the table


class Guard(NamedTuple):
    feature: str
    #: () -> (reference, variant): the two runs, built once per row
    pair: object
    pairs: int
    bound: float


ROWS = [
    Guard("agg_staging_bound",
          lambda: (_openpmd, lambda: _openpmd(host_memory_bound=64 << 20)),
          101, 1.05),
    Guard("agg_async_drain",
          lambda: (lambda: _openpmd(engine_ext=".bp5"),
                   lambda: _openpmd(engine_ext=".bp5", async_drain=True)),
          5, 2.0),
    Guard("faults_inert_plan",
          lambda: (_original, lambda: _original(
              fault_plan=INERT_PLAN, retry_policy=RetryPolicy())),
          101, 1.05),
    Guard("gpu_no_hybrid",
          lambda: (lambda: _gpu_preset_run(dardel()),
                   lambda: _gpu_preset_run(dardel_gpu())),
          101, 1.05),
    Guard("resilience_disabled_store",
          lambda: (_inline_restart_loop, _store_disabled), 101, 1.05),
    Guard("serving_disabled_cache", _serving_pair, 101, 1.05),
    Guard("trace_inert_subscriber",
          lambda: (_original, _with_inert_subscriber), 101, 1.05),
    Guard("trace_full",
          lambda: (_original, lambda: _original(trace_mode="full")),
          5, 2.0),
]


@pytest.mark.parametrize("guard", ROWS, ids=[g.feature for g in ROWS])
def test_unused_feature_costs_little(guard):
    reference, variant = guard.pair()
    ratio = paired_ratio(guard.pairs, reference, variant)
    assert ratio <= guard.bound, (
        f"{guard.feature}: the variant took {ratio:.3f}x the reference "
        f"(median of {guard.pairs} pairs); allowed {guard.bound:.2f}x")

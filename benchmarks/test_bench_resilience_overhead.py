"""Micro-benchmark: the multi-level store is free when disabled.

``run_crash_restart`` grew a ``checkpoint_policy`` hook for the
``repro.resilience`` tiers; the contract is that a run with the store
disabled (``checkpoint_policy=None`` — the default everywhere) pays
<= 5 % wall time over the same orchestration written without any store
plumbing at all.  The baseline replicates the runner's fault-free loop
inline — step, diagnostics, checkpoint + sidecar, finalize — so the
measured delta is exactly the per-step/per-checkpoint store checks.
Both go in pairs in one process (:func:`conftest.paired_ratio`), so
machine speed cancels out.
"""

from conftest import paired_ratio

from repro.cluster.presets import dardel
from repro.fs import PosixIO, mount
from repro.io_adaptor import OriginalIOWriter
from repro.mpi import VirtualComm
from repro.pic import Bit1Simulation
from repro.trace.session import TraceSession
from repro.workloads import run_crash_restart, small_use_case
from repro.workloads.runner import _write_sidecar

#: a single pair of runs reads mostly host noise; the median of 101
#: pairs holds still to about 1 %
PAIRS = 101
MAX_OVERHEAD = 0.05

CFG = small_use_case(ncells=32, particles_per_cell=10, last_step=40,
                     datfile=20, dmpstep=20)


def _stack():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    session = TraceSession(comm)
    posix = PosixIO(fs, comm, trace=session.bus)
    return comm, posix, session


def _baseline():
    """The runner's fault-free path with zero store plumbing."""
    comm, posix, session = _stack()
    out = OriginalIOWriter(posix, comm, "/out")
    sim = Bit1Simulation(CFG, comm)
    bus = session.bus
    while sim.step_index < CFG.last_step:
        nxt = sim.step_index + 1
        with bus.step(nxt):
            sim.step()
            if sim.step_index % CFG.datfile == 0:
                out.write_diagnostics(sim, sim.step_index)
            if sim.step_index % CFG.dmpstep == 0:
                out.write_checkpoint(sim, sim.step_index)
                _write_sidecar(posix, "/out", sim.step_index, sim.rng)
    out.write_checkpoint(sim, sim.step_index)
    _write_sidecar(posix, "/out", sim.step_index, sim.rng)
    out.finalize(sim)


def _store_disabled():
    comm, posix, _ = _stack()
    rep = run_crash_restart(CFG, comm, posix, "/out", writer="original")
    assert rep.crashes == 0


class TestResilienceOverhead:
    def test_disabled_store_under_five_percent(self):
        ratio = paired_ratio(PAIRS, _baseline, _store_disabled)
        assert ratio <= 1 + MAX_OVERHEAD, (
            f"store-disabled run took {ratio:.3f}x the inline baseline "
            f"(median of {PAIRS} pairs); allowed {1 + MAX_OVERHEAD:.2f}x")

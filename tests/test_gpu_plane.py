"""GPU/hybrid scenario plane tests (``repro.gpu``).

The plane's contract has three legs, all pinned here:

* **Exactness** — a hybrid run with an infinite, zero-latency link and
  unbounded staging is *bit-identical* to the plain CPU run (clocks,
  Darshan counters, file census), including under an active fault
  plan; and a CPU-only run on the GPU machine preset is bit-identical
  to the same run with the ``gpus`` field stripped (inert data).
* **Model shape** — bounded host staging pays turnarounds and NIC-drain
  stalls, GDS pays a slower wire but zero host residency, H2DStall
  windows derate the link, and the ``gpu`` memory account carries the
  pinned staging residency.
* **Fault/restart** — DeviceOOM and EccRetirement kill the node's job
  like a NodeCrash; crash-restart through the multi-level store (with
  the D2H/H2D checkpoint legs charged) converges bit-identically to
  the fault-free run.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import GpuSpec, dardel, dardel_gpu, machine_by_name
from repro.cluster.machine import NodeSpec, replace
from repro.experiments.gpu import gpu_report
from repro.experiments.points import openpmd_report
from repro.faults import (
    RECOVERABLE_TYPES,
    DeviceOOM,
    EccRetirement,
    FaultInjector,
    FaultPlan,
    H2DStall,
    MDSSlowdown,
    NICFlap,
    NodeCrashError,
)
from repro.fs import mount
from repro.gpu import HybridConfig, HybridStager, HybridWriter
from repro.mem import MemoryBudget, use_budget
from repro.mpi import VirtualComm
from repro.resilience import CheckpointPolicy
from repro.trace.session import TraceSession
from repro.util.units import GiB, MiB
from repro.workloads import run_crash_restart
from repro.workloads.runner import run_openpmd_scaled
from tests.oracle import (
    assert_identical,
    assert_same,
    crash_config,
    crash_stack,
    fault_free_state,
    final_state,
    observe,
)

pytestmark = pytest.mark.gpu

#: an idealised device: the staging leg costs exactly 0.0 seconds
IDEAL = GpuSpec(link_bandwidth=float("inf"), link_latency=0.0,
                gds_bandwidth=float("inf"))


def _run(machine, hybrid=None, fault_plan=None, seed=3, trace_mode=None):
    return run_openpmd_scaled(machine, 2, config=crash_config(),
                              ranks_per_node=8, engine_ext=".bp5",
                              seed=seed, hybrid=hybrid,
                              fault_plan=fault_plan, trace_mode=trace_mode)


class TestSpecs:
    def test_cpu_presets_have_no_gpus(self):
        assert dardel().node.gpus == ()
        assert dardel().node.gpus_per_node == 0

    def test_dardel_gpu_preset(self):
        m = dardel_gpu()
        assert m.name == "Dardel-GPU"
        assert m.node.gpus_per_node == 4
        assert all(g.name == "MI250X" for g in m.node.gpus)
        assert m.node.gpus[0].memory_bytes == 128 * GiB
        assert m.node.gpus[0].gds_bandwidth is not None
        # the CPU job shape is preserved: 200 nodes x 128 ranks fits
        assert m.num_nodes >= 200 and m.cores_per_node == 128
        # storage tuning is shared with the CPU partition
        assert m.storage == dardel().storage

    def test_machine_by_name_resolves_hyphenated(self):
        assert machine_by_name("Dardel-GPU").name == "Dardel-GPU"
        assert machine_by_name("dardel_gpu").name == "Dardel-GPU"

    def test_hybrid_config_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(mode="device")
        with pytest.raises(ValueError):
            HybridConfig(staging_bytes=0)
        HybridConfig(staging_bytes=None)  # unbounded is fine

    def test_stager_needs_gpus(self):
        comm = VirtualComm(4, 2)
        with pytest.raises(ValueError):
            HybridStager(comm, ())

    def test_gds_requires_gds_capable_devices(self):
        comm = VirtualComm(4, 2)
        no_gds = GpuSpec(gds_bandwidth=None)
        with pytest.raises(ValueError, match="GDS"):
            HybridStager(comm, (no_gds,), HybridConfig(mode="gds"))

    def test_hybrid_run_requires_gpu_machine(self):
        with pytest.raises(ValueError, match="no GPUs"):
            _run(dardel(), hybrid=HybridConfig())

    def test_hybrid_writer_alias(self):
        assert HybridWriter is HybridStager


class TestCpuOnlyGolden:
    def test_gpus_field_is_inert_without_hybrid(self):
        # satellite 1: the GPU preset with gpus=() stripped produces the
        # byte-identical run — the field alone changes nothing
        m_gpu = dardel_gpu()
        m_bare = replace(m_gpu, node=replace(m_gpu.node, gpus=()))
        assert_same(observe(partial(_run, m_gpu)),
                    observe(partial(_run, m_bare)))

    def test_default_nodespec_is_cpu_only(self):
        assert NodeSpec().gpus == ()


class TestBitIdentity:
    """Ideal-device hybrid runs are exact no-ops on every observable."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 3),
           mode=st.sampled_from(["host", "gds"]),
           staging=st.sampled_from([None, 64 * 1024, 2 * MiB]),
           faulted=st.booleans())
    @example(seed=3, mode="host", staging=None, faulted=False)
    def test_ideal_link_is_bit_identical(self, seed, mode, staging, faulted):
        """Every facet is bit-identical but the ``gpu`` memory account,
        which only the hybrid run holds.  The runs record no events: the
        ``gpu`` layer's (the staging legs) exist only in the hybrid run,
        and they would also move ``bus.seq`` and the breakdown."""
        m = dardel_gpu()
        m_ideal = replace(m, node=replace(m.node, gpus=(IDEAL,) * 4))
        plan = None
        if faulted:
            plan = FaultPlan((H2DStall(0, 0, 40, factor=0.25),
                              NICFlap(1, 20, 30, factor=0.5),
                              MDSSlowdown(10, 30, factor=4.0)), seed=seed)
        base = observe(partial(_run, m, fault_plan=plan, seed=seed))
        hyb = observe(partial(
            _run, m_ideal, seed=seed, fault_plan=plan,
            hybrid=HybridConfig(mode=mode, staging_bytes=staging)))
        del hyb["mem"]["gpu"]
        assert_same(base, hyb)
        assert hyb.result.gpu_report["drain_seconds_max"] == 0.0

    def test_finite_link_charges_time(self):
        m = dardel_gpu()
        base = _run(m)
        hyb = _run(m, hybrid=HybridConfig())
        assert hyb.comm.max_time() > base.comm.max_time()
        assert hyb.gpu_report["drain_seconds_max"] > 0.0


class TestStagingModel:
    def _stager(self, gpus, config=None, bus=None, rpn=2, size=4):
        comm = VirtualComm(size, rpn)
        return comm, HybridStager(comm, gpus, config, bus=bus)

    def test_openpmd_report_gpu_section_matches_gpu_report(self):
        machine = dardel_gpu()
        rep = gpu_report(machine, 2, "host", len(machine.node.gpus), 2,
                         num_aggregators=2, engine_ext=".bp5", seed=3,
                         config=crash_config())
        hybrid = openpmd_report(
            machine, 2, config=crash_config(), num_aggregators=2,
            engine_ext=".bp5", async_drain=True, seed=3,
            hybrid=HybridConfig(mode="host", staging_bytes=2 * MiB))
        assert hybrid["gpu"] == {k: v for k, v in rep.items()
                                 if k != "makespan_s"}
        assert hybrid["makespan"] == rep["makespan_s"]
        assert "gpu" not in openpmd_report(machine, 2, config=crash_config(),
                                           seed=3)

    def test_rank_to_gpu_mapping(self):
        comm, stager = self._stager((GpuSpec(), GpuSpec()), rpn=4, size=8)
        # 2 nodes x 4 ranks over 2 devices: round-robin within the node
        np.testing.assert_array_equal(stager.gpu_of_rank,
                                      [0, 1, 0, 1, 2, 3, 2, 3])

    def test_host_turnarounds_and_stall(self):
        spec = GpuSpec(link_bandwidth=10 * GiB, link_latency=1e-6,
                       gds_bandwidth=None)
        comm, stager = self._stager(
            (spec,), HybridConfig(staging_bytes=1 * MiB), rpn=2, size=4)
        per_rank = 3 * MiB  # 6 MiB per device -> 6 turnarounds of 1 MiB
        stager.stage_step(float(per_rank))
        assert stager.turnarounds == 12  # 6 per device, 2 devices
        rep = stager.report()
        expected_wire = 6 * MiB / (10 * GiB) + 6 * 1e-6
        expected_stall = 5 * 1 * MiB * 1 / comm.config.bandwidth
        assert rep["d2h_seconds_max"] == pytest.approx(expected_wire)
        assert rep["stall_seconds_max"] == pytest.approx(expected_stall)
        # every rank of a device waits for that device's whole drain
        assert np.all(comm.clocks > 0.0)
        np.testing.assert_allclose(comm.clocks,
                                   expected_wire + expected_stall)

    def test_unbounded_staging_single_turnaround(self):
        spec = GpuSpec(link_bandwidth=10 * GiB, link_latency=0.0)
        comm, stager = self._stager(
            (spec,), HybridConfig(staging_bytes=None), rpn=2, size=4)
        stager.stage_step(float(8 * MiB))
        assert stager.turnarounds == 2  # one per device
        assert stager.report()["stall_seconds_max"] == 0.0

    def test_gds_zero_host_residency(self):
        spec = GpuSpec(gds_bandwidth=10 * GiB)
        with use_budget(MemoryBudget()) as budget:
            comm, stager = self._stager((spec,), HybridConfig(mode="gds"))
            stager.stage_step(float(4 * MiB))
            assert stager.peak_staging_bytes == 0
            assert budget.account("gpu").high_water == 0
            assert stager.report()["gds_seconds_max"] > 0.0

    def test_host_staging_bills_gpu_account(self):
        spec = GpuSpec(link_bandwidth=10 * GiB)
        with use_budget(MemoryBudget()) as budget:
            comm, stager = self._stager(
                (spec,), HybridConfig(staging_bytes=1 * MiB), rpn=2, size=4)
            stager.stage_step(float(4 * MiB))
            acct = budget.account("gpu")
            # double-buffered window per device: min(8 MiB, 2 MiB) x 2
            assert acct.high_water == 4 * MiB
            assert acct.used == 0  # released once the drain completes
            assert stager.peak_staging_bytes == 4 * MiB

    def test_h2d_stall_derates_the_link(self):
        spec = GpuSpec(link_bandwidth=10 * GiB, link_latency=0.0)

        class _State:
            h2d_factor = 0.5

        comm, fast = self._stager((spec,),
                                  HybridConfig(staging_bytes=None))
        comm2, slow = self._stager((spec,),
                                   HybridConfig(staging_bytes=None))
        comm2.fault_state = _State()
        fast.stage_step(float(2 * MiB))
        slow.stage_step(float(2 * MiB))
        assert slow.report()["d2h_seconds_max"] == pytest.approx(
            2 * fast.report()["d2h_seconds_max"])

    def test_events_ride_the_gpu_layer(self):
        comm = VirtualComm(4, 2)
        session = TraceSession(comm, mode="full")
        stager = HybridStager(
            comm, (GpuSpec(link_bandwidth=10 * GiB),),
            HybridConfig(staging_bytes=64 * 1024), bus=session.bus)
        stager.stage_step(float(1 * MiB))
        gds_stager = HybridStager(comm, (GpuSpec(gds_bandwidth=10 * GiB),),
                                  HybridConfig(mode="gds"), bus=session.bus)
        gds_stager.stage_step(float(1 * MiB))
        kinds = {e.kind for e in session.events}
        assert {"d2h", "gpu_stall", "gds"} <= kinds
        for e in session.events:
            if e.kind in ("d2h", "h2d", "gds", "gpu_stall"):
                assert e.layer == "gpu" and e.api == "GPU"

    def test_node_blob_transfer_roundtrip_symmetry(self):
        spec = GpuSpec(link_bandwidth=10 * GiB, link_latency=1e-6)
        comm, stager = self._stager((spec, spec),
                                    HybridConfig(staging_bytes=None))
        down = stager.d2h_node(0, 4 * MiB)
        up = stager.h2d_node(0, 4 * MiB)
        assert down == up > 0.0
        # the blob splits over both devices in parallel
        assert down == pytest.approx(1e-6 + (2 * MiB) / (10 * GiB))


class TestGpuFaults:
    def test_spec_registration(self):
        FaultPlan((DeviceOOM(0, 20), EccRetirement(1, 20, gpu=3),
                   H2DStall(0, 10, 30)))
        assert not FaultPlan((DeviceOOM(0, 20),)).recoverable
        assert not FaultPlan((EccRetirement(0, 20),)).recoverable
        assert FaultPlan((H2DStall(0, 10, 30),)).recoverable
        assert H2DStall in RECOVERABLE_TYPES

    def test_h2d_stall_window_factor(self):
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(4, 2)
        plan = FaultPlan((H2DStall(0, 10, 20, factor=0.2),
                          H2DStall(1, 15, 25, factor=0.5)))
        inj = FaultInjector(plan, fs, comm=comm)
        inj.begin_step(5)
        assert inj.state.h2d_factor == 1.0
        inj.begin_step(12)
        assert inj.state.h2d_factor == 0.2  # min of the active windows
        inj.begin_step(22)
        assert inj.state.h2d_factor == 0.5
        inj.begin_step(30)
        assert inj.state.h2d_factor == 1.0

    @pytest.mark.parametrize("spec", [DeviceOOM(0, 25), EccRetirement(0, 25)])
    def test_device_fatal_faults_crash_the_node(self, spec):
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(4, 2)
        inj = FaultInjector(FaultPlan((spec,)), fs, comm=comm)
        with pytest.raises(NodeCrashError) as exc:
            inj.begin_step(25)
        assert exc.value.nodes == (0,)
        inj.begin_step(25)  # fired once; the restarted job replays freely


class TestCrashRestart:
    def test_hybrid_requires_multilevel_store(self):
        fs, comm, posix, _ = crash_stack()
        stager = HybridStager(comm, (GpuSpec(),))
        with pytest.raises(ValueError, match="checkpoint_policy"):
            run_crash_restart(crash_config(), comm, posix, "/out",
                              hybrid=stager)

    @pytest.mark.parametrize("fault", [DeviceOOM, EccRetirement])
    def test_device_crash_recovers_bit_identically(self, fault):
        # the acceptance scenario: a device-fatal fault kills the node,
        # recovery restores device checkpoints through the memory tiers
        # (D2H staged in, H2D restored out) and the final state is
        # bit-identical to the fault-free run
        fs, comm, posix, session = crash_stack(mode="full")
        stager = HybridStager(comm, (GpuSpec(), GpuSpec()),
                              HybridConfig(staging_bytes=1 * MiB),
                              bus=session.bus)
        plan = FaultPlan((fault(0, 25),))
        rep = run_crash_restart(
            crash_config(), comm, posix, "/out", writer="original", plan=plan,
            checkpoint_policy=CheckpointPolicy.partner(l3_interval=0),
            hybrid=stager)
        assert rep.crashes == 1 and rep.restarts == 1
        assert rep.crash_records[0].source == "l1-partner"
        assert_identical(final_state(rep.sim), fault_free_state("original"))
        # the staging legs are visible on the gpu layer: D2H at every
        # store, H2D at recovery, GPU-attributed fault at the crash
        kinds = {e.kind: e for e in session.events}
        assert "d2h" in kinds and "h2d" in kinds
        gpu_faults = [e for e in session.events
                      if e.kind == "fault" and e.api == "GPU"]
        assert gpu_faults

    def test_hybrid_store_charges_more_than_plain(self):
        plan = FaultPlan((DeviceOOM(0, 25),))
        policy = CheckpointPolicy.partner(l3_interval=0)
        fs1, comm1, posix1, _ = crash_stack()
        plain = run_crash_restart(crash_config(), comm1, posix1, "/out",
                                  writer="original", plan=plan,
                                  checkpoint_policy=policy)
        fs2, comm2, posix2, _ = crash_stack()
        stager = HybridStager(comm2, (GpuSpec(link_bandwidth=1 * GiB),),
                              HybridConfig(staging_bytes=1 * MiB))
        hybrid = run_crash_restart(crash_config(), comm2, posix2, "/out",
                                   writer="original", plan=plan,
                                   checkpoint_policy=policy, hybrid=stager)
        assert_identical(final_state(hybrid.sim),
                         final_state(plain.sim))
        assert comm2.max_time() > comm1.max_time()

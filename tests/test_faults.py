"""Fault-injection & recovery tests (``pytest -m resilience``).

Exercises the `repro.faults` layer end to end: plan validation, seeded
retry backoff, the per-op guard (transient errors, dead-OST hits,
re-striping failover), aggregator failover, fault-state derating in the
scaled runners, and the crash-restart orchestration — whose recovered
runs must be bit-identical to fault-free runs of the same seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios2.aggregation import plan_aggregation
from repro.cluster.presets import dardel
from repro.faults import (
    FaultPlan,
    InjectedIOError,
    MDSSlowdown,
    NICFlap,
    NodeCrash,
    NodeCrashError,
    OSTFault,
    RetryPolicy,
    SilentCorruption,
    TransientError,
    install_faults,
    uninstall_faults,
)
from repro.mpi import VirtualComm
from repro.workloads import run_crash_restart, run_original_scaled
from tests.oracle import (
    assert_identical,
    crash_config,
    crash_stack,
    fault_free_state,
    final_state,
)

pytestmark = pytest.mark.resilience


class TestPlan:
    def test_rejects_unknown_spec(self):
        with pytest.raises(TypeError):
            FaultPlan(("not a spec",))

    def test_transient_validation(self):
        with pytest.raises(ValueError):
            TransientError(op="chmod", step=1)
        with pytest.raises(ValueError):
            TransientError(op="write", step=1, errno_name="ENOSPC")
        with pytest.raises(ValueError):
            TransientError(op="write", step=1, count=0)

    def test_recoverable_property(self):
        ok = FaultPlan((OSTFault(0, 1, 5), MDSSlowdown(1, 5),
                        NICFlap(0, 1, 5), TransientError("write", 1)))
        assert ok.recoverable
        assert not FaultPlan((NodeCrash(0, 3),)).recoverable
        assert not FaultPlan((SilentCorruption("/f", 3),)).recoverable

    def test_of_type_and_len(self):
        plan = FaultPlan((OSTFault(0, 1, 5), OSTFault(1, 2, 6),
                          NodeCrash(0, 3)))
        assert len(plan.of_type(OSTFault)) == 2
        assert len(plan) == 3
        assert plan and not FaultPlan()


class TestRetryPolicy:
    def test_seeded_jitter_is_deterministic(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay(i) for i in range(6)] == \
               [b.delay(i) for i in range(6)]

    def test_different_seed_differs(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=2)
        assert [a.delay(i) for i in range(6)] != \
               [b.delay(i) for i in range(6)]

    def test_backoff_capped(self):
        p = RetryPolicy(base_delay=1e-3, backoff=10.0, max_delay=0.5,
                        jitter=0.0)
        assert p.delay(0) == pytest.approx(1e-3)
        assert p.delay(10) == pytest.approx(0.5)

    def test_timeout_charge_distinguishes_zero_from_unset(self):
        # regression: a *configured* zero-second timeout (fail fast)
        # must charge 0.0 because it was set, not because it is falsy —
        # and a real timeout must charge its full value
        assert RetryPolicy(op_timeout=0.0).timeout_charge() == 0.0
        assert RetryPolicy(op_timeout=2.5).timeout_charge() == 2.5
        assert RetryPolicy(op_timeout=None).timeout_charge() == 0.0


class TestGuard:
    def test_transient_without_policy_raises(self):
        fs, comm, posix, _ = crash_stack()
        inj = install_faults(posix, FaultPlan(
            (TransientError("write", step=1, errno_name="EIO"),)))
        inj.begin_step(1)
        fd = posix.open(0, "/f", create=True)
        with pytest.raises(InjectedIOError) as ei:
            posix.write(0, fd, b"doomed")
        ctx = ei.value.context
        assert ctx["op"] == "write" and ctx["step"] == 1
        assert ctx["errno"] == "EIO" and ctx["ranks"] == [0]

    def test_transient_retried_under_policy(self):
        fs, comm, posix, session = crash_stack(mode="full")
        inj = install_faults(posix, FaultPlan(
            (TransientError("write", step=1, count=2),)),
            RetryPolicy(max_retries=4))
        inj.begin_step(1)
        t0 = comm.clocks[0]
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, b"survives")  # no exception: 2 retries absorb it
        posix.close(0, fd)
        assert fs.vfs.read(fs.vfs.lookup("/f"), 0, 8) == b"survives"
        assert comm.clocks[0] > t0  # backoff was charged to the clock
        kinds = [e.kind for e in session.events]
        assert kinds.count("fault") == 2 and kinds.count("retry") == 2

    def test_dead_ost_restripes_and_retries(self):
        fs, comm, posix, session = crash_stack(mode="full")
        fd = posix.open(0, "/striped", create=True)
        posix.write(0, fd, b"x" * 4096)  # place the file on OSTs
        ino = fs.vfs.lookup("/striped")
        hit_ost = int(fs.vfs.cols.ost_start[ino])
        inj = install_faults(posix, FaultPlan(
            (OSTFault(hit_ost, start_step=1, end_step=3),)),
            RetryPolicy())
        inj.begin_step(1)
        assert hit_ost in fs.dead_osts
        posix.write(0, fd, b"y" * 4096)  # hits the outage, fails over
        posix.close(0, fd)
        # the file was re-striped off the dead OST
        start = int(fs.vfs.cols.ost_start[ino])
        count = int(fs.vfs.cols.stripe_count[ino])
        n = fs.system.num_osts
        assert hit_ost not in {(start + k) % n for k in range(count)}
        assert any(e.kind == "failover" for e in session.events)
        # window closes: OST comes back
        inj.begin_step(4)
        assert not fs.dead_osts

    def test_uninstall_detaches(self):
        fs, comm, posix, _ = crash_stack()
        inj = install_faults(posix, FaultPlan((TransientError("write", 1),)))
        assert posix.faults is inj and fs.perf.fault_state is inj.state
        uninstall_faults(posix)
        assert posix.faults is None and fs.perf.fault_state is None
        assert comm.fault_state is None

    def test_node_crash_raises(self):
        fs, comm, posix, _ = crash_stack()
        inj = install_faults(posix, FaultPlan((NodeCrash(1, 5),)))
        inj.begin_step(4)
        with pytest.raises(NodeCrashError) as ei:
            inj.begin_step(5)
        assert ei.value.node == 1 and ei.value.step == 5
        assert ei.value.nodes == (1,)
        # consumed once: replaying the step after restart does not re-crash
        inj.begin_step(5)

    def test_same_step_crashes_form_one_failure_domain(self):
        # two nodes dying in the same step is ONE failure event whose
        # domain spans both — recovery planning needs the full set
        fs, comm, posix, _ = crash_stack()
        inj = install_faults(posix, FaultPlan(
            (NodeCrash(0, 5), NodeCrash(1, 5))))
        with pytest.raises(NodeCrashError) as ei:
            inj.begin_step(5)
        assert ei.value.nodes == (0, 1) and ei.value.node == 0
        inj.begin_step(5)  # both consumed together


class TestFaultState:
    def test_window_factors_recomputed_statelessly(self):
        fs, comm, posix, _ = crash_stack()
        n = fs.system.num_osts
        inj = install_faults(posix, FaultPlan((
            OSTFault(0, 2, 4, bw_factor=0.5),
            MDSSlowdown(2, 4, factor=10.0),
            NICFlap(0, 2, 4, factor=0.1))))
        inj.begin_step(1)
        assert inj.state.bw_factor == 1.0
        assert inj.state.mds_factor == 1.0 and inj.state.nic_factor == 1.0
        inj.begin_step(3)
        assert inj.state.bw_factor == pytest.approx((0.5 + n - 1) / n)
        assert inj.state.mds_factor == 10.0
        assert inj.state.nic_factor == pytest.approx(0.1)
        assert comm.effective_bandwidth() < comm.config.bandwidth
        inj.begin_step(5)  # windows closed — factors reset, not accumulated
        assert inj.state.bw_factor == 1.0
        assert inj.state.mds_factor == 1.0 and inj.state.nic_factor == 1.0

    def test_mds_slowdown_slows_scaled_run(self):
        clean = run_original_scaled(dardel(), 1, seed=0)
        slow = run_original_scaled(
            dardel(), 1, seed=0,
            fault_plan=FaultPlan((MDSSlowdown(0, 10**9, factor=50.0),)))
        assert slow.comm.max_time() > clean.comm.max_time()


class TestAggregatorFailover:
    def test_failover_reassigns_subfiles(self):
        plan = plan_aggregation(VirtualComm(8, 4))  # one aggregator/node
        dead = int(plan.aggregator_ranks[1])
        new = plan.failover([dead])
        assert new.num_aggregators == plan.num_aggregators  # subfiles live on
        assert dead not in set(new.aggregator_ranks.tolist())
        # every rank still maps to a valid subfile index
        assert np.all(new.agg_index_of_rank < new.num_aggregators)

    def test_failover_noop_when_no_owner_died(self):
        plan = plan_aggregation(VirtualComm(8, 4))
        non_owner = next(r for r in range(8)
                         if r not in set(plan.aggregator_ranks.tolist()))
        assert plan.failover([non_owner]) is plan

    def test_all_aggregators_dead_is_fatal(self):
        plan = plan_aggregation(VirtualComm(8, 4))
        with pytest.raises(RuntimeError):
            plan.failover(plan.aggregator_ranks.tolist())


class TestCrashRestart:
    @pytest.mark.parametrize("writer", ["original", "openpmd"])
    def test_restart_bit_identical(self, writer):
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan((NodeCrash(0, 31),))
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer=writer, plan=plan)
        assert rep.crashes == 1 and rep.restarts == 1
        assert rep.sim.step_index == 40
        # restored at checkpoint 20, crashed entering 31: steps 21-30 redone
        assert rep.wasted_steps == 10
        assert_identical(final_state(rep.sim), fault_free_state(writer))

    @pytest.mark.parametrize("writer", ["original", "openpmd"])
    def test_scratch_restart_before_first_checkpoint(self, writer):
        fs, comm, posix, _ = crash_stack()
        cfg = crash_config(dmpstep=40)
        plan = FaultPlan((NodeCrash(1, 25),))
        rep = run_crash_restart(cfg, comm, posix, "/out",
                                writer=writer, plan=plan)
        assert rep.crashes == 1 and rep.wasted_steps == 24
        assert_identical(final_state(rep.sim),
                             fault_free_state(writer, cfg))

    def test_corrupt_checkpoint_refused_with_context(self):
        # corrupt the checkpoint mid-run, then crash: the restart must
        # refuse the bad checkpoint, record structured context, and fall
        # back to a scratch restart that still converges bit-identically
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan((
            SilentCorruption("/out/bit1_r00001.dmp", step=25,
                             offset=512, nbytes=8),
            NodeCrash(0, 31)))
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer="original", plan=plan)
        assert len(rep.failures) == 1
        rec = rep.failures[0]
        assert rec.step == 31
        assert {"path", "rank", "step", "species",
                "expected", "actual"} <= set(rec.context)
        assert rec.context["rank"] == 1
        assert "failed:" in rep.render()
        assert_identical(final_state(rep.sim), fault_free_state("original"))

    def test_max_restarts_exhausted(self):
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan(tuple(NodeCrash(0, s) for s in (5, 6, 7)))
        with pytest.raises(NodeCrashError):
            run_crash_restart(crash_config(), comm, posix, "/out",
                              plan=plan, max_restarts=2)

    def test_max_restarts_exact_boundary(self):
        # N crashes under max_restarts=N must complete (the budget is
        # inclusive); the same plan under N-1 must raise — no off-by-one
        plan = FaultPlan(tuple(NodeCrash(0, s) for s in (5, 6, 7)))
        fs, comm, posix, _ = crash_stack()
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                plan=plan, max_restarts=3)
        assert rep.crashes == 3 and rep.restarts == 3
        assert rep.sim.step_index == 40
        assert_identical(final_state(rep.sim),
                             fault_free_state("original"))


class TestGoldenDeterminism:
    def test_same_plan_same_event_stream(self):
        plan = FaultPlan((
            TransientError("write", step=5, count=2,
                           errno_name="ETIMEDOUT"),
            OSTFault(0, start_step=10, end_step=15),
            MDSSlowdown(10, 15, factor=5.0),
            NodeCrash(0, 31)), seed=3)
        streams = []
        for _ in range(2):
            fs, comm, posix, session = crash_stack(mode="full")
            run_crash_restart(crash_config(), comm, posix, "/out",
                              plan=plan, policy=RetryPolicy(seed=3))
            streams.append([self._freeze(e) for e in session.events])
        assert streams[0] == streams[1]
        kinds = {e[0] for e in streams[0]}
        assert {"fault", "restart"} <= kinds

    @staticmethod
    def _freeze(e):
        return (e.kind, e.layer, e.api, e.step, e.scope,
                e.ranks.tolist(), e.nbytes.tolist(),
                e.duration.tolist(), e.start.tolist(),
                None if e.inos is None else np.atleast_1d(e.inos).tolist())


_HYPO_CFG_KW = dict(ncells=16, particles_per_cell=4, last_step=12,
                    datfile=6, dmpstep=6)

_RECOVERABLE_SPEC = st.one_of(
    st.builds(TransientError,
              op=st.sampled_from(("write", "fsync")),
              step=st.integers(1, 12),
              count=st.integers(1, 2),
              errno_name=st.sampled_from(("EIO", "ETIMEDOUT"))),
    st.builds(OSTFault,
              ost=st.integers(0, 3),
              start_step=st.integers(1, 8),
              end_step=st.integers(9, 12),
              bw_factor=st.sampled_from((0.0, 0.25))),
    st.builds(MDSSlowdown,
              start_step=st.integers(1, 6),
              end_step=st.integers(7, 12),
              factor=st.floats(2.0, 20.0)),
    st.builds(NICFlap,
              node=st.integers(0, 1),
              start_step=st.integers(1, 6),
              end_step=st.integers(7, 12),
              factor=st.floats(0.05, 0.5)),
)


class TestRecoverableRoundTrip:
    @settings(max_examples=6, deadline=None)
    @given(specs=st.lists(_RECOVERABLE_SPEC, min_size=1, max_size=3),
           seed=st.integers(0, 3))
    def test_recoverable_plan_preserves_final_state(self, specs, seed):
        """Any recoverable plan, retried in place, leaves physics alone:
        the final particle state matches the fault-free run bit for bit.
        """
        plan = FaultPlan(tuple(specs), seed=seed)
        assert plan.recoverable
        cfg = crash_config(**_HYPO_CFG_KW)
        fs, comm, posix, _ = crash_stack()
        rep = run_crash_restart(cfg, comm, posix, "/out", writer="original",
                                plan=plan, policy=RetryPolicy(seed=seed))
        assert rep.crashes == 0 and rep.restarts == 0
        assert_identical(final_state(rep.sim),
                         fault_free_state("original", cfg))

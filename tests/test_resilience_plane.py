"""Multi-level checkpoint store & failure-domain-aware recovery tests.

Exercises ``repro.resilience`` end to end through
:func:`~repro.workloads.run_crash_restart`: L1 partner replication and
L2 XOR rebuilds recover a single-node crash with *zero* PFS read
traffic, failures beyond redundancy walk the L3 ring (newest first,
refusing corrupt generations), and every tier combination converges
bit-identically to the fault-free run.  Direct store tests cover the
memory-account ledger and the torn-flush semantics of the async L3
drain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import dardel
from repro.faults import FaultPlan, NodeCrash, SilentCorruption
from repro.fs import PosixIO, mount
from repro.mem import current_budget
from repro.mpi import VirtualComm
from repro.pic import Bit1Simulation
from repro.resilience import CheckpointPolicy, MultiLevelStore
from repro.workloads import run_crash_restart
from tests.oracle import (
    assert_identical,
    crash_config,
    crash_stack,
    fault_free_state,
    final_state,
)

pytestmark = pytest.mark.resilience


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(partner_interval=-1)
        with pytest.raises(ValueError):
            CheckpointPolicy(partner_interval=1, partner_distance=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(xor_interval=1, group_size=1)
        with pytest.raises(ValueError):
            CheckpointPolicy(l3_interval=1, ring_depth=0)

    def test_schedule(self):
        p = CheckpointPolicy(partner_interval=2, xor_interval=0,
                             l3_interval=3)
        assert p.partner_due(0) and not p.partner_due(1) and p.partner_due(2)
        assert not p.xor_due(0)  # 0 disables the tier entirely
        assert p.l3_due(0) and not p.l3_due(2) and p.l3_due(3)

    def test_labels(self):
        assert CheckpointPolicy.pfs_only().label() == "L0+L3/1(ring=2,async)"
        assert "L1/1(d=1)" in CheckpointPolicy.partner().label()
        assert "L2/1(g=4)" in CheckpointPolicy.xor_group().label()


class TestPartnerRecovery:
    def test_repeated_crashes_zero_pfs_reads(self):
        # the acceptance scenario: repeated single-node crashes under an
        # L1 partner policy recover purely from the memory tiers — the
        # run stays bit-identical to fault-free and the PFS never serves
        # a single recovery read (so Darshan sees zero read traffic)
        fs, comm, posix, session = crash_stack(mode="full")
        plan = FaultPlan((NodeCrash(0, 25), NodeCrash(1, 35)))
        policy = CheckpointPolicy.partner(l3_interval=0)
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer="original", plan=plan,
                                checkpoint_policy=policy)
        assert rep.crashes == 2 and rep.restarts == 2
        assert float(fs.vfs.cols.bytes_read.sum()) == 0.0
        read_events = [e for e in session.events if e.kind == "read"]
        assert read_events == []
        assert [r.source for r in rep.crash_records] == \
               ["l1-partner", "l1-partner"]
        assert all(r.restored_step == 20 for r in rep.crash_records)
        assert rep.checkpoint_policy == policy.label()
        assert_identical(final_state(rep.sim),
                             fault_free_state("original"))

    def test_store_and_rebuild_events_on_faults_layer(self):
        fs, comm, posix, session = crash_stack(mode="full")
        plan = FaultPlan((NodeCrash(0, 25),))
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer="original", plan=plan,
                                checkpoint_policy=CheckpointPolicy.partner(
                                    l3_interval=0))
        assert rep.crashes == 1
        kinds = {e.kind for e in session.events}
        assert {"ckpt_store", "rebuild"} <= kinds
        for e in session.events:
            if e.kind in ("ckpt_store", "ckpt_flush", "rebuild"):
                assert e.layer == "faults"  # Darshan never folds these

    @pytest.mark.parametrize("writer", ["original", "openpmd"])
    def test_bit_identical_both_writers(self, writer):
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan((NodeCrash(1, 31),))
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer=writer, plan=plan,
                                checkpoint_policy=CheckpointPolicy.partner())
        assert rep.crash_records[0].source == "l1-partner"
        assert_identical(final_state(rep.sim), fault_free_state(writer))


class TestXorRecovery:
    def test_single_node_rebuilt_from_parity(self):
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan((NodeCrash(0, 31),))
        policy = CheckpointPolicy.xor_group(group_size=2, l3_interval=0)
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer="original", plan=plan,
                                checkpoint_policy=policy)
        assert rep.crashes == 1
        rec = rep.crash_records[0]
        assert rec.source == "l2-xor" and rec.restored_step == 20
        assert float(fs.vfs.cols.bytes_read.sum()) == 0.0
        assert_identical(final_state(rep.sim),
                             fault_free_state("original"))


class TestBeyondRedundancy:
    def test_whole_group_lost_falls_back_to_l3(self):
        # both nodes of the partner pair die in the same step: the
        # memory tiers cannot rebuild, so recovery reads the fsynced L3
        # generation — the one path Darshan *does* see
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan((NodeCrash(0, 31), NodeCrash(1, 31)))
        policy = CheckpointPolicy(partner_interval=1, l3_interval=1,
                                  async_flush=False)
        rep = run_crash_restart(crash_config(), comm, posix, "/out",
                                writer="original", plan=plan,
                                checkpoint_policy=policy)
        assert rep.crashes == 1
        rec = rep.crash_records[0]
        assert rec.nodes == (0, 1)
        assert rec.source == "l3" and rec.restored_step == 20
        assert float(fs.vfs.cols.bytes_read.sum()) > 0.0
        assert_identical(final_state(rep.sim),
                             fault_free_state("original"))

    def test_crash_before_any_checkpoint_is_scratch(self):
        fs, comm, posix, _ = crash_stack()
        cfg = crash_config(dmpstep=40)
        plan = FaultPlan((NodeCrash(1, 25),))
        rep = run_crash_restart(cfg, comm, posix, "/out",
                                writer="original", plan=plan,
                                checkpoint_policy=CheckpointPolicy.partner())
        rec = rep.crash_records[0]
        assert rec.source == "scratch" and rec.restored_step == 0
        assert rec.generation is None
        assert_identical(final_state(rep.sim),
                             fault_free_state("original", cfg))


class TestRingWalkBack:
    def test_corrupt_newest_generation_walks_back(self):
        # satellite fix: a refused (CRC-failing) L3 generation must fall
        # back through *older* ring generations, not jump to scratch
        fs, comm, posix, _ = crash_stack()
        cfg = crash_config(dmpstep=10)  # generations at steps 10, 20, 30
        plan = FaultPlan((
            SilentCorruption("/out/.ring/gen000002.l3", step=33,
                             offset=2048, nbytes=16),
            NodeCrash(0, 35)))
        policy = CheckpointPolicy.pfs_only(ring_depth=3, async_flush=False)
        rep = run_crash_restart(cfg, comm, posix, "/out",
                                writer="original", plan=plan,
                                checkpoint_policy=policy)
        assert rep.crashes == 1
        # the newest generation (step 30) was refused with context...
        assert len(rep.failures) == 1
        assert rep.failures[0].context["generation"] == 2
        # ...and the walk-back restored the previous one (step 20)
        rec = rep.crash_records[0]
        assert rec.source == "l3"
        assert rec.restored_step == 20 and rec.generation == 1
        assert_identical(final_state(rep.sim),
                             fault_free_state("original", cfg))

    def test_ring_trimmed_to_depth(self):
        fs, comm, posix, _ = crash_stack()
        cfg = crash_config(dmpstep=10)
        policy = CheckpointPolicy.pfs_only(ring_depth=2, async_flush=False)
        rep = run_crash_restart(cfg, comm, posix, "/out",
                                writer="original", plan=None,
                                checkpoint_policy=policy)
        assert rep.crashes == 0
        ring = sorted(p for p in fs.vfs.listdir("/out/.ring"))
        assert len(ring) == 2  # oldest generations unlinked


class TestStoreLedger:
    def _sim(self, comm, steps=20):
        sim = Bit1Simulation(crash_config(), comm)
        for _ in range(steps):
            sim.step()
        return sim

    def test_memory_account_charged_and_released(self):
        fs, comm, posix, _ = crash_stack()
        acct = current_budget().account("resilience")
        base = acct.used
        store = MultiLevelStore(posix, comm, "/out",
                                CheckpointPolicy.partner(l3_interval=0))
        sim = self._sim(comm)
        gen0 = store.store(sim, 20)
        assert gen0.resident_bytes > 0
        assert acct.used == base + gen0.resident_bytes
        # only the latest generation keeps memory tiers (SCR cache)
        sim.step()
        gen1 = store.store(sim, 21)
        assert acct.used == base + gen1.resident_bytes
        store.fail_nodes(range(comm.nnodes))
        assert acct.used == base

    def test_inflight_flush_dies_with_the_job(self):
        # an async L3 flush still draining when the node dies leaves a
        # torn file: fail_nodes must abandon it so a later recovery can
        # never read the partial generation
        fs, comm, posix, _ = crash_stack()
        store = MultiLevelStore(posix, comm, "/out",
                                CheckpointPolicy.partner(l3_interval=1))
        sim = self._sim(comm)
        gen = store.store(sim, 20)
        assert gen.l3_path is not None
        assert gen.l3_ready_at > comm.max_time()  # still in flight
        store.fail_nodes((0,))
        assert gen.l3_path is None  # torn file abandoned

    def test_partner_skips_copy_hosted_on_owner(self):
        # with one node there is no distinct partner: the L1 tier must
        # not silently "replicate" a shard onto its own node
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(2, 2)  # 2 ranks on ONE node
        posix = PosixIO(fs, comm)
        store = MultiLevelStore(posix, comm, "/out",
                                CheckpointPolicy.partner(l3_interval=0))
        sim = Bit1Simulation(crash_config(), comm)
        for _ in range(20):
            sim.step()
        gen = store.store(sim, 20)
        assert gen.partner_copies == {}


_HYPO_CFG_KW = dict(ncells=16, particles_per_cell=4, last_step=12,
                    datfile=6, dmpstep=6)

_POLICIES = (
    None,  # legacy single-level writer path
    CheckpointPolicy.partner(l3_interval=0),
    CheckpointPolicy.partner(l3_interval=1),  # async L3 backstop
    CheckpointPolicy.xor_group(group_size=2, l3_interval=0),
    CheckpointPolicy.pfs_only(async_flush=False),
)


class TestTierPolicyRoundTrip:
    @settings(max_examples=6, deadline=None)
    @given(policy=st.sampled_from(_POLICIES),
           writer=st.sampled_from(("original", "openpmd")),
           node=st.integers(0, 1),
           crash_step=st.integers(2, 11))
    def test_any_tier_policy_bit_identical(self, policy, writer, node,
                                           crash_step):
        """Whatever tier combination serves the restart — partner, XOR,
        L3 ring, legacy writer or scratch — the recovered run's final
        particle state matches the fault-free run bit for bit.
        """
        cfg = crash_config(**_HYPO_CFG_KW)
        fs, comm, posix, _ = crash_stack()
        plan = FaultPlan((NodeCrash(node, crash_step),))
        rep = run_crash_restart(cfg, comm, posix, "/out", writer=writer,
                                plan=plan, checkpoint_policy=policy)
        assert rep.crashes == 1 and len(rep.crash_records) == 1
        assert_identical(final_state(rep.sim),
                             fault_free_state(writer, cfg))

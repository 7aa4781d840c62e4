"""Tests for the ADIOS2 layer: variables, aggregation, engines, profiling."""

from functools import partial

import numpy as np
import pytest

from repro.adios2 import (
    AggregationPlan,
    BP4Engine,
    BP5Engine,
    EngineConfig,
    EngineProfile,
    Variable,
    dtype_name,
    element_size,
    engine_for_path,
    gather_cost_seconds,
    plan_aggregation,
    two_level_gather_cost,
)
from repro.cluster.presets import dardel
from repro.faults import AggregatorFailure, FaultPlan, NICFlap
from repro.fs import PosixIO, SyntheticPayload, mount
from repro.mpi import VirtualComm
from repro.workloads import paper_use_case, run_openpmd_scaled
from tests.oracle import assert_same, observed


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(8, 4)
    posix = PosixIO(fs, comm)
    posix.mkdir(0, "/out")
    return fs, comm, posix


class TestVariables:
    def test_dtype_names(self):
        assert dtype_name(np.float32) == "float"
        assert dtype_name("float64") == "double"
        assert element_size("double") == 8

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            dtype_name(np.complex128)
        with pytest.raises(TypeError):
            element_size("quaternion")

    def test_put_chunk_validation(self):
        var = Variable("v", "double", (100,))
        var.put_chunk(0, (0,), (50,), SyntheticPayload(400))
        with pytest.raises(ValueError):
            var.put_chunk(1, (60,), (50,), SyntheticPayload(400))  # overflow
        with pytest.raises(ValueError):
            var.put_chunk(1, (0, 0), (10, 10), SyntheticPayload(1))  # rank

    def test_per_rank_bytes(self):
        var = Variable("v", "double", (100,))
        var.put_chunk(0, (0,), (10,), SyntheticPayload(80))
        var.put_chunk(2, (10,), (20,), SyntheticPayload(160))
        per = var.per_rank_bytes(4)
        assert list(per) == [80, 0, 160, 0]
        assert var.total_bytes == 240


class TestAggregation:
    def test_default_one_per_node(self):
        comm = VirtualComm(256, 128)
        plan = plan_aggregation(comm)
        assert plan.num_aggregators == 2
        assert list(plan.aggregator_ranks) == [0, 128]

    def test_explicit_count(self):
        comm = VirtualComm(16, 4)
        plan = plan_aggregation(comm, 4)
        assert plan.num_aggregators == 4
        # ranks map to the aggregator at or below them
        assert plan.agg_index_of_rank[0] == 0
        assert plan.agg_index_of_rank[15] == 3

    def test_all_ranks_aggregators(self):
        comm = VirtualComm(8, 4)
        plan = plan_aggregation(comm, 8)
        assert plan.num_aggregators == 8
        assert np.array_equal(plan.agg_index_of_rank, np.arange(8))

    def test_single_aggregator(self):
        # the paper's "exactly one file written on the disk for all ranks"
        comm = VirtualComm(16, 4)
        plan = plan_aggregation(comm, 1)
        assert plan.num_aggregators == 1
        assert np.all(plan.agg_index_of_rank == 0)

    def test_invalid_count(self):
        comm = VirtualComm(4, 2)
        with pytest.raises(ValueError):
            plan_aggregation(comm, 0)
        with pytest.raises(ValueError):
            plan_aggregation(comm, 5)

    def test_per_aggregator_bytes_conserved(self):
        comm = VirtualComm(16, 4)
        plan = plan_aggregation(comm, 3)
        rng = np.random.default_rng(0)
        per_rank = rng.integers(0, 1000, 16)
        per_agg = plan.per_aggregator_bytes(per_rank)
        assert per_agg.sum() == per_rank.sum()

    def test_per_aggregator_shape_check(self):
        comm = VirtualComm(4, 2)
        plan = plan_aggregation(comm, 2)
        with pytest.raises(ValueError):
            plan.per_aggregator_bytes(np.zeros(3))

    def test_remote_bytes_zero_for_self(self):
        comm = VirtualComm(4, 2)
        plan = plan_aggregation(comm, 4)
        remote = plan.remote_bytes(np.full(4, 100))
        assert np.all(remote == 0)  # everyone is their own aggregator

    def test_gather_cost_charges_senders_and_receivers(self):
        comm = VirtualComm(8, 4)
        plan = plan_aggregation(comm, 2)
        costs = gather_cost_seconds(plan, np.full(8, 10 * 2**20), comm)
        # aggregators receive more than they send
        assert costs[plan.aggregator_ranks].max() >= costs.max() * 0.99
        assert np.all(costs >= 0)

    def test_remote_bytes_same_node_is_local(self):
        # regression: the old model compared *ranks*, so shipping to a
        # different rank on the same node was billed as network traffic
        comm = VirtualComm(8, 8)  # one node
        plan = plan_aggregation(comm, 2)
        remote = plan.remote_bytes(np.full(8, 100))
        assert np.all(remote == 0)

    def test_single_node_shuffle_at_memory_speed(self):
        # acceptance: a single-node run's shuffle carries no NIC term —
        # the cost is invariant under NIC bandwidth and matches the pure
        # shared-memory formula
        b = np.full(8, 32 * 2**20)
        shm = 200 * 2**30
        costs = {}
        for nic in (1e9, 25e9):
            comm = VirtualComm(8, 8, bandwidth=nic, shm_bandwidth=shm)
            plan = plan_aggregation(comm, 2)
            costs[nic] = gather_cost_seconds(plan, b, comm)
        assert np.array_equal(costs[1e9], costs[25e9])
        # owners are ranks 0 and 4; the other six ranks pay one shm leg
        senders = np.setdiff1d(np.arange(8), plan.aggregator_ranks)
        assert np.allclose(costs[25e9][senders], 32 * 2**20 / shm)
        # each owner pays ingress from its three same-node senders
        assert np.allclose(costs[25e9][plan.aggregator_ranks],
                           3 * 32 * 2**20 / shm)

    def test_cross_node_shuffle_serialises_node_egress(self):
        comm = VirtualComm(8, 4)  # 2 nodes
        plan = plan_aggregation(comm, 1)  # lone aggregator on rank 0
        b = np.full(8, 10 * 2**20)
        costs = gather_cost_seconds(plan, b, comm)
        nic = comm.effective_bandwidth()
        shm = comm.shm_bandwidth()
        lat = comm.config.latency
        egress = 4 * 10 * 2**20  # node 1's total cross-node bytes
        assert np.allclose(costs[4:], lat + egress / nic)
        # the aggregator pays shm ingress from its node and NIC ingress
        # from the remote node
        assert costs[0] == pytest.approx(3 * 10 * 2**20 / shm + egress / nic)

    def test_two_level_degenerate_equals_one_level(self):
        # property: with one rank per node the BP5 funnel is empty and
        # the two-level cost is BIT-identical to the one-level cost
        rng = np.random.default_rng(7)
        for n, m in [(1, 1), (5, 2), (12, 5), (16, 16)]:
            comm = VirtualComm(n, 1)
            plan = plan_aggregation(comm, m)
            b = rng.integers(0, 1 << 20, n).astype(np.float64)
            b[::3] = 0.0  # zero-byte senders must cost nothing in both
            one = gather_cost_seconds(plan, b, comm)
            two = two_level_gather_cost(plan, b, comm)
            assert np.array_equal(one, two), (n, m)

    def test_two_level_single_node_no_nic_term(self):
        b = np.full(8, 2**20)
        costs = {}
        for nic in (1e9, 25e9):
            comm = VirtualComm(8, 8, bandwidth=nic)
            plan = plan_aggregation(comm, 1)
            costs[nic] = two_level_gather_cost(plan, b, comm)
        assert np.array_equal(costs[1e9], costs[25e9])

    def test_two_level_consolidates_cross_node_messages(self):
        # two nodes, one subfile owned by rank 0: node 1's non-leader
        # ranks only touch shm; its leader ships ONE consolidated
        # message over the NIC
        comm = VirtualComm(8, 4)
        plan = plan_aggregation(comm, 1)
        b = np.full(8, 2**20)
        costs = two_level_gather_cost(plan, b, comm)
        shm = comm.shm_bandwidth()
        nic = comm.effective_bandwidth()
        lat = comm.config.latency
        assert np.allclose(costs[5:], 2**20 / shm)
        assert costs[4] == pytest.approx(
            3 * 2**20 / shm + lat + 4 * 2**20 / nic)
        # the owner pays its node's shm funnel plus remote NIC ingress
        assert costs[0] == pytest.approx(3 * 2**20 / shm + 4 * 2**20 / nic)

    def test_failover_survivor_pays_skew_two_level(self):
        comm = VirtualComm(16, 4)  # 4 nodes, owners 0/4/8/12
        plan = plan_aggregation(comm, 4)
        b = np.full(16, 2**20).astype(np.float64)
        base = two_level_gather_cost(plan, b, comm)
        failed = plan.failover([4])
        assert list(failed.aggregator_ranks) == [0, 0, 8, 12]
        skew = two_level_gather_cost(failed, b, comm)
        # rank 0 now drives two subfiles: it pays strictly more than
        # before, and strictly more than a single-subfile survivor
        assert skew[0] > base[0]
        assert skew[0] > skew[8]
        # the subfile byte loads themselves are unchanged, bit for bit
        assert np.array_equal(failed.per_aggregator_bytes(b),
                              plan.per_aggregator_bytes(b))
        assert failed.node_of_rank is plan.node_of_rank


class TestEngineConfig:
    def test_invalid_values_raise_at_construction(self):
        # rank_block_size=0 used to reach the first span-staged end_step
        # and fail there on range(0, n, 0)
        for bad in (dict(rank_block_size=0), dict(num_aggregators=0),
                    dict(profile_granularity="rack")):
            with pytest.raises(ValueError):
                EngineConfig(**bad)

    def test_normalised_like_the_toml_parameters(self):
        cfg = EngineConfig(compressor="Blosc", profile_granularity="NODE",
                           num_aggregators=np.int64(4),
                           host_memory_bound=1.5e6, rank_block_size="64",
                           buffer_chunk_size=np.float64(2 ** 20))
        assert cfg.compressor == "blosc"
        assert cfg.profile_granularity == "node"
        assert (cfg.num_aggregators, cfg.host_memory_bound,
                cfg.rank_block_size, cfg.buffer_chunk_size) == (
            4, 1_500_000, 64, 2 ** 20)
        assert all(type(v) is int for v in (
            cfg.num_aggregators, cfg.host_memory_bound,
            cfg.rank_block_size, cfg.buffer_chunk_size))
        assert EngineConfig(compressor="").compressor is None


class TestEngineLayout:
    def test_bp4_directory_contents(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/run", "w")
        eng.begin_step()
        eng.end_step()
        eng.close()
        files = _fs.vfs.files_under("/out/run.bp4")
        names = {f.rsplit("/", 1)[1] for f in files}
        # default aggregation: 2 nodes -> data.0, data.1
        assert names == {"data.0", "data.1", "md.0", "md.idx"}

    def test_bp5_has_mmd(self, env):
        _fs, comm, posix = env
        eng = BP5Engine(posix, comm, "/out/run5", "w")
        eng.begin_step()
        eng.end_step()
        eng.close()
        names = {f.rsplit("/", 1)[1]
                 for f in _fs.vfs.files_under("/out/run5.bp5")}
        assert "mmd.0" in names

    def test_profiling_json_written_when_enabled(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/prof", "w",
                        EngineConfig(profiling=True))
        eng.begin_step()
        eng.end_step()
        eng.close()
        assert _fs.vfs.exists("/out/prof.bp4/profiling.json")
        blob = _fs.vfs.read(_fs.vfs.lookup("/out/prof.bp4/profiling.json"),
                            0, 10_000)
        assert b"memcpy" in blob

    def test_num_aggregators_controls_subfiles(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/agg", "w",
                        EngineConfig(num_aggregators=4))
        eng.begin_step()
        eng.end_step()
        eng.close()
        names = [f for f in _fs.vfs.files_under("/out/agg.bp4")
                 if "/data." in f]
        assert len(names) == 4

    def test_engine_for_path(self):
        assert engine_for_path("x.bp4") is BP4Engine
        assert engine_for_path("x.bp5") is BP5Engine
        assert engine_for_path("x.bp") is BP4Engine
        with pytest.raises(ValueError):
            engine_for_path("x.h5")


class TestEngineSemantics:
    def test_step_protocol_enforced(self, env):
        from repro.openpmd import HDF5Engine, JSONEngine

        _fs, comm, posix = env
        for cls in (BP4Engine, HDF5Engine, JSONEngine):
            eng = cls(posix, comm, "/out/p", "w")
            with pytest.raises(RuntimeError):
                eng.end_step()  # no begin
            eng.begin_step()
            with pytest.raises(RuntimeError):
                eng.begin_step()  # nested
            eng.end_step()
            eng.close()
            with pytest.raises(RuntimeError):
                eng.begin_step()  # closed

    def test_read_mode_rejects_writes(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/w", "w")
        eng.begin_step()
        eng.end_step()
        eng.close()
        rd = BP4Engine(posix, comm, "/out/w", "r")
        with pytest.raises(RuntimeError):
            rd.begin_step()

    def test_real_roundtrip_multi_rank(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/rt", "w")
        eng.begin_step()
        for r in range(8):
            eng.put("/v", "double", (80,), r, (r * 10,), (10,),
                    np.arange(r * 10, r * 10 + 10, dtype=np.float64))
        eng.end_step()
        eng.close()
        rd = BP4Engine(posix, comm, "/out/rt", "r")
        assert np.array_equal(rd.get("/v"), np.arange(80, dtype=np.float64))

    def test_compressed_roundtrip(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/z", "w",
                        EngineConfig(compressor="blosc"))
        eng.begin_step()
        data = np.linspace(0, 1, 64, dtype=np.float32)
        eng.put("/v", "float", (64,), 0, (0,), (64,), data)
        eng.end_step()
        eng.close()
        rd = BP4Engine(posix, comm, "/out/z", "r",
                       EngineConfig(compressor="blosc"))
        assert np.allclose(rd.get("/v"), data)

    def test_overwrite_key_keeps_disk_size(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/ow", "w",
                        EngineConfig(num_aggregators=1))
        for round_ in range(3):
            eng.begin_step()
            eng.put_group("/state", np.arange(8), 1000)
            eng.end_step(overwrite_key="iteration0")
        eng.close()
        ino = _fs.vfs.lookup("/out/ow.bp4/data.0")
        assert _fs.vfs.size_of(ino) == 8000          # one copy on disk
        assert _fs.vfs.cols.bytes_written[ino] == 24000  # 3 copies moved

    def test_append_steps_grow_file(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/gr", "w",
                        EngineConfig(num_aggregators=1))
        for _ in range(3):
            eng.begin_step()
            eng.put_group("/diag", np.arange(8), 100)
            eng.end_step()  # no overwrite key: appends
        eng.close()
        ino = _fs.vfs.lookup("/out/gr.bp4/data.0")
        assert _fs.vfs.size_of(ino) == 2400

    def test_grown_rewrite_reallocates(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/g2", "w",
                        EngineConfig(num_aggregators=1))
        eng.begin_step()
        eng.put_group("/s", np.arange(8), 100)
        eng.end_step(overwrite_key="it0")
        eng.begin_step()
        eng.put_group("/s", np.arange(8), 500)  # bigger than the slot
        eng.end_step(overwrite_key="it0")
        eng.close()
        ino = _fs.vfs.lookup("/out/g2.bp4/data.0")
        assert _fs.vfs.size_of(ino) == 800 + 4000

    def test_memcpy_profiled_without_compression(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/m1", "w")
        eng.begin_step()
        eng.put_group("/v", np.arange(8), 10000)
        eng.end_step()
        assert eng.profile.total_us("memcpy") > 0
        assert eng.profile.total_us("compress") == 0
        eng.close()

    def test_compression_eliminates_memcpy(self, env):
        # the Fig. 8 mechanism
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/m2", "w",
                        EngineConfig(compressor="blosc"))
        eng.begin_step()
        eng.put_group("/v", np.arange(8), 10000)
        eng.end_step()
        assert eng.profile.total_us("memcpy") == 0
        assert eng.profile.total_us("compress") > 0
        eng.close()

    def test_attributes(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/at", "w")
        eng.define_attribute("openPMD", "1.1.0")
        assert eng._attributes["openPMD"].value == "1.1.0"
        eng.close()


class TestProfile:
    def test_accumulate_and_summarize(self):
        prof = EngineProfile(4)
        prof.add("write", np.array([0, 1]), np.array([1e-3, 2e-3]))
        assert prof.total_us("write") == pytest.approx(3000.0)
        assert prof.mean_us("write") == pytest.approx(750.0)

    def test_unknown_category(self):
        with pytest.raises(KeyError):
            EngineProfile(2).add("teleport", 0, 1.0)

    def test_json_structure(self):
        import json

        prof = EngineProfile(2, "BP4")
        prof.add("memcpy", 0, 5e-6)
        doc = json.loads(prof.to_json())
        assert doc["engine"] == "BP4"
        cats = {t["category"] for t in doc["transports"]}
        assert "memcpy" in cats and "write" in cats


def _list_ledger_drain_async(self, per_agg, offsets, active):
    """Reference: ``_drain_async`` with the per-aggregator list ledger.

    The engine's schedule before the aggregator × batch ledger: one
    Python array of drain ends and of batch bytes per aggregator, filled
    and summed in loops.  The ledger lives under names of its own.
    """
    from repro.util.scatter import scatter_add

    m = self.plan.num_aggregators
    drain_ends = self.__dict__.setdefault("_ref_ends", [np.zeros(0)] * m)
    drain_bytes = self.__dict__.setdefault("_ref_bytes", [np.zeros(0)] * m)
    act = np.nonzero(active)[0]
    own = self.plan.aggregator_ranks[act]
    clocks = self.comm.clocks
    entry = clocks[own].copy()

    residual = np.zeros(len(act), dtype=np.float64)
    for j, i in enumerate(act):
        ends = drain_ends[i]
        if len(ends):
            residual[j] = drain_bytes[i][ends > entry[j]].sum()
    peak = per_agg[act] + residual
    bound_bytes = self.config.host_memory_bound
    if bound_bytes is not None:
        peak = np.minimum(peak, np.maximum(bound_bytes, per_agg[act]))
    self.peak_host_bytes[act] = np.maximum(self.peak_host_bytes[act], peak)

    wait = np.maximum(self._drain_until[act] - entry, 0.0)
    stalled = wait > 0
    if stalled.any():
        scatter_add(self.drain_wait_seconds, own[stalled], wait[stalled])
        self.posix.charge(own[stalled], wait[stalled], "drain_wait",
                          api="ENGINE", layer="engine")

    begin = clocks[own].copy()
    starts = begin.copy()
    bound = self.config.buffer_chunk_size or self.default_buffer_chunk
    sched_ends = [[] for _ in act]
    sched_bytes = [[] for _ in act]
    fds = self._data_fds[act]
    if bound is not None and int(per_agg[act].max()) > bound:
        remaining = per_agg[act].astype(np.int64).copy()
        offs = offsets[act].astype(np.int64).copy()
        while (remaining > 0).any():
            batch = np.minimum(remaining, bound)
            live = batch > 0
            costs = self.posix.write_aggregate(
                own[live], fds[live], batch[live],
                overwrite_offset=offs[live], start_at=starts[live])
            starts[live] += costs
            for j in np.nonzero(live)[0]:
                sched_ends[j].append(float(starts[j]))
                sched_bytes[j].append(float(batch[j]))
            offs += batch
            remaining -= batch
    else:
        costs = self.posix.write_aggregate(
            own, fds, per_agg[act], overwrite_offset=offsets[act],
            start_at=starts)
        starts = starts + costs
        for j in range(len(act)):
            sched_ends[j].append(float(starts[j]))
            sched_bytes[j].append(float(per_agg[act][j]))

    self._drain_until[act] = starts
    self.drain_seconds[act] += starts - begin
    for j, i in enumerate(act):
        drain_ends[i] = np.asarray(sched_ends[j])
        drain_bytes[i] = np.asarray(sched_bytes[j])
    bus = self.posix.trace
    if bus.wants("drain"):
        bus.emit("drain", own, nbytes=per_agg[act].astype(np.float64),
                 duration=starts - begin, start=begin,
                 api="ENGINE", layer="engine")


class _Recorder:
    """Trace subscriber that keeps every event."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestDrainLedger:
    """The aggregator × batch drain ledger is the list ledger, bit for bit."""

    BATCH = 6 * 2**20
    #: compute between steps: drains of consecutive steps overlap, and
    #: each flush arrives partway through the previous drain's batches
    GAPS = (0.0, 0.05, 0.0, 0.12, 0.3, 0.02, 0.2)

    def _run(self, bound):
        from repro.trace.events import IOEvent

        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(30, 8)
        posix = PosixIO(fs, comm)
        events = posix.trace.subscribe(_Recorder()).events
        # 4 subfiles over 30 ranks: uneven shares of uneven rank bytes
        eng = BP5Engine(posix, comm, "/out/ledger.bp5", "w", EngineConfig(
            num_aggregators=4, async_drain=True, buffer_chunk_size=self.BATCH,
            host_memory_bound=bound))
        ranks = np.arange(30)
        nbytes = 12 * 2**20 + ranks * 65_537
        per_agg = eng.plan.per_aggregator_bytes(nbytes)
        assert np.all((9 * self.BATCH < per_agg)
                      & (per_agg <= 20 * self.BATCH))
        for gap in self.GAPS:
            comm.clocks += gap
            eng.begin_step()
            eng.put_group("/data/x", ranks, nbytes)
            eng.end_step()
        eng.close()
        assert all(isinstance(e, IOEvent) for e in events)
        stream = [(e.kind, e.layer, e.api, e.scope, e.step, e.seq,
                   *(np.asarray(a).tobytes() for a in (
                       e.ranks, e.nbytes, e.duration, e.start, e.n_ops,
                       e.inos if e.inos is not None else ())))
                  for e in events]
        return eng, per_agg, comm.clocks.copy(), stream

    @pytest.mark.parametrize("bound", [None, 168 * 2**20],
                             ids=["unbounded", "host_memory_bound"])
    def test_array_ledger_matches_list_ledger(self, monkeypatch, bound):
        from repro.adios2.engine import BPEngineBase

        eng, per_agg, clocks, stream = self._run(bound)
        with monkeypatch.context() as m:
            m.setattr(BPEngineBase, "_drain_async", _list_ledger_drain_async)
            ref, _, ref_clocks, ref_stream = self._run(bound)
        # the schedule is not trivial: flushes stall on the previous
        # drain and find part of its buffer still resident
        assert eng.drain_wait_seconds.sum() > 0
        assert np.any(eng.peak_host_bytes > per_agg)
        if bound is not None:  # the bound caps some subfiles, not all
            assert 0 < np.sum(eng.peak_host_bytes == bound) < len(per_agg)
        for name in ("peak_host_bytes", "drain_wait_seconds",
                     "drain_seconds"):
            assert getattr(eng, name).tobytes() == getattr(ref, name).tobytes()
        assert clocks.tobytes() == ref_clocks.tobytes()
        assert stream == ref_stream


class TestFlushMemo:
    """A memoised flush is the flush that derives every step afresh, bit
    for bit, compared with every lane's reference at once."""

    #: the dat engine flushes at steps 10..60, twice at the checkpoint
    #: steps 20, 40 and 60; the flap replaces its entry at 20 and again
    #: at 40, each then hit, and the failover at 50 drops the memo
    PLAN = (NICFlap(node=0, start_step=20, end_step=30, factor=0.25),
            AggregatorFailure(rank=5, step=50))

    def _against_references(self, engine_ext, compressor, async_drain,
                            rank_block_size=None):
        """The faulted run against its references; returns its census."""
        run = partial(
            run_openpmd_scaled, dardel(), 2, config=paper_use_case().with_(
                ncells=2048, last_step=60, datfile=10, dmpstep=20),
            ranks_per_node=8, num_aggregators=3, compressor=compressor,
            engine_ext=engine_ext, async_drain=async_drain,
            compute_seconds_per_step=1e-4 if async_drain else 0.0,
            profiling=True, trace_mode="full",
            rank_block_size=rank_block_size, fault_plan=FaultPlan(self.PLAN))
        (lane, census), (ref, ref_census) = observed(run), observed(run, True)
        assert_same(lane, ref)
        # 12 flushes: the dat engine derives at 10, 20 (flap), 40 (flap
        # over) and 50 (failover), the checkpoint engine at 20, 40 and 60
        dat = sum(n for path, n in census.derived.items()
                  if "dat_file" in path)
        assert (dat, census["fresh_derivations"] - dat,
                census["memo_hits"]) == (4, 3, 5)
        # the reference derives afresh once more at each of the 12 flushes
        assert ref_census["fresh_derivations"] == 7 + 12
        # with rank blocks every derivation takes the blocked path
        for c in (census, ref_census):
            assert c["blocked_derivations"] == (
                c["fresh_derivations"] if rank_block_size else 0)
        return census

    @pytest.mark.parametrize("async_drain", [False, True],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("compressor", [None, "blosc"])
    @pytest.mark.parametrize("engine_ext", [".bp4", ".bp5"])
    def test_memoised_run_matches_fresh_derivations(self, engine_ext,
                                                    compressor, async_drain):
        self._against_references(engine_ext, compressor, async_drain)

    @pytest.mark.parametrize("async_drain", [False, True],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("compressor", [None, "blosc"])
    @pytest.mark.parametrize("engine_ext", [".bp4", ".bp5"])
    def test_blocked_run_matches_fresh_derivations(self, engine_ext,
                                                   compressor, async_drain):
        """The rank-blocked flush (windows of 5 of the 16 ranks)."""
        self._against_references(engine_ext, compressor, async_drain,
                                 rank_block_size=5)

    @pytest.mark.parametrize("block", [None, 5], ids=["whole", "blocked"])
    @pytest.mark.parametrize("async_drain", [False, True],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("compressor", [None, "blosc"])
    @pytest.mark.parametrize("engine_ext", [".bp4", ".bp5"])
    def test_range_lane_run_matches_array_producers(
            self, engine_ext, compressor, async_drain, block):
        """The producers' rank ranges (whole-job and window emits, the
        aggregator progression, barriers) reach the folds."""
        census = self._against_references(
            engine_ext, compressor, async_drain, rank_block_size=block)
        assert census["range_events"] > 0

    def _engine(self, env):
        from repro.mem import SplitValues

        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/memo", "w",
                        EngineConfig(num_aggregators=2))
        for _ in range(3):
            eng.begin_step()
            eng.put_group("/data/x", None, SplitValues.spread(10_000, 8))
            eng.end_step()
        return eng

    def test_memo_arrays_are_read_only(self, env):
        eng = self._engine(env)
        (d,) = eng._memo.values()
        for name in ("staged", "op_s", "stored", "gather", "per_agg"):
            arr = getattr(d, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    @pytest.mark.parametrize("end", ["close", "abandon"])
    def test_memo_charged_to_engine_account_until_end(self, env, end):
        from repro.mem import MemoryBudget, use_budget

        with use_budget(MemoryBudget()) as budget:
            eng = self._engine(env)
            (d,) = eng._memo.values()
            assert budget.account("engine").used == d.nbytes > 0
            getattr(eng, end)()
            assert budget.account("engine").used == 0
            assert eng._memo == {}

    def test_real_chunk_steps_are_not_memoised(self, env):
        _fs, comm, posix = env
        eng = BP4Engine(posix, comm, "/out/real", "w", EngineConfig())
        eng.begin_step()
        eng.put("/x", "float64", (8,), 0, (0,), (8,), np.arange(8.0))
        eng.end_step()
        assert eng._memo == {}
        eng.close()

    @staticmethod
    def _blocked_engine(engine_cls, ranks_per_node):
        """Two nodes, three subfiles, windows of 5 ranks, three steps."""
        from repro.mem import SplitValues

        comm = VirtualComm(2 * ranks_per_node, ranks_per_node)
        posix = PosixIO(mount(dardel().storage_named("lfs")), comm)
        posix.mkdir(0, "/out")
        eng = engine_cls(posix, comm, "/out/blocked", "w", EngineConfig(
            num_aggregators=3, rank_block_size=5))
        for _ in range(3):
            eng.begin_step()
            eng.put_group("/data/x", None,
                          SplitValues.spread(100_003, comm.size))
            eng.end_step()
        return eng

    @pytest.mark.parametrize("engine_cls", [BP4Engine, BP5Engine],
                             ids=["bp4", "bp5"])
    def test_blocked_entry_arrays_are_read_only(self, engine_cls):
        from repro.adios2.aggregation import ShuffleDerivation

        eng = self._blocked_engine(engine_cls, 8)
        (d,) = eng._memo.values()
        assert isinstance(d, ShuffleDerivation)
        names = ("per_agg", "uranks", "recv") + (
            ("leader", "sorted_leaders") if engine_cls is BP5Engine
            else ("egress",))
        for name in names:
            arr = getattr(d, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    @pytest.mark.parametrize("engine_cls", [BP4Engine, BP5Engine],
                             ids=["bp4", "bp5"])
    def test_blocked_entry_holds_no_per_rank_array(self, engine_cls):
        # 16 and 128 ranks on the same 2 nodes and 3 subfiles
        (small,) = self._blocked_engine(engine_cls, 8)._memo.values()
        (large,) = self._blocked_engine(engine_cls, 64)._memo.values()
        assert small.nbytes == large.nbytes > 0
        assert max(len(a) for a in large._arrays()) <= 3

    @pytest.mark.parametrize("end", ["close", "abandon"])
    @pytest.mark.parametrize("engine_cls", [BP4Engine, BP5Engine],
                             ids=["bp4", "bp5"])
    def test_blocked_entry_charged_to_engine_account_until_end(
            self, engine_cls, end):
        from repro.mem import MemoryBudget, use_budget

        with use_budget(MemoryBudget()) as budget:
            eng = self._blocked_engine(engine_cls, 8)
            (d,) = eng._memo.values()
            assert budget.account("engine").used == d.nbytes > 0
            getattr(eng, end)()
            assert budget.account("engine").used == 0
            assert eng._memo == {}


class TestSlotTables:
    """An overwrite key's slot table stays charged to the ``engine``
    account while the engine can still flush, and no longer."""

    @pytest.mark.parametrize("end", ["close", "abandon"])
    def test_slot_table_released_at_end(self, env, end):
        from repro.mem import MemoryBudget, use_budget

        _fs, comm, posix = env
        with use_budget(MemoryBudget()) as budget:
            eng = BP4Engine(posix, comm, "/out/slots", "w",
                            EngineConfig(num_aggregators=2))
            for _ in range(3):  # per-rank puts: no memo entry
                eng.begin_step()
                eng.put_group("/data/x", np.arange(8), 1000)
                eng.end_step(overwrite_key="iteration0")
            assert budget.account("engine").used \
                == eng._slots["iteration0"].nbytes > 0
            getattr(eng, end)()
            assert budget.account("engine").used == 0

    @pytest.mark.parametrize("block", [None, 5],
                             ids=["unblocked", "blocked"])
    def test_scaled_run_ends_with_engine_account_empty(self, block):
        # the dat series flushes under a new key per iteration
        res = run_openpmd_scaled(
            dardel(), 2, config=paper_use_case().with_(
                ncells=2048, last_step=60, datfile=10, dmpstep=20),
            ranks_per_node=8, mem_budget=64 << 20, rank_block_size=block)
        assert res.mem_report["engine"]["high_water"] > 0
        assert res.mem_report["engine"]["used"] == 0

    @pytest.mark.parametrize("block", [None, 5],
                             ids=["unblocked", "blocked"])
    def test_engine_account_holds_no_modeled_staging(self, block):
        """The ``engine`` high water is at most the memo entries and slot
        tables the run held: a flush's modeled staging (its subfile
        bytes) is not host memory of the simulator."""
        from repro.adios2.engine import BPEngineBase

        held, flushed = [], []
        derive, store_slots = BPEngineBase._derive, BPEngineBase._store_slots
        allocate = BPEngineBase._allocate

        def counted_derive(engine, memoise, derivation=None):
            d = derive(engine, memoise, derivation)
            if memoise and all(d is not h for h in held):
                held.append(d)
            return d

        def counted_slots(engine, key, offsets, reserved):
            store_slots(engine, key, offsets, reserved)
            held.append(engine._slots[key])

        def counted_allocate(engine, key, per_agg):
            flushed.append(int(per_agg.sum()))
            return allocate(engine, key, per_agg)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(BPEngineBase, "_derive", counted_derive)
            m.setattr(BPEngineBase, "_store_slots", counted_slots)
            m.setattr(BPEngineBase, "_allocate", counted_allocate)
            res = run_openpmd_scaled(
                dardel(), 2, config=paper_use_case().with_(
                    ncells=2048, last_step=60, datfile=10, dmpstep=20),
                ranks_per_node=8, mem_budget=64 << 20, rank_block_size=block)
        high = res.mem_report["engine"]["high_water"]
        assert 0 < high <= sum(h.nbytes for h in held)
        assert high * 100 < max(flushed)

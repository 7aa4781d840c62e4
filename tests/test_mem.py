"""Memory-plane tests: budgets, spans, sparse extents, bit-identity.

The plane's contract has two halves, and both are pinned here:

* residency is bounded — per-rank retention hot spots (extent stores,
  slot tables, node maps, path registries) hold O(nodes) or O(block)
  state at million-rank scale;
* accounting and chunking are behaviour-neutral — a run evaluated in
  rank blocks produces *bit-identical* Darshan counters, DXT folds,
  clocks and host-memory peaks versus the unchunked path, under every
  engine/compressor/fault configuration.
"""

import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.faults import AggregatorFailure, FaultPlan, NICFlap
from repro.fs.vfs import ExtentStore, VirtualFS
from repro.mem import (
    MemoryBudget,
    MemoryQuotaExceeded,
    SplitValues,
    blocks,
    current_budget,
    derive_block_size,
    fingerprint,
    use_budget,
)
from repro.mpi.comm import BlockNodeMap, VirtualComm
from repro.trace.bus import TraceBus
from repro.workloads import (
    paper_use_case,
    run_openpmd_scaled,
    run_original_scaled,
)
from tests.oracle import assert_same, observe

GiB = 2**30


# ---------------------------------------------------------------------------
# spans


class TestSplitValues:
    def test_spread_matches_divmod_layout(self):
        sv = SplitValues.spread(1003, 10)
        base, rem = divmod(1003, 10)
        expect = np.full(10, base, dtype=np.int64)
        expect[:rem] += 1
        assert np.array_equal(sv.materialize(), expect)
        assert sv.sum() == 1003

    def test_sum_is_exact_python_int_at_scale(self):
        sv = SplitValues.spread(30_000_000 * 16, 1_000_000)
        assert sv.sum() == 30_000_000 * 16
        assert isinstance(sv.sum(), int)

    def test_slice_windows_tile_the_whole(self):
        sv = SplitValues.spread(777, 13)
        full = sv.materialize()
        for block in (1, 3, 5, 13, 50):
            parts = [sv.slice(lo, hi) for lo, hi in blocks(13, block)]
            assert np.array_equal(np.concatenate(parts), full)

    def test_scaled_is_elementwise(self):
        sv = SplitValues.spread(100, 8).scaled(24)
        assert np.array_equal(sv.materialize(),
                              SplitValues.spread(100, 8).materialize() * 24)

    def test_add_int_and_spans(self):
        a = SplitValues.spread(100, 8)
        b = SplitValues.spread(60, 8)
        assert np.array_equal((a.slice(2, 6) + b.slice(2, 6)),
                              a.materialize()[2:6] + b.materialize()[2:6])

    def test_bad_slice_raises(self):
        with pytest.raises(IndexError):
            SplitValues(4, 1).slice(0, 5)

    def test_eq_and_hash(self):
        assert SplitValues.spread(10, 4) == SplitValues.spread(10, 4)
        assert SplitValues.spread(10, 4) != SplitValues.spread(11, 4)
        assert len({SplitValues.spread(10, 4),
                    SplitValues.spread(10, 4)}) == 1


class TestBlocks:
    def test_tiles_exactly(self):
        spans = list(blocks(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_none_or_large_is_single_window(self):
        assert list(blocks(10, None)) == [(0, 10)]
        assert list(blocks(10, 100)) == [(0, 10)]
        assert list(blocks(0, None)) == []

    def test_bad_block_raises(self):
        with pytest.raises(ValueError):
            list(blocks(10, 0))


class TestDeriveBlockSize:
    def test_node_aligned(self):
        block = derive_block_size(1 << 20, 128)
        assert block is not None and block % 128 == 0

    def test_none_budget_means_unchunked(self):
        assert derive_block_size(None, 128) is None

    def test_tiny_budget_floors_at_one_node(self):
        assert derive_block_size(16, 128) == 128


# ---------------------------------------------------------------------------
# budget / accounts


class TestMemoryAccount:
    def test_charge_release_high_water(self):
        acct = MemoryBudget().account("vfs")
        acct.charge(100)
        acct.charge(50)
        acct.release(120)
        assert acct.used == 30
        assert acct.high_water == 150

    def test_hard_quota_raises_and_rolls_back(self):
        budget = MemoryBudget(quotas={"vfs": 100}, hard=("vfs",))
        acct = budget.account("vfs")
        acct.charge(90)
        with pytest.raises(MemoryQuotaExceeded):
            acct.charge(20)
        assert acct.used == 90  # failed charge rolled back

    def test_pressure_hook_can_shed_before_enforcement(self):
        budget = MemoryBudget(quotas={"vfs": 100}, hard=("vfs",))
        acct = budget.account("vfs")

        def shed(account, requested):
            account.release(80)

        acct.on_pressure = shed
        acct.charge(90)
        acct.charge(20)  # pressure hook sheds 80, so no raise
        assert acct.used == 30

    def test_watermark_events_emitted_once_per_crossing(self):
        bus = TraceBus()
        seen = []

        class Sub:
            kinds = frozenset(["mem"])

            def on_event(self, ev):
                seen.append((ev.api, int(ev.n_ops[0])))

        bus.subscribe(Sub())
        budget = MemoryBudget(quotas={"trace": 100}, bus=bus)
        acct = budget.account("trace")
        acct.charge(60)   # crosses 0.5
        acct.charge(35)   # crosses 0.9
        acct.charge(10)   # crosses 1.0 (advisory: no raise)
        acct.charge(1)    # no new crossing
        assert seen == [("TRACE", 50), ("TRACE", 90), ("TRACE", 100)]
        acct.release(60)  # re-arm below 0.5
        acct.charge(20)   # crosses 0.5 again
        assert seen[-1] == ("TRACE", 50)

    def test_budget_report_and_config(self):
        budget = MemoryBudget(total=1 << 20, quotas={"vfs": 100})
        budget.account("vfs").charge(40)
        rep = budget.report()
        assert rep["vfs"]["used"] == 40
        assert rep["vfs"]["quota"] == 100
        cfg = budget.config()
        assert cfg["total"] == 1 << 20
        assert cfg["quotas"] == {"vfs": 100}

    def test_use_budget_scopes_the_ambient(self):
        outer = current_budget()
        scoped = MemoryBudget(total=123)
        with use_budget(scoped):
            assert current_budget() is scoped
            assert fingerprint()["total"] == 123
        assert current_budget() is outer


# ---------------------------------------------------------------------------
# sparse extent store (satellite: hole semantics + multi-GiB offsets)


class TestExtentStore:
    def test_holes_read_back_as_zeros(self):
        store = ExtentStore()
        store.write(10, b"abc")
        store.write(20, b"xyz")
        assert store.read(8, 18) == (b"\x00\x00abc" + b"\x00" * 7
                                     + b"xyz" + b"\x00" * 3)
        assert len(store) == 23

    def test_overlapping_writes_merge(self):
        store = ExtentStore()
        store.write(0, b"aaaa")
        store.write(2, b"bbbb")
        assert store.read(0, 6) == b"aabbbb"
        assert store.resident_bytes == 6

    def test_multi_gib_offset_costs_bytes_written(self):
        """A 4 GiB-offset write must not materialise 4 GiB of zeros."""
        payload = b"checkpoint-tail" * 64
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            store = ExtentStore()
            store.write(4 * GiB, payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # well under a MiB for a ~1 KiB payload
        assert store.resident_bytes == len(payload)
        assert len(store) == 4 * GiB + len(payload)
        assert store.read(4 * GiB, len(payload)) == payload
        assert store.read(4 * GiB - 8, 8) == b"\x00" * 8

    def test_resident_bytes_charged_to_account(self):
        acct = MemoryBudget().account("vfs")
        store = ExtentStore(account=acct)
        store.write(1 * GiB, b"x" * 100)
        assert acct.used == 100
        store.truncate(1 * GiB + 40)
        assert acct.used == 40
        store.discard()
        assert acct.used == 0

    def test_quota_pressure_spills_and_reads_survive(self):
        budget = MemoryBudget(quotas={"vfs": 1024}, hard=("vfs",))
        vfs = VirtualFS()
        account = vfs.configure_memory(budget.account("vfs"), spill=True)
        vfs.create("/big0")
        vfs.create("/big1")
        ino0, ino1 = vfs.lookup("/big0"), vfs.lookup("/big1")
        vfs.write_content(ino0, 0, b"a" * 800)
        vfs.write_content(ino1, 2 * GiB, b"b" * 800)  # over quota: spill
        assert account.used <= 1024
        assert account.spilled_bytes >= 800
        assert vfs.read(ino0, 0, 800) == b"a" * 800
        assert vfs.read(ino1, 2 * GiB, 800) == b"b" * 800

    def test_appends_load_no_existing_bytes(self, monkeypatch):
        """k appends to one file cost O(k · chunk): none of them copies
        the bytes already written (a merge-on-append store loads
        O(k² · chunk))."""
        loaded = []
        real_load = ExtentStore._load

        def spy(seg):
            loaded.append(len(seg))
            return real_load(seg)

        monkeypatch.setattr(ExtentStore, "_load", staticmethod(spy))
        acct = MemoryBudget().account("vfs")
        store = ExtentStore(account=acct)
        chunks = [bytes([i]) * 1000 for i in range(64)]
        for i, chunk in enumerate(chunks):
            store.write(i * 1000, chunk)
        # overwrites inside the segment and across its end stay in place
        store.write(500, b"m" * 10)
        store.write(63_500, b"t" * 1000)
        assert loaded == []
        expected = bytearray(b"".join(chunks))
        expected[500:510] = b"m" * 10
        expected[63_500:] = b"t" * 1000
        assert store.read(0, len(store)) == bytes(expected)
        assert len(store) == store.resident_bytes == acct.used == 64_500

    def test_account_tracks_residency_through_spill_append_read(self):
        budget = MemoryBudget(quotas={"vfs": 4096}, hard=("vfs",))
        vfs = VirtualFS()
        account = vfs.configure_memory(budget.account("vfs"), spill=True)
        vfs.create("/a")
        vfs.create("/b")
        ino_a, ino_b = vfs.lookup("/a"), vfs.lookup("/b")
        for i in range(3):
            vfs.write_content(ino_a, i * 1000, b"a" * 1000)
        assert account.used == vfs.resident_content_bytes == 3000
        for i in range(3):  # crosses the quota: /a spills
            vfs.write_content(ino_b, i * 1000, b"b" * 1000)
        assert account.spilled_bytes >= 3000
        assert account.used == vfs.resident_content_bytes
        # appending to the spilled extent pulls it back in, then grows
        vfs.write_content(ino_a, 3000, b"c" * 500)
        vfs.write_content(ino_a, 3500, b"d" * 500)
        assert account.used == vfs.resident_content_bytes <= 4096
        assert vfs.read(ino_a, 0, 4000) == (b"a" * 3000 + b"c" * 500
                                            + b"d" * 500)
        assert vfs.read(ino_b, 0, 3000) == b"b" * 3000
        assert account.used == vfs.resident_content_bytes


class TestSlotSpans:
    def test_roundtrip_piecewise(self):
        from repro.adios2.engine import _SlotSpans
        off = np.array([0, 0, 0, 7, 7, 9], dtype=np.int64)
        res = np.array([4, 4, 5, 5, 5, 5], dtype=np.int64)
        spans = _SlotSpans.encode(off, res)
        out_off, out_res = spans.decode()
        assert np.array_equal(out_off, off)
        assert np.array_equal(out_res, res)

    def test_uniform_encodes_to_one_segment(self):
        from repro.adios2.engine import _SlotSpans
        spans = _SlotSpans.encode(np.full(10_000, 42, dtype=np.int64),
                                  np.full(10_000, 7, dtype=np.int64))
        assert len(spans.offsets) == 1
        assert spans.nbytes < 64


# ---------------------------------------------------------------------------
# lazy node map


class TestBlockNodeMap:
    @pytest.fixture
    def pair(self):
        nmap = BlockNodeMap(100, 8)
        arr = np.arange(100) // 8
        return nmap, arr

    def test_scalar_and_negative_indexing(self, pair):
        nmap, arr = pair
        assert nmap[0] == arr[0]
        assert nmap[99] == arr[99]
        assert nmap[-1] == arr[-1]
        with pytest.raises(IndexError):
            nmap[100]

    def test_slice_fancy_and_bool_indexing(self, pair):
        nmap, arr = pair
        assert np.array_equal(nmap[10:40], arr[10:40])
        idx = np.array([3, 97, 42, 0])
        assert np.array_equal(nmap[idx], arr[idx])
        mask = np.zeros(100, dtype=bool)
        mask[[5, 50, 95]] = True
        assert np.array_equal(nmap[mask], arr[mask])

    def test_asarray_max_len_eq(self, pair):
        nmap, arr = pair
        assert np.array_equal(np.asarray(nmap), arr)
        assert nmap.max() == arr.max()
        assert len(nmap) == 100
        assert np.array_equal(nmap == 5, arr == 5)
        assert np.array_equal(nmap.astype(np.int64), arr)

    def test_comm_topology_helpers(self):
        comm = VirtualComm(64, 8)
        assert isinstance(comm.node_of_rank, BlockNodeMap)
        assert comm.nnodes == 8
        assert comm.has_block_topology()
        assert np.array_equal(comm.ranks_on_node(3), np.arange(24, 32))
        assert np.array_equal(comm.node_leaders(), np.arange(8) * 8)

    def test_assigned_array_still_works(self):
        comm = VirtualComm(8, 4)
        comm.node_of_rank = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert not comm.has_block_topology()
        assert np.array_equal(comm.ranks_on_node(1), [1, 3, 5, 7])


# ---------------------------------------------------------------------------
# trace bus path registry (satellite: fold-once + compaction)


class TestBusPathCaching:
    def test_path_of_folds_batches_once(self):
        bus = TraceBus()
        bus.register_files(np.arange(10), [f"/f{i}" for i in range(10)])
        assert bus.path_of(3) == "/f3"
        folded = bus._paths_folded
        assert bus.path_of(7) == "/f7"  # second lookup: no re-fold
        assert bus._paths_folded == folded
        bus.register_files(np.arange(10, 20),
                           [f"/f{i}" for i in range(10, 20)])
        assert bus.path_of(15) == "/f15"  # folds only the new batch

    def test_first_registration_wins(self):
        bus = TraceBus()
        bus.register_file(5, "/first")
        bus.register_file(5, "/second")
        assert bus.path_of(5) == "/first"

    def test_compaction_bounds_repeat_registrations(self, monkeypatch):
        monkeypatch.setattr(TraceBus, "PATH_COMPACT_THRESHOLD", 64)
        bus = TraceBus()
        inos = np.arange(8)
        paths = [f"/sub{i}" for i in range(8)]
        for _ in range(20):  # chunked loop re-registers per block
            bus.register_files(inos, paths)
        assert len(bus._path_batches) < 20  # compaction kicked in
        assert bus.paths() == dict(zip(range(8), paths))


# ---------------------------------------------------------------------------
# a finished run is freed by reference counting


class TestRunLifetime:
    def test_dropping_the_result_frees_the_run(self):
        # a closed series is no reference cycle, and neither is the
        # run's own memory budget: the run's clocks, filesystem and
        # Darshan monitor go with its result, without the cyclic
        # collector
        gc.disable()
        try:
            res = run_openpmd_scaled(
                dardel(), 2, config=paper_use_case().with_(last_step=2000))
            comm, fs = weakref.ref(res.comm), weakref.ref(res.fs)
            vfs, monitor = weakref.ref(res.fs.vfs), weakref.ref(
                res.trace.monitor)
            del res
            assert comm() is None
            assert fs() is None
            assert vfs() is None and monitor() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# chunked flush = unchunked flush, bit for bit


def _tiny_config():
    return paper_use_case().with_(ncells=2048, last_step=40, datfile=10,
                                  dmpstep=20)


def _run(block, **kw):
    res = run_openpmd_scaled(dardel(), 2, config=_tiny_config(),
                             ranks_per_node=8, rank_block_size=block, **kw)
    return res


#: a blocked flush emits per window (its events and ``bus.seq`` differ),
#: holds less (its memory accounts) and memoises shuffle derivations
CHUNKED_LEAVES_OUT = ("events", "seq", "mem", "memo")


class TestChunkedBitIdentity:
    """rank_block_size must never change a simulated result."""

    @staticmethod
    def _blocked_equals_unblocked(block, **kw):
        assert_same(observe(partial(_run, None, **kw)),
                    observe(partial(_run, block, **kw)),
                    leave_out=CHUNKED_LEAVES_OUT)

    @pytest.mark.parametrize("block", [3, 5, 8, 16])
    def test_counters_clocks_and_peaks_identical(self, block):
        self._blocked_equals_unblocked(block)

    def test_identity_with_aggregators_and_profiling(self):
        self._blocked_equals_unblocked(5, num_aggregators=2,
                                       profiling=True)

    def test_identity_with_compression(self):
        self._blocked_equals_unblocked(3, num_aggregators=2,
                                       compressor="blosc")

    def test_identity_under_fault_plan(self):
        # the failover drops both runs' flush memos; the flap then
        # replaces an entry at step 30, which later flushes hit
        self._blocked_equals_unblocked(5, num_aggregators=2, fault_plan=(
            FaultPlan((AggregatorFailure(rank=0, step=20),
                       NICFlap(node=0, start_step=30, end_step=40,
                               factor=0.25)))))

    def test_identity_with_bp5_two_level(self):
        self._blocked_equals_unblocked(5, engine_ext=".bp5",
                                       num_aggregators=2)

    def test_dxt_segments_identical_sorted(self):
        base = _run(None, trace_mode="full")
        chunked = _run(4, trace_mode="full")
        a = sorted(base.trace.dxt_text().splitlines())
        b = sorted(chunked.trace.dxt_text().splitlines())
        assert a == b


class TestNodeGranularity:
    def test_totals_conserved_vs_rank_granularity(self):
        rank = _run(None)
        node = _run(None, counter_granularity="node")
        r = rank.log.to_dict()["modules"]
        n = node.log.to_dict()["modules"]
        assert set(r) == set(n)
        for mod in r:
            for counter, vals in r[mod].items():
                if isinstance(vals, list):
                    assert sum(vals) == pytest.approx(sum(n[mod][counter]))

    def test_node_binned_counters_are_o_nodes(self):
        node = _run(None, counter_granularity="node")
        d = node.log.to_dict()
        assert d["nbins"] == 2  # 2 nodes, not 16 ranks


class TestMemReport:
    def test_scaled_run_reports_accounts(self):
        res = _run(None, mem_budget=64 << 20)
        assert "vfs" in res.mem_report
        assert res.mem_report["vfs"]["high_water"] >= 0

    def test_a_run_reports_only_its_own_memory(self):
        """Runs without ``mem_budget`` leave the process default alone and
        report their own accounts; a budget a caller installs is still
        the one charged."""
        config = paper_use_case().with_(last_step=30_000)
        before = current_budget().report()
        first, second = (run_openpmd_scaled(dardel(), 2, config=config)
                         for _ in range(2))
        assert first.mem_report == second.mem_report
        assert first.mem_report["darshan"]["used"] > 0
        original = run_original_scaled(dardel(), 2, config=config)
        assert "engine" not in original.mem_report
        with use_budget(MemoryBudget()) as budget:
            alone = run_original_scaled(dardel(), 2, config=config)
        assert original.mem_report == alone.mem_report == budget.report()
        assert current_budget().report() == before

"""Serving-plane tests: patterns, cache, prefetchers, fleet, reader.

The acceptance contract (ISSUE 8): deterministic seeded access
patterns; a shared read cache whose hits cost memory bandwidth and
whose misses pay the storage model; predictive prefetchers that beat
plain LRU on learnable patterns; run-scoped state (two runs share
nothing); and byte-identical reads under caching for every policy —
including spilled extents and degraded-OST fault plans.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import Bit1SeriesReader
from repro.cluster.presets import dardel
from repro.darshan import DarshanMonitor
from repro.faults import FaultPlan, OSTFault, install_faults, uninstall_faults
from repro.fs import PosixIO, mount
from repro.io_adaptor import Bit1OpenPMDWriter
from repro.mem import MemoryBudget, use_budget
from repro.mpi import VirtualComm
from repro.openpmd.series import Access, Series
from repro.pic import Bit1Simulation
from repro.serving import (
    POLICIES,
    AdaptiveMarkovPrefetcher,
    CachedSeriesReader,
    MarkovPrefetcher,
    NoPrefetch,
    ReadCache,
    ReaderFleet,
    SequentialReadahead,
    SeriesLayout,
    ServingConfig,
    make_pattern,
    make_prefetcher,
)
from repro.serving.patterns import PATTERNS
from repro.trace.session import TraceSession
from repro.util.units import MiB
from repro.workloads import small_use_case
from tests.oracle import assert_same, observe

pytestmark = pytest.mark.serving


# ---------------------------------------------------------------------------
# access patterns
# ---------------------------------------------------------------------------


class TestPatterns:
    @pytest.mark.parametrize("name", PATTERNS)
    def test_deterministic_and_in_range(self, name):
        a = make_pattern(name, 97, seed=3, reader_index=2,
                         total_readers=4).requests(200)
        b = make_pattern(name, 97, seed=3, reader_index=2,
                         total_readers=4).requests(200)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 0 and a.max() < 97

    @pytest.mark.parametrize("name", ("random", "zipfian", "locality"))
    def test_readers_decorrelated(self, name):
        a = make_pattern(name, 211, seed=0, reader_index=0,
                         total_readers=2).requests(100)
        b = make_pattern(name, 211, seed=0, reader_index=1,
                         total_readers=2).requests(100)
        assert not np.array_equal(a, b)

    def test_zipfian_hot_set_shared_across_readers(self):
        def hot(reader):
            reqs = make_pattern("zipfian", 500, seed=1, reader_index=reader,
                                total_readers=4).requests(2000)
            vals, counts = np.unique(reqs, return_counts=True)
            return set(vals[np.argsort(counts)][-5:].tolist())
        assert len(hot(0) & hot(3)) >= 3

    def test_repeated_cycles_its_working_set(self):
        reqs = make_pattern("repeated", 300, seed=0, working_set=8
                            ).requests(24)
        assert len(set(reqs[:8].tolist())) == 8
        assert np.array_equal(reqs[:8], reqs[8:16])
        assert np.array_equal(reqs[:8], reqs[16:24])

    def test_sequential_staggers_and_wraps(self):
        reqs = make_pattern("sequential", 10, reader_index=1,
                            total_readers=2).requests(10)
        assert reqs.tolist() == [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown access pattern"):
            make_pattern("nope", 10)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            make_pattern("sequential", 0)


# ---------------------------------------------------------------------------
# the read cache
# ---------------------------------------------------------------------------


class TestReadCache:
    def test_hit_miss_counters(self):
        c = ReadCache(10)
        assert c.lookup("a") == (None, None)
        c.insert("a", 4)
        entry, stream = c.lookup("a")
        assert entry.nbytes == 4 and stream is None
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_lru_evicts_least_recent(self):
        c = ReadCache(3)
        for k in "abc":
            c.insert(k, 1)
        c.lookup("a")  # refresh a: b is now the LRU victim
        out = c.insert("d", 1)
        assert [e.key for e in out.evicted] == ["b"]
        assert "a" in c and "c" in c and "d" in c

    def test_pinned_entries_survive_unpinned_walk(self):
        c = ReadCache(3, max_pinned_per_stream=4)
        c.insert("p", 1, pinned_by=7)
        c.insert("a", 1)
        c.insert("b", 1)
        out = c.insert("x", 1)  # oldest is the pin, but "a" must go first
        assert [e.key for e in out.evicted] == ["a"]
        assert "p" in c

    def test_pinned_evicted_when_nothing_else_frees_enough(self):
        c = ReadCache(2, max_pinned_per_stream=4)
        c.insert("p1", 1, pinned_by=0)
        c.insert("p2", 1, pinned_by=0)
        out = c.insert("x", 2)
        assert {e.key for e in out.evicted} == {"p1", "p2"}

    def test_pin_quota_expires_oldest_prediction(self):
        c = ReadCache(10, max_pinned_per_stream=2)
        c.insert("a", 1, pinned_by=5)
        c.insert("b", 1, pinned_by=5)
        out = c.insert("c", 1, pinned_by=5)
        assert out.expired == [(5, "a")]
        assert c.peek("a").pinned_by is None  # resident but unpinned
        assert c.peek("c").pinned_by == 5

    def test_lookup_redeems_pin(self):
        c = ReadCache(10)
        c.insert("a", 1, pinned_by=3)
        entry, stream = c.lookup("a")
        assert stream == 3
        assert entry.pinned_by is None
        _, again = c.lookup("a")
        assert again is None  # a pin is redeemed at most once

    def test_oversized_chunk_not_cached(self):
        c = ReadCache(4)
        out = c.insert("big", 5)
        assert "big" not in c and not out.evicted
        assert c.used_bytes == 0

    def test_residency_billed_and_released(self):
        acct = MemoryBudget().account("serving")
        c = ReadCache(8, account=acct)
        c.insert("a", 3)
        c.insert("b", 4)
        assert acct.used == 7
        c.insert("c", 4)  # evicts "a"
        assert acct.used == 8
        c.clear()
        assert acct.used == 0 and len(c) == 0


# ---------------------------------------------------------------------------
# prefetch policies
# ---------------------------------------------------------------------------


class TestPrefetchers:
    def test_none_never_predicts(self):
        p = NoPrefetch(depth=4)
        p.observe(0, 1, 2)
        assert p.predict(0, 2) == []

    def test_readahead_wraps_at_universe(self):
        p = SequentialReadahead(depth=3, universe=10)
        assert p.predict(0, 8) == [9, 0, 1]

    def test_markov_learns_a_cycle(self):
        p = MarkovPrefetcher(depth=2)
        for _ in range(2):
            prev = None
            for cur in (4, 7, 9, 4, 7, 9):
                p.observe(0, prev, cur)
                prev = cur
        assert p.predict(0, 4) == [7, 9]
        assert p.predict(0, 9) == [4, 7]

    def test_markov_walk_stops_on_revisit(self):
        p = MarkovPrefetcher(depth=10)
        prev = None
        for cur in (1, 2, 1, 2, 1):
            p.observe(0, prev, cur)
            prev = cur
        # the 2-cycle yields at most the other member, never loops
        assert p.predict(0, 1) == [2]

    def test_markov_tie_breaks_to_smaller_id(self):
        p = MarkovPrefetcher(depth=1)
        p.observe(0, 5, 9)
        p.observe(0, 5, 3)
        assert p.predict(0, 5) == [3]

    def test_markov_streams_are_independent(self):
        p = MarkovPrefetcher(depth=1)
        p.observe(0, 1, 2)
        assert p.predict(1, 1) == []

    def test_adaptive_demotes_to_silence(self):
        p = AdaptiveMarkovPrefetcher(depth=2)
        prev = None
        for cur in (1, 2, 3, 1, 2, 3):
            p.observe(0, prev, cur)
            prev = cur
        assert p.predict(0, 1) != []
        for _ in range(30):
            p.feedback(0, False)
        assert p.confidence(0) < p.FLOOR
        assert p.predict(0, 1) == []

    def test_adaptive_confidence_recovers(self):
        p = AdaptiveMarkovPrefetcher()
        for _ in range(30):
            p.feedback(0, False)
        low = p.confidence(0)
        for _ in range(30):
            p.feedback(0, True)
        assert p.confidence(0) > low

    def test_instances_share_no_state(self):
        a = make_prefetcher("markov", 2)
        b = make_prefetcher("markov", 2)
        a.observe(0, 1, 2)
        assert b.predict(0, 1) == []
        assert a._transitions is not b._transitions

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown serving policy"):
            make_prefetcher("psychic")


# ---------------------------------------------------------------------------
# the modeled fleet
# ---------------------------------------------------------------------------


def _fleet_env(readers=8):
    m = dardel()
    fs = mount(m.storage_named("lfs"))
    comm = VirtualComm(readers, 4)
    sess = TraceSession(comm, mode="full")
    posix = PosixIO(fs, comm, trace=sess.bus)
    layout = SeriesLayout(path="/serve/s.bp", chunk_bytes=MiB,
                          total_bytes=64 * MiB, n_subfiles=4)
    layout.materialize(fs)
    return m, posix, layout, sess


def _run_fleet(policy="markov", pattern="repeated", readers=8, n=64,
               cache_bytes=8 * MiB, depth=2, seed=0):
    m, posix, layout, sess = _fleet_env(readers)
    fleet = ReaderFleet(
        posix, layout, m.node, readers=readers, pattern=pattern,
        config=ServingConfig(cache_bytes=cache_bytes, policy=policy,
                             prefetch_depth=depth),
        requests_per_reader=n, seed=seed)
    return fleet.run(), sess


class TestReaderFleet:
    def test_runs_are_deterministic(self):
        a, _ = _run_fleet()
        b, _ = _run_fleet()
        assert a.to_dict() == b.to_dict()

    def test_runs_share_no_state(self):
        """Run-isolation (satellite 2): a fresh fleet must not inherit
        another run's learned transitions, cache contents or counters —
        its report matches a fleet born in a fresh process-state."""
        baseline, _ = _run_fleet(policy="adaptive")
        # a different, state-heavy run in between...
        _run_fleet(policy="adaptive", pattern="random", seed=9)
        again, _ = _run_fleet(policy="adaptive")
        assert again.to_dict() == baseline.to_dict()

    def test_readahead_covers_sequential(self):
        # room for every reader's demand chunk plus its in-flight pins
        rep, _ = _run_fleet(policy="readahead", pattern="sequential",
                            cache_bytes=32 * MiB)
        assert rep.hit_rate >= 0.9

    def test_markov_beats_lru_on_repeated(self):
        # combined working set (8 readers x 8 chunks) exceeds the cache:
        # recency thrashes, a learned cycle keeps the next chunk in flight
        lru, _ = _run_fleet(policy="lru", cache_bytes=32 * MiB)
        mkv, _ = _run_fleet(policy="markov", cache_bytes=32 * MiB)
        assert mkv.hit_rate > lru.hit_rate

    def test_cached_fleet_outruns_uncached(self):
        base, _ = _run_fleet(policy="none", cache_bytes=32 * MiB)
        fast, _ = _run_fleet(policy="adaptive", cache_bytes=32 * MiB)
        assert fast.agg_throughput_bps > base.agg_throughput_bps
        assert fast.elapsed_s < base.elapsed_s

    def test_uncached_policy_has_no_cache_traffic(self):
        rep, _ = _run_fleet(policy="none")
        assert rep.hits == 0 and rep.prefetch_issued == 0
        assert rep.misses == rep.readers * rep.requests
        assert rep.bytes_fetched == rep.bytes_requested

    def test_reports_exact_accounting(self):
        rep, _ = _run_fleet()
        total = rep.readers * rep.requests
        assert rep.hits + rep.misses == total
        assert rep.hit_rate == pytest.approx(rep.hits / total)
        assert rep.prefetch_used <= rep.prefetch_issued
        assert rep.prefetch_wasted == rep.prefetch_issued - rep.prefetch_used
        assert len(rep.per_reader_seconds) == rep.readers
        assert rep.elapsed_s == pytest.approx(max(rep.per_reader_seconds))

    def test_prefetch_backs_off_under_memory_quota(self):
        """A hard-pressed ``serving`` account throttles speculation:
        fills the quota cannot absorb are skipped, not forced."""
        with use_budget(MemoryBudget(quotas={"serving": 4 * MiB})):
            throttled, _ = _run_fleet(policy="markov", cache_bytes=16 * MiB)
        free, _ = _run_fleet(policy="markov", cache_bytes=16 * MiB)
        assert throttled.prefetch_skipped_quota > 0
        assert throttled.prefetch_issued < free.prefetch_issued

    def test_serving_events_on_their_own_layer(self):
        rep, sess = _run_fleet(policy="markov")
        kinds = {e.kind for e in sess.events if e.layer == "serving"}
        assert {"read_hit", "read_miss", "prefetch"} <= kinds
        # serving events never masquerade as filesystem traffic
        assert all(e.layer == "serving" for e in sess.events
                   if e.kind in ("read_hit", "read_miss", "prefetch",
                                 "evict"))

    def test_darshan_folds_only_the_posix_reads(self):
        """Darshan's read counters see the storage traffic under the
        cache (demand misses + prefetch fills) and nothing else — the
        serving layer is bookkeeping, not I/O."""
        readers = 8
        m = dardel()
        fs = mount(m.storage_named("lfs"))
        comm = VirtualComm(readers, 4)
        monitor = DarshanMonitor(readers)
        sess = TraceSession(comm, monitor=monitor)
        posix = PosixIO(fs, comm, trace=sess.bus)
        layout = SeriesLayout(path="/serve/s.bp", chunk_bytes=MiB,
                              total_bytes=64 * MiB, n_subfiles=4)
        layout.materialize(fs)
        rep = ReaderFleet(
            posix, layout, m.node, readers=readers, pattern="repeated",
            config=ServingConfig(cache_bytes=64 * MiB, policy="markov"),
            requests_per_reader=64, seed=0).run()
        log = monitor.finalize(runtime_seconds=rep.elapsed_s)
        assert rep.hits > 0  # cache absorbed traffic Darshan must not see
        assert log.total_bytes_read() == pytest.approx(rep.bytes_fetched)
        assert log.total_bytes_read() < rep.bytes_requested

    def test_fleet_needs_enough_ranks(self):
        m, posix, layout, _ = _fleet_env(readers=2)
        with pytest.raises(ValueError, match="needs a communicator"):
            ReaderFleet(posix, layout, m.node, readers=4)


# ---------------------------------------------------------------------------
# the functional cached reader: byte-identity under every policy
# ---------------------------------------------------------------------------


def _write_series(posix, comm, outdir, ncells=32):
    writer = Bit1OpenPMDWriter(posix, comm, outdir)
    cfg = small_use_case(ncells=ncells, particles_per_cell=20, last_step=80,
                         datfile=20, dmpstep=80)
    Bit1Simulation(cfg, comm, writers=[writer]).run()


def _series_env(budget=None, ncells=32):
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    posix = PosixIO(fs, comm)
    if budget is not None:
        fs.vfs.configure_memory(budget.account("vfs"), spill=True)
    _write_series(posix, comm, "/run/serve", ncells)
    return posix, comm


def _load_plan(series, meshes=("e_density", "D_density")):
    """(path, step_key=None) chunk-bearing variables, via the public
    chunk surface."""
    paths = [series.mesh_path(it, mesh)
             for it in series.read_iterations() for mesh in meshes]
    return [p for p in paths if series.variable_chunks(p)]


#: access orders over the load plan, exercising every pattern family
_ORDERS = {
    "sequential": lambda n: list(range(n)),
    "reverse": lambda n: list(range(n - 1, -1, -1)),
    "random": lambda n: list(np.random.default_rng(0).permutation(n)),
    "zipfian": lambda n: [0, 1] * n,  # two hot variables, hammered
    "locality": lambda n: [i // 2 for i in range(2 * n)],
    "repeated": lambda n: list(range(n)) * 3,
}


class TestCachedReaderByteIdentity:
    @pytest.fixture(scope="class")
    def env(self):
        posix, comm = _series_env()
        series = Series(posix, comm, "/run/serve/bit1_dat.bp4",
                        Access.READ_ONLY)
        plan = _load_plan(series)
        reference = {p: series.load(p) for p in plan}
        return posix, comm, series, plan, reference

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    def test_bit_identical_under_every_policy(self, env, policy, order):
        _, _, series, plan, reference = env
        reader = CachedSeriesReader(series, config=ServingConfig(
            cache_bytes=2 * MiB, policy=policy, prefetch_depth=2))
        for i in _ORDERS[order](len(plan)):
            path = plan[i]
            got = reader.load(path)
            ref = reference[path]
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_disabled_cache_charges_identical_virtual_clocks(self):
        """``policy="none"`` loads are direct ``Series.load`` calls, bit
        for bit: the same per-entry costs, events and descriptors, on the
        ``serving_disabled_cache`` overhead guard's series (64 cells,
        every density mesh)."""
        def run(cached):
            posix, comm = _series_env(ncells=64)
            series = Series(posix, comm, "/run/serve/bit1_dat.bp4",
                            Access.READ_ONLY)
            source = (CachedSeriesReader(series, config=ServingConfig(
                policy="none")) if cached else series)
            return SimpleNamespace(report=[source.load(p) for p in _load_plan(
                series, ("e_density", "D_density", "D_plus_density"))])

        assert_same(observe(partial(run, False)),
                    observe(partial(run, True)))

    def test_hits_are_served_from_cache(self, env):
        posix, comm, series, plan, reference = env
        reader = CachedSeriesReader(series, config=ServingConfig(
            cache_bytes=8 * MiB, policy="lru"))
        reader.load(plan[0])
        t0 = float(comm.clocks[0])
        again = reader.load(plan[0])
        assert reader.cache.hits > 0
        assert again.tobytes() == reference[plan[0]].tobytes()
        # the re-read cost memory bandwidth, not the storage model
        assert float(comm.clocks[0]) - t0 < 1e-3

    def test_typed_surface_matches_series(self, env):
        _, _, series, _, _ = env
        reader = CachedSeriesReader(series, config=ServingConfig(
            policy="readahead"))
        it = series.read_iterations()[0]
        assert np.array_equal(reader.load_mesh(it, "e_density"),
                              series.load_mesh(it, "e_density"))

    def test_particles_identical_through_cache(self):
        posix, comm = _series_env()
        ckpt = Series(posix, comm, "/run/serve/bit1_dmp.bp4",
                      Access.READ_ONLY)
        reader = CachedSeriesReader(ckpt, config=ServingConfig(
            policy="markov"))
        it = max(ckpt.read_iterations())
        ref = ckpt.load_particles(it, "e", "position", "x")
        for _ in range(2):  # second pass comes from cache
            got = reader.load_particles(it, "e", "position", "x")
            assert got.tobytes() == ref.tobytes()

    def test_identity_with_spilled_extents(self):
        """Hole-backed (quota-spilled) extents read back identically
        through the cache."""
        budget = MemoryBudget(quotas={"vfs": 64 * 1024}, hard=("vfs",))
        posix, comm = _series_env(budget=budget)
        assert budget.account("vfs").spilled_bytes > 0
        series = Series(posix, comm, "/run/serve/bit1_dat.bp4",
                        Access.READ_ONLY)
        plan = _load_plan(series)
        reference = {p: series.load(p) for p in plan}
        for policy in POLICIES:
            reader = CachedSeriesReader(series, config=ServingConfig(
                cache_bytes=2 * MiB, policy=policy))
            for path in plan + plan[::-1]:
                assert reader.load(path).tobytes() == \
                    reference[path].tobytes()

    def test_identity_under_degraded_ost(self):
        """A slow-OST fault plan (0 < bw_factor < 1) derates read cost
        but never changes bytes — cached or not."""
        posix, comm = _series_env()
        series = Series(posix, comm, "/run/serve/bit1_dat.bp4",
                        Access.READ_ONLY)
        plan = _load_plan(series)
        reference = {p: series.load(p) for p in plan}
        inj = install_faults(posix, FaultPlan(
            (OSTFault(ost=0, start_step=0, end_step=10**9, bw_factor=0.5),)))
        inj.begin_step(1)
        try:
            for policy in ("lru", "adaptive"):
                reader = CachedSeriesReader(series, config=ServingConfig(
                    cache_bytes=2 * MiB, policy=policy))
                for path in plan:
                    assert reader.load(path).tobytes() == \
                        reference[path].tobytes()
        finally:
            uninstall_faults(posix)


# ---------------------------------------------------------------------------
# Bit1SeriesReader metadata caching (satellite 1)
# ---------------------------------------------------------------------------


class TestReaderMetadataCache:
    @pytest.fixture(scope="class")
    def env(self):
        return _series_env()

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        original = Series.read_iterations

        def counting(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(Series, "read_iterations", counting)
        return calls

    def test_one_metadata_scan_per_series_per_session(self, env, scans):
        posix, comm = env
        reader = Bit1SeriesReader(posix, comm, "/run/serve")
        assert scans == []  # opening must not eagerly scan
        its = reader.iterations()
        assert reader.iterations() == its
        reader.density_history("D")  # iterates again internally
        assert len([p for p in scans if "dat" in p]) == 1
        reader.checkpoint_step()
        reader.phase_space("e")
        assert len([p for p in scans if "dmp" in p]) == 1

    def test_reopen_invalidates_the_cache(self, env, scans):
        posix, comm = env
        reader = Bit1SeriesReader(posix, comm, "/run/serve")
        first = reader.iterations()
        reader.reopen()
        assert reader.iterations() == first
        assert len([p for p in scans if "dat" in p]) == 2

    def test_iterations_returns_a_copy(self, env):
        posix, comm = env
        reader = Bit1SeriesReader(posix, comm, "/run/serve")
        reader.iterations().append(999)
        assert 999 not in reader.iterations()


# ---------------------------------------------------------------------------
# the experiment driver's acceptance checks (Table-II-sized series)
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_paper_scale_checks_hold(self):
        """The committed artifact's claims, recomputed on the acceptance
        cells: predictive policies beat LRU on learnable patterns,
        readahead covers sequential, and the 16-reader adaptive fleet
        clears 2x the uncached baseline once its working set fits."""
        from repro.experiments.serving import run_serving
        result = run_serving(patterns=("sequential", "locality", "repeated"),
                             reader_counts=(16,))
        failing = {k: c for k, c in result.checks.items() if not c["pass"]}
        assert not failing, f"acceptance checks failing: {failing}"
        assert result.checks["adaptive16_speedup"]["speedup"] >= 2.0
        assert result.checks["readahead_sequential"]["hit_rate"] >= 0.9
        for pat in ("repeated", "locality"):
            for pol in ("markov", "adaptive"):
                c = result.checks[f"{pol}_gt_lru_{pat}"]
                assert c["hit_rate"] > c["lru_hit_rate"]

    def test_driver_results_are_cached_and_reproducible(self, tmp_path,
                                                        monkeypatch):
        """Two invocations agree exactly, the second without evaluating
        a single point (the serving config is part of every key)."""
        from repro.experiments import sweep as sw
        from repro.experiments.serving import run_serving
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        kw = dict(patterns=("repeated",), policies=("lru", "markov"),
                  reader_counts=(4,), cache_mib=(64,),
                  requests_per_reader=32)
        sw.reset_stats()
        first = run_serving(**kw)
        assert sw.SESSION_STATS.evaluated == 2
        sw.reset_stats()
        second = run_serving(**kw)
        assert sw.SESSION_STATS.evaluated == 0
        assert sw.SESSION_STATS.cached == 2
        assert [r.to_dict() for r in second.rows] == \
            [r.to_dict() for r in first.rows]

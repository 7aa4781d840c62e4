"""The step lane: a run of diagnostics flushes of one BP series in one
engine pass, folded as one step batch.

``run_openpmd_scaled`` closes each run of consecutive diagnostics
milestones with one ``Series.close_iterations`` call, and a BP engine
flushes the run in one pass when ``BPEngineBase._steps_batchable``
holds.  Patched to return False, every flush takes the per-step path,
the lane's reference: clocks, the Darshan log, engine and stream
profiles, the per-layer breakdown, vfs columns, descriptor positions,
engine tails, slot tables, memo, ``bus.seq``, the perf model's RNG state
and every memory account must come out the same, bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.adios2 import EngineConfig
from repro.adios2.engine import BPEngineBase
from repro.cluster.presets import dardel
from repro.darshan.dxt import DXTRecorder
from repro.faults import FaultPlan, NICFlap
from repro.fs import PosixIO, mount
from repro.ior import IORConfig, run_ior
from repro.mem import MemoryBudget, SplitValues, use_budget
from repro.mpi import VirtualComm
from repro.openpmd.config import SeriesOptions
from repro.openpmd.record import Dataset
from repro.openpmd.series import Access, Series
from repro.trace.session import TraceSession
from repro.util.units import MiB
from repro.workloads import paper_use_case, run_openpmd_scaled
from tests.test_batched_plane import _assert_logs_identical

#: diagnostics every 10 steps, a checkpoint every 40: two runs of four
#: diagnostics flushes, each followed by the checkpoint milestone's
#: in-place diagnostics flush and the checkpoint itself
CONFIG = paper_use_case().with_(ncells=2048, last_step=80, datfile=10,
                                dmpstep=40)


def _per_step(self):
    """Reference: no run takes the lane."""
    return False


class _Probe:
    """Counts lane flushes and snapshots each BP engine as it closes."""

    def __init__(self, monkeypatch):
        self.flushes = 0
        self.engines = {}
        flush_steps, finish = BPEngineBase._flush_steps, BPEngineBase._finish

        def counted(engine, d, keys, trace_steps):
            self.flushes += len(keys)
            return flush_steps(engine, d, keys, trace_steps)

        def snapshot(engine):
            if engine.mode != "r":
                self.engines[engine.path] = _engine_state(engine)
            return finish(engine)

        monkeypatch.setattr(BPEngineBase, "_flush_steps", counted)
        monkeypatch.setattr(BPEngineBase, "_finish", snapshot)


def _engine_state(engine) -> dict:
    fds = [engine._md_fd, engine._idx_fd, *engine._extra_fds.values()]
    memo = {}
    for key, d in engine._memo.items():
        memo[key] = [getattr(d, f.name) for f in dataclasses.fields(d)]
        memo[key] = [v.tobytes() if isinstance(v, np.ndarray) else v
                     for v in memo[key]]
    return {
        "step": engine._step,
        "profile_steps": engine.profile.steps,
        "tails": engine._subfile_tails.tobytes(),
        "slots": {key: [a.tobytes() for a in spans.decode()]
                  for key, spans in engine._slots.items()},
        "memo": memo,
        "peak_host_bytes": engine.peak_host_bytes.tobytes(),
        "fd_pos": engine.posix._fd_pos[fds].tobytes(),
    }


def _run(monkeypatch, reference=False, budget=None, **kw):
    with monkeypatch.context() as m:
        probe = _Probe(m)
        if reference:
            m.setattr(BPEngineBase, "_steps_batchable", _per_step)
        with use_budget(budget or MemoryBudget()):
            res = run_openpmd_scaled(dardel(), 2, config=CONFIG,
                                     ranks_per_node=8, **kw)
    return res, probe


def _assert_runs_identical(res, ref, probe, ref_probe):
    assert res.comm.clocks.tobytes() == ref.comm.clocks.tobytes()
    _assert_logs_identical(res.log, ref.log)
    assert len(res.profiles) == len(ref.profiles) == 2
    for p, q in zip(res.profiles, ref.profiles):
        assert p.steps == q.steps
        assert p.bytes_put.tobytes() == q.bytes_put.tobytes()
        for cat in p.us:
            assert p.us[cat].tobytes() == q.us[cat].tobytes(), cat
    if ref.trace.breakdown is not None:
        assert res.trace.breakdown.totals() == ref.trace.breakdown.totals()
        p, q = res.trace.stream_profile, ref.trace.stream_profile
        assert p.bytes_put.tobytes() == q.bytes_put.tobytes()
        for cat in p.us:
            assert p.us[cat].tobytes() == q.us[cat].tobytes(), cat
    cols, ref_cols = res.fs.vfs.cols, ref.fs.vfs.cols
    for name in cols._FIELDS:
        assert (getattr(cols, name).tobytes()
                == getattr(ref_cols, name).tobytes()), name
    assert probe.engines == ref_probe.engines
    assert res.trace.bus.seq == ref.trace.bus.seq
    assert (res.fs.perf._rng.bit_generator.state
            == ref.fs.perf._rng.bit_generator.state)
    assert res.mem_report == ref.mem_report
    assert res.peak_host_bytes == ref.peak_host_bytes


class TestLaneMatchesPerStep:
    @pytest.mark.parametrize("granularity", ["rank", "node"])
    @pytest.mark.parametrize("trace_mode", [None, "summary"])
    @pytest.mark.parametrize("aggregators", [1, None, 16],
                             ids=["1agg", "per_node", "per_rank"])
    @pytest.mark.parametrize("compressor", [None, "blosc"])
    @pytest.mark.parametrize("engine_ext", [".bp4", ".bp5"])
    def test_run_matches_per_step_flushes(self, monkeypatch, engine_ext,
                                          compressor, aggregators,
                                          trace_mode, granularity):
        kw = dict(engine_ext=engine_ext, compressor=compressor,
                  num_aggregators=aggregators, trace_mode=trace_mode,
                  counter_granularity=granularity, profiling=True)
        res, probe = _run(monkeypatch, **kw)
        ref, ref_probe = _run(monkeypatch, reference=True, **kw)
        # two runs of four diagnostics flushes; the first run's first
        # step is the diagnostics engine's memo miss
        assert (probe.flushes, ref_probe.flushes) == (8, 0)
        _assert_runs_identical(res, ref, probe, ref_probe)

    def test_first_lane_step_is_the_memo_miss(self, monkeypatch):
        derived = []
        derivation = BPEngineBase._derivation

        def counted(engine, nic):
            derived.append((engine.path, engine._step))
            return derivation(engine, nic)

        monkeypatch.setattr(BPEngineBase, "_derivation", counted)
        res, probe = _run(monkeypatch)
        dat = [step for path, step in derived if "dat_file" in path]
        assert dat == [0] and probe.flushes == 8


class TestSeriesRun:
    """``Series.close_iterations`` on its own: the lane's engine state
    against closing the same iterations one by one."""

    @staticmethod
    def _series(path, trace_mode=None, **config):
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(12, 4)
        session = TraceSession(comm, mode=trace_mode)
        posix = PosixIO(fs, comm, trace=session.bus)
        posix.mkdir(0, "/out")
        return Series(posix, comm, path, Access.CREATE,
                      options=SeriesOptions(engine=EngineConfig(**config)))

    @staticmethod
    def _stage(series, steps, spans=None):
        its = []
        for step in steps:
            it = series.iterations[step]
            comp = it.meshes["rho"].scalar
            comp.entropy = "diagnostic_float64"
            comp.reset_dataset(Dataset(np.float64, (12 * 500,)))
            comp.store_chunk_group(None, spans or SplitValues.spread(
                12 * 500 - step, 12))
            its.append(it)
        return its

    def _close(self, monkeypatch, path, reference, steps=(3, 4, 5, 6),
               first=1, **config):
        with monkeypatch.context() as m:
            probe = _Probe(m)
            if reference:
                m.setattr(BPEngineBase, "_steps_batchable", _per_step)
            with use_budget(MemoryBudget()) as budget:
                series = self._series(path, **config)
                spans = SplitValues.spread(12 * 499, 12)
                # one iteration first, so the run's steps all hit the memo
                series.close_iterations(self._stage(series, [first], spans),
                                        [first])
                its = self._stage(series, steps, spans)
                flushed = series.close_iterations(its, steps)
                engine = series.engine
                state = _engine_state(engine)
                state["clocks"] = engine.comm.clocks.tobytes()
                state["seq"] = engine.posix.trace.seq
                state["rng"] = engine.posix.fs.perf._rng.bit_generator.state
                state["flushed"] = (flushed, series.bytes_flushed)
                state["closed"] = [it.closed for it in its]
                series.close()
                state["mem"] = budget.report()
        return state, probe.flushes

    @pytest.mark.parametrize("path", ["/out/s.bp4", "/out/s.bp5"])
    def test_engine_state_matches_one_by_one(self, monkeypatch, path):
        state, flushes = self._close(monkeypatch, path, False)
        ref, ref_flushes = self._close(monkeypatch, path, True)
        assert (flushes, ref_flushes) == (4, 0)
        assert state == ref
        assert all(state["closed"])
        assert state["profile_steps"] == 5

    def test_closed_iteration_overwrites_in_place(self, monkeypatch):
        """A run whose first iteration was closed before reuses its slot
        table: the lane's flush overwrites the earlier one in place."""
        state, flushes = self._close(monkeypatch, "/out/s.bp4", False,
                                     first=3)
        ref, _ = self._close(monkeypatch, "/out/s.bp4", True, first=3)
        assert flushes == 4
        assert state == ref
        assert len(state["slots"]) == 4

    def test_iteration_listed_twice_closes_one_by_one(self, monkeypatch):
        """The second close of one iteration flushes an empty step."""
        def close(reference):
            with monkeypatch.context() as m:
                probe = _Probe(m)
                if reference:
                    m.setattr(BPEngineBase, "_steps_batchable", _per_step)
                series = self._series("/out/t.bp4")
                it = self._stage(series, [1])[0]
                series.close_iterations([it, it], [1, 2])
                state = _engine_state(series.engine)
                state["clocks"] = series.comm.clocks.tobytes()
                series.close()
            return state, probe.flushes

        (state, flushes), (ref, _) = close(False), close(True)
        assert flushes == 0 and state == ref

    def test_different_spans_close_one_by_one(self, monkeypatch):
        with monkeypatch.context() as m:
            probe = _Probe(m)
            series = self._series("/out/d.bp4")
            series.close_iterations(self._stage(series, [1, 2, 3]),
                                    [1, 2, 3])
            series.close()
        assert probe.flushes == 0


class TestExcludedShapes:
    """Every shape the lane cannot take keeps the per-step path."""

    @pytest.mark.parametrize("kw", [
        dict(fault_plan=FaultPlan((NICFlap(node=0, start_step=500,
                                           end_step=600, factor=0.5),))),
        dict(engine_ext=".bp5", async_drain=True),
        dict(rank_block_size=4),
        dict(trace_mode="full"),
    ], ids=["fault_plan", "async_drain", "rank_blocks", "trace_full"])
    def test_run_shape_takes_no_lane_flush(self, monkeypatch, kw):
        _res, probe = _run(monkeypatch, **kw)
        assert probe.flushes == 0

    def test_memory_quota_takes_no_lane_flush(self, monkeypatch):
        _res, probe = _run(monkeypatch,
                           budget=MemoryBudget(quotas={"vfs": 1 << 30}))
        assert probe.flushes == 0

    @staticmethod
    def _close_run(monkeypatch, path, engine_config=None, stage=None,
                   subscriber=None):
        with monkeypatch.context() as m:
            probe = _Probe(m)
            fs = mount(dardel().storage_named("lfs"))
            comm = VirtualComm(8, 4)
            posix = PosixIO(fs, comm)
            if subscriber is not None:
                posix.trace.subscribe(subscriber)
            posix.mkdir(0, "/out")
            series = Series(posix, comm, path, Access.CREATE,
                            options=SeriesOptions(
                                engine=engine_config or EngineConfig()))
            its = []
            for step in (1, 2, 3):
                it = series.iterations[step]
                comp = it.meshes["rho"].scalar
                comp.reset_dataset(Dataset(np.float64, (8 * 100,)))
                (stage or (lambda c: c.store_chunk_group(
                    None, SplitValues(8, 100))))(comp)
                its.append(it)
            series.close_iterations(its, [1, 2, 3])
            series.close()
        return probe.flushes

    def test_reference_shape_takes_the_lane(self, monkeypatch):
        assert self._close_run(monkeypatch, "/out/s.bp4") == 3

    def test_bounded_bp5_batch(self, monkeypatch):
        assert self._close_run(monkeypatch, "/out/s.bp5", EngineConfig(
            num_aggregators=1, buffer_chunk_size=1024)) == 0

    def test_dxt_recorder(self, monkeypatch):
        assert self._close_run(monkeypatch, "/out/s.bp4",
                               subscriber=DXTRecorder()) == 0

    @staticmethod
    def _real_chunks(comp):
        for rank in range(8):
            comp.store_chunk(np.full(100, rank, dtype=np.float64),
                             (rank * 100,), rank=rank)

    def test_real_chunks(self, monkeypatch):
        assert self._close_run(monkeypatch, "/out/s.bp4",
                               stage=self._real_chunks) == 0

    @pytest.mark.parametrize("path", ["/out/s_%T.bp4", "/out/s.h5"],
                             ids=["file_based", "hdf5"])
    def test_other_encodings_and_backends(self, monkeypatch, path):
        assert self._close_run(monkeypatch, path) == 0

    def test_json_closes_one_by_one(self, monkeypatch):
        """JSON stores real chunks only, so its iterations close one by
        one (and its engine has no lane to offer)."""
        assert self._close_run(monkeypatch, "/out/s.json",
                               stage=self._real_chunks) == 0


class TestSharedAppends:
    """Appends to one file in one group write follow each other."""

    def test_group_append_to_one_shared_path(self):
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(4, 2)
        posix = PosixIO(fs, comm)
        fd = posix.open(0, "/shared", create=True)
        for ranks in (np.arange(4), range(4)):
            posix.write_group(ranks, np.full(4, fd), 100)
        ino = posix.ino_of(fd)
        assert fs.vfs.cols.size[ino] == 800
        assert fs.vfs.cols.bytes_written[ino] == 800

    def test_appends_interleaved_over_two_files(self):
        fs = mount(dardel().storage_named("lfs"))
        a, b = fs.vfs.create("/a"), fs.vfs.create("/b")
        fs.vfs.write_group(np.array([b, a, b, a]), np.array([1, 2, 3, 4]))
        assert (fs.vfs.cols.size[a], fs.vfs.cols.size[b]) == (6, 4)
        # an explicit offset does not move the appends after it
        fs.vfs.write_group(np.array([a, a]), np.array([10, 10]),
                           offsets=np.array([0, -1]))
        assert fs.vfs.cols.size[a] == 16

    def test_ior_shared_file_holds_every_task_block(self, monkeypatch):
        import repro.ior.benchmark as ior

        mounted = []

        def keep(*args, **kw):
            mounted.append(ior_mount(*args, **kw))
            return mounted[-1]

        ior_mount = ior.mount
        monkeypatch.setattr(ior, "mount", keep)
        run_ior(dardel(), IORConfig(num_tasks=4, block_size=1 * MiB),
                ranks_per_node=2)
        (fs,) = mounted
        ino = fs.vfs.lookup("/scratch/ior/testFile")
        assert fs.vfs.cols.size[ino] == 4 * MiB

"""The step lane: a run of diagnostics flushes of one BP series in one
engine pass, folded as one step batch.

``run_openpmd_scaled`` closes each run of consecutive diagnostics
milestones with one ``Series.close_iterations`` call, and a BP engine
flushes the run in one pass when ``BPEngineBase._steps_batchable``
holds.  Each run here is compared with every lane's reference at once
(``tests/oracle.py``), as ``tests/test_lane_oracle.py`` compares its
drawn runs; this module adds what those draws cannot reach:
``Series.close_iterations`` on its own, the shapes that keep the
per-step path, and shared appends.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.adios2 import EngineConfig
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
from tests.oracle import assert_same, lane_census, observed

#: diagnostics every 10 steps, a checkpoint every 40: two runs of four
#: diagnostics flushes, each followed by the checkpoint milestone's
#: in-place diagnostics flush and the checkpoint itself
CONFIG = paper_use_case().with_(ncells=2048, last_step=80, datfile=10,
                                dmpstep=40)


def _run(budget=None, **kw):
    """The run's lane census."""
    with lane_census() as census, use_budget(budget or MemoryBudget()):
        run_openpmd_scaled(dardel(), 2, config=CONFIG, ranks_per_node=8,
                           **kw)
    return census


class TestLaneMatchesPerStep:
    @pytest.mark.parametrize("granularity", ["rank", "node"])
    @pytest.mark.parametrize("trace_mode", [None, "summary"])
    @pytest.mark.parametrize("aggregators", [1, None, 16],
                             ids=["1agg", "per_node", "per_rank"])
    @pytest.mark.parametrize("compressor", [None, "blosc"])
    @pytest.mark.parametrize("engine_ext", [".bp4", ".bp5"])
    def test_run_matches_per_step_flushes(self, engine_ext, compressor,
                                          aggregators, trace_mode,
                                          granularity):
        run = partial(run_openpmd_scaled, dardel(), 2, config=CONFIG,
                      ranks_per_node=8, engine_ext=engine_ext,
                      compressor=compressor, num_aggregators=aggregators,
                      trace_mode=trace_mode,
                      counter_granularity=granularity, profiling=True)
        (lane, census), (ref, _) = observed(run), observed(run, True)
        # two runs of four diagnostics flushes
        assert census["lane_flushes"] == 8
        assert_same(lane, ref)

    def test_first_lane_step_is_the_memo_miss(self):
        """Each engine derives once: the diagnostics engine at its first
        step, whose run then takes the lane."""
        census = _run()
        assert (census["fresh_derivations"], census["lane_flushes"]) \
            == (2, 8)


class TestSeriesRun:
    """``Series.close_iterations`` on its own: the lane's run against
    closing the same iterations one by one, every lane's reference on."""

    @staticmethod
    def _series(path, **config):
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(12, 4)
        session = TraceSession(comm, mode="summary")
        posix = PosixIO(fs, comm, trace=session.bus)
        posix.mkdir(0, "/out")
        return session, Series(posix, comm, path, Access.CREATE,
                               options=SeriesOptions(
                                   engine=EngineConfig(**config)))

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

    def _close(self, path, reference, steps=(3, 4, 5, 6), first=1,
               **config):
        def run():
            with use_budget(MemoryBudget()) as budget:
                session, series = self._series(path, **config)
                spans = SplitValues.spread(12 * 499, 12)
                # one iteration first, so the run's steps all hit the memo
                series.close_iterations(self._stage(series, [first], spans),
                                        [first])
                its = self._stage(series, steps, spans)
                flushed = series.close_iterations(its, steps)
                closed = [it.closed for it in its]
                series.close()
                return SimpleNamespace(
                    trace=session, mem_report=budget.report(),
                    flushed=(flushed, series.bytes_flushed), closed=closed)

        seen, census = observed(run, reference)
        return seen, census["lane_flushes"]

    @pytest.mark.parametrize("path", ["/out/s.bp4", "/out/s.bp5"])
    def test_engine_state_matches_one_by_one(self, path):
        seen, flushes = self._close(path, False)
        ref, ref_flushes = self._close(path, True)
        assert (flushes, ref_flushes) == (4, 0)
        assert_same(seen, ref)
        assert seen.result.flushed == ref.result.flushed
        assert all(seen.result.closed)
        assert seen["engines"][0]["profile_steps"] == 5

    def test_closed_iteration_overwrites_in_place(self):
        """A run whose first iteration was closed before reuses its slot
        table: the lane's flush overwrites the earlier one in place."""
        seen, flushes = self._close("/out/s.bp4", False, first=3)
        ref, _ = self._close("/out/s.bp4", True, first=3)
        assert flushes == 4
        assert_same(seen, ref)
        assert len(seen["engines"][0]["slots"]) == 4

    def test_iteration_listed_twice_closes_one_by_one(self):
        """The second close of one iteration flushes an empty step."""
        def run():
            session, series = self._series("/out/t.bp4")
            it = self._stage(series, [1])[0]
            series.close_iterations([it, it], [1, 2])
            series.close()
            return SimpleNamespace(trace=session)

        (seen, census), (ref, _) = observed(run), observed(run, True)
        assert census["lane_flushes"] == 0
        assert_same(seen, ref)

    def test_different_spans_close_one_by_one(self):
        with lane_census() as census:
            _, series = self._series("/out/d.bp4")
            series.close_iterations(self._stage(series, [1, 2, 3]),
                                    [1, 2, 3])
            series.close()
        assert census["lane_flushes"] == 0


class TestExcludedShapes:
    """Every shape the lane cannot take keeps the per-step path."""

    @pytest.mark.parametrize("kw", [
        dict(fault_plan=FaultPlan((NICFlap(node=0, start_step=500,
                                           end_step=600, factor=0.5),))),
        dict(engine_ext=".bp5", async_drain=True),
        dict(rank_block_size=4),
        dict(trace_mode="full"),
    ], ids=["fault_plan", "async_drain", "rank_blocks", "trace_full"])
    def test_run_shape_takes_no_lane_flush(self, kw):
        assert _run(**kw)["lane_flushes"] == 0

    def test_memory_quota_takes_no_lane_flush(self):
        census = _run(budget=MemoryBudget(quotas={"vfs": 1 << 30}))
        assert census["lane_flushes"] == 0

    @staticmethod
    def _close_run(path, engine_config=None, stage=None, subscriber=None):
        with lane_census() as census:
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
        return census["lane_flushes"]

    def test_reference_shape_takes_the_lane(self):
        assert self._close_run("/out/s.bp4") == 3

    def test_bounded_bp5_batch(self):
        assert self._close_run("/out/s.bp5", EngineConfig(
            num_aggregators=1, buffer_chunk_size=1024)) == 0

    def test_dxt_recorder(self):
        assert self._close_run("/out/s.bp4", subscriber=DXTRecorder()) == 0

    @staticmethod
    def _real_chunks(comp):
        for rank in range(8):
            comp.store_chunk(np.full(100, rank, dtype=np.float64),
                             (rank * 100,), rank=rank)

    def test_real_chunks(self):
        assert self._close_run("/out/s.bp4", stage=self._real_chunks) == 0

    @pytest.mark.parametrize("path", ["/out/s_%T.bp4", "/out/s.h5"],
                             ids=["file_based", "hdf5"])
    def test_other_encodings_and_backends(self, path):
        assert self._close_run(path) == 0

    def test_json_closes_one_by_one(self):
        """JSON stores real chunks only, so its iterations close one by
        one (and its engine has no lane to offer)."""
        assert self._close_run("/out/s.json", stage=self._real_chunks) == 0


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

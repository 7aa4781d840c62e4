"""Every lane at once against every reference at once.

One derandomized property draws small run shapes from the runners that
carry the paper's I/O stream (the scaled openPMD and original writers,
IOR and a serving fleet, plus an original-writer checkpoint of uniform
state) and asserts that a run observes the
same, facet for facet and bit for bit, as the same run under
:func:`tests.oracle.reference_paths`.  The lane census over the draws
shows the property reaches every lane.
"""

from functools import partial
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.presets import dardel
from repro.darshan.runtime import DarshanMonitor
from repro.faults import (
    AggregatorFailure,
    FaultPlan,
    MDSSlowdown,
    NICFlap,
    OSTFault,
)
from repro.fs import PosixIO, mount
from repro.ior import IORConfig, run_ior
from repro.mem import MemoryBudget, use_budget
from repro.mpi import VirtualComm
from repro.serving import ReaderFleet, SeriesLayout, ServingConfig
from repro.trace.session import TraceSession
from repro.util.units import KiB, MiB
from repro.workloads import paper_use_case, run_openpmd_scaled
from repro.workloads.runner import run_original_scaled
from tests.oracle import assert_same, observed

#: diagnostics every 10 steps, a checkpoint every 40: 8 diagnostics
#: flushes (two runs of four) and 2 checkpoints
CONFIG = paper_use_case().with_(ncells=2048, last_step=80, datfile=10,
                                dmpstep=40)


def _openpmd(nodes, ranks_per_node, quota=False, **kw):
    with use_budget(MemoryBudget(quotas={"vfs": 1 << 30}) if quota
                    else MemoryBudget()):
        return run_openpmd_scaled(dardel(), nodes, config=CONFIG,
                                  ranks_per_node=ranks_per_node, **kw)


#: a slow MDS, then a slow OST: the original writer's faulted draws
ORIGINAL_PLAN = FaultPlan((MDSSlowdown(start_step=20, end_step=40,
                                       factor=3.0),
                           OSTFault(5, start_step=30, end_step=40,
                                    bw_factor=0.5)))


def _original(nodes, ranks_per_node, **kw):
    return run_original_scaled(dardel(), nodes, config=CONFIG,
                               ranks_per_node=ranks_per_node, **kw)


def _ior(nodes, ranks_per_node, **config):
    return run_ior(dardel(), IORConfig(num_tasks=nodes * ranks_per_node,
                                       **config),
                   ranks_per_node=ranks_per_node)


def _stack(nodes, ranks_per_node, trace_mode, granularity="rank"):
    """(comm, posix, Darshan monitor, session) on dardel's Lustre."""
    comm = VirtualComm(nodes * ranks_per_node, ranks_per_node)
    monitor = DarshanMonitor(comm.size, granularity=granularity,
                             node_of_rank=comm.node_of_rank)
    session = TraceSession(comm, monitor=monitor, mode=trace_mode)
    posix = PosixIO(mount(dardel().storage_named("lfs")), comm,
                    trace=session.bus)
    return comm, posix, monitor, session


def _fleet(nodes, ranks_per_node, trace_mode, granularity, **kw):
    comm, posix, monitor, session = _stack(nodes, ranks_per_node,
                                           trace_mode, granularity)
    layout = SeriesLayout("/serve/s.bp", chunk_bytes=MiB,
                          total_bytes=24 * MiB, n_subfiles=4)
    layout.materialize(posix.fs)
    report = ReaderFleet(posix, layout, dardel().node, readers=comm.size,
                         requests_per_reader=12, **kw).run()
    return SimpleNamespace(log=monitor.finalize(comm.max_time()),
                           trace=session, report=report)


def _checkpoint(nodes, ranks_per_node, trace_mode, nbytes, **kw):
    """The original writer's checkpoint when every rank holds the same
    state: one byte count for the group, in stdio buffer chunks (the
    scaled runners' per-rank state never gives a group one count)."""
    comm, posix, monitor, session = _stack(nodes, ranks_per_node,
                                           trace_mode)
    ranks = comm.rank_range()
    posix.mkdir(0, "/ckpt")
    fds = posix.open_group(ranks, [f"/ckpt/r{r}.dmp" for r in ranks],
                           api="STDIO")
    for _ in range(2):
        posix.write_group(ranks, fds, nbytes, truncate_first=True,
                          api="STDIO", **kw)
        comm.barrier()
    posix.close_group(ranks, fds, api="STDIO")
    return SimpleNamespace(log=monitor.finalize(comm.max_time()),
                           trace=session)


@st.composite
def run_shapes(draw):
    """(runner name, zero-argument run) at 2-4 nodes of 4-8 ranks."""
    nodes, per_node = draw(st.integers(2, 4)), draw(st.integers(4, 8))
    n = nodes * per_node
    # openPMD thrice: only its runs hold BP engines (memo, step lane)
    runner = draw(st.sampled_from(["openpmd", "original", "openpmd",
                                   "checkpoint", "openpmd", "ior",
                                   "fleet"]))
    trace_mode = draw(st.sampled_from([None, "summary", "full"]))
    if runner == "openpmd":
        # half the draws take none of the shapes the step lane excludes
        # (a full trace, a rank block, a quota, the async drain, faults)
        plain = draw(st.booleans())
        kw = dict(
            engine_ext=draw(st.sampled_from([".bp4", ".bp5"])),
            compressor=draw(st.sampled_from([None, "blosc"])),
            num_aggregators=draw(st.sampled_from([1, None, n])),
            counter_granularity=draw(st.sampled_from(["rank", "node"])),
            trace_mode=None if plain and trace_mode == "full"
            else trace_mode,
            rank_block_size=None if plain else draw(
                st.one_of(st.none(), st.integers(1, n - 1))),
            quota=not plain and draw(st.booleans()),
            profiling=draw(st.booleans()))
        if not plain and draw(st.booleans()):
            kw.update(async_drain=True, compute_seconds_per_step=1e-4)
        faults = () if plain else draw(st.sampled_from(
            [(), ("flap",), ("failover",), ("flap", "failover")]))
        if faults:
            kw["fault_plan"] = FaultPlan(tuple(
                NICFlap(node=0, start_step=20, end_step=30, factor=0.25)
                if f == "flap" else AggregatorFailure(rank=per_node, step=50)
                for f in faults))
        run = partial(_openpmd, nodes, per_node, **kw)
    elif runner == "original":
        run = partial(_original, nodes, per_node, trace_mode=trace_mode,
                      fault_plan=draw(st.sampled_from([None, ORIGINAL_PLAN])))
    elif runner == "checkpoint":
        run = partial(_checkpoint, nodes, per_node, trace_mode,
                      draw(st.integers(1, 3 * MiB)),
                      chunk_size=draw(st.sampled_from([None, 4 * KiB,
                                                       64 * KiB])),
                      sync_each_chunk=draw(st.booleans()))
    elif runner == "ior":
        run = partial(_ior, nodes, per_node,
                      file_per_proc=draw(st.booleans()),
                      fsync=draw(st.booleans()),
                      transfer_size=draw(st.sampled_from([64 * KiB,
                                                          256 * KiB])),
                      segment_count=draw(st.integers(1, 2)))
    else:
        run = partial(_fleet, nodes, per_node, trace_mode,
                      draw(st.sampled_from(["rank", "node"])),
                      pattern=draw(st.sampled_from(
                          ["repeated", "sequential", "zipfian"])),
                      config=ServingConfig(
                          cache_bytes=4 * MiB,
                          policy=draw(st.sampled_from(
                              ["lru", "markov", "readahead", "none"])),
                          prefetch_depth=2),
                      seed=draw(st.integers(0, 3)))
    return runner, run


def test_every_lane_matches_every_reference():
    """``observe(run) == observe(run under reference_paths)`` on every
    draw, and the draws reach every lane."""
    censuses = []

    @given(run_shapes())
    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    # derandomized draws cluster; the original writer runs at least
    # with and without its fault plan
    @example(("original", partial(_original, 2, 8, trace_mode="full",
                                  fault_plan=ORIGINAL_PLAN)))
    @example(("original", partial(_original, 3, 5, trace_mode="summary",
                                  fault_plan=None)))
    def lanes_match_references(shape):
        runner, run = shape
        (lane, census), (ref, _) = observed(run), observed(run, True)
        assert_same(lane, ref)
        censuses.append((runner, census))

    lanes_match_references()
    # a quarter of the openPMD draws take the step lane and most hit the
    # flush memo (only they run BP engines); most draws build range
    # events and emit scalars
    openpmd = [c for runner, c in censuses if runner == "openpmd"]
    assert 4 * sum(c["lane_flushes"] > 0 for c in openpmd) >= len(openpmd)
    assert 2 * sum(c["memo_hits"] > 0 for c in openpmd) > len(openpmd)
    for lane in ("range_events", "scalar_emits"):
        assert 2 * sum(c[lane] > 0 for _, c in censuses) > len(censuses)

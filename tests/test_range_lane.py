"""The range lane: group I/O given its ranks as a ``range``.

A producer that passes ``range(lo, hi, step)`` as its ranks gets, in
every layer the call crosses, the same bits as the call given
``np.arange`` of the range — the array path, which stays the lane's
reference: rank clocks, every event field (``start`` and ``seq``
included), the Darshan log, the DXT lines and the engine profiles.
These properties pin that down, from the scatter helpers up to whole
runs with the producers patched to arrays.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios2.profiling import EngineProfile
from repro.cluster.presets import dardel
from repro.darshan.dxt import DXTRecorder
from repro.darshan.runtime import DarshanMonitor
from repro.faults import (
    FaultPlan,
    MDSSlowdown,
    OSTFault,
    RetryPolicy,
    TransientError,
    install_faults,
)
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.mpi.comm import BlockNodeMap
from repro.trace.bus import TraceBus
from repro.trace.export import LayerBreakdown
from repro.trace.subscribers import EventRecorder, ProfileFold
from repro.util.scatter import (
    as_run,
    rank_array,
    scatter_add,
    scatter_add2,
    scatter_max,
)
from repro.workloads.presets import paper_use_case
from repro.workloads.runner import run_original_scaled
from tests.oracle import assert_identical, assert_same, observed

finite = st.floats(-1e9, 1e9, allow_nan=False, width=64)


def _arange(r: range) -> np.ndarray:
    return np.arange(r.start, r.stop, r.step)


@st.composite
def lane_ranges(draw, n: int):
    """A range inside ``[0, n)``: empty, one element, strided or whole."""
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    return range(start, stop, draw(st.integers(1, 4)))


# ---------------------------------------------------------------------------
# the scatter helpers


@st.composite
def range_case(draw):
    """(out, ranks, values): values a scalar or one per position."""
    n = draw(st.integers(1, 24))
    r = draw(lane_ranges(n))
    out = np.asarray(draw(st.lists(finite, min_size=n, max_size=n)))
    if draw(st.booleans()):
        values = draw(finite)
    else:
        values = np.asarray(draw(st.lists(finite, min_size=len(r),
                                          max_size=len(r))))
    return out, r, values


class TestScatterRanges:
    @given(range_case())
    @settings(max_examples=200, deadline=None)
    def test_scatter_add_range_equals_arange(self, case):
        out, r, values = case
        ref = out.copy()
        scatter_add(ref, _arange(r), values)
        scatter_add(out, r, values)
        assert out.tobytes() == ref.tobytes()

    @given(range_case())
    @settings(max_examples=200, deadline=None)
    def test_scatter_max_range_equals_arange(self, case):
        out, r, values = case
        ref = out.copy()
        scatter_max(ref, _arange(r), values)
        scatter_max(out, r, values)
        assert out.tobytes() == ref.tobytes()

    @given(range_case(), st.integers(1, 6),
           st.sampled_from(["scalar", "uniform", "zero_stride", "mixed"]),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_scatter_add2_range_equals_arange(self, case, width, columns,
                                              data):
        rows1d, r, _ = case
        out = np.outer(rows1d, np.arange(1, width + 1)).astype(np.int64)
        col = data.draw(st.integers(0, width - 1))
        if columns == "scalar":
            cols = col
        elif columns == "uniform":
            cols = np.full(len(r), col)
        elif columns == "zero_stride":
            cols = np.broadcast_to(np.int64(col), (len(r),))
        else:
            cols = np.asarray(data.draw(st.lists(
                st.integers(0, width - 1), min_size=len(r),
                max_size=len(r))), dtype=np.int64)
        values = np.asarray(data.draw(st.lists(
            st.integers(0, 9), min_size=len(r), max_size=len(r))),
            dtype=np.int64)
        ref = out.copy()
        np.add.at(ref, (_arange(r), cols), values)
        scatter_add2(out, r, cols, values)
        assert out.tobytes() == ref.tobytes()

    def test_mixed_columns_add_pairs_not_the_outer_product(self):
        out = np.zeros((4, 3), dtype=np.int64)
        scatter_add2(out, range(0, 4, 2), np.array([0, 2]), 1)
        assert out.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]]

    def test_a_range_past_the_end_raises(self):
        with pytest.raises(IndexError):
            scatter_add(np.zeros(4), range(2, 6), 1.0)
        with pytest.raises(IndexError):
            scatter_max(np.zeros(4), range(0, 9, 2), np.zeros(5))

    def test_a_descending_range_is_not_a_lane(self):
        with pytest.raises(ValueError):
            scatter_add(np.zeros(4), range(3, 0, -1), 1.0)

    def test_rank_array_and_as_run(self):
        got = rank_array(range(3, 12, 4))
        assert got.dtype == np.int64 and got.tolist() == [3, 7, 11]
        assert as_run(np.array([5, 6, 7])) == range(5, 8)
        assert as_run(np.array([4])) == range(4, 5)
        for idx in ([5, 7], [5, 5, 6], [3, 2, 1, 0]):
            arr = np.array(idx)
            assert as_run(arr) is arr


# ---------------------------------------------------------------------------
# events: every subscriber folds a range event as its np.arange event

#: fs kinds Darshan folds plus the engine kinds the profile folds
_KINDS = ("write", "read", "fsync", "open", "create", "close", "stat",
          "memcpy", "compress", "shuffle", "collective_write",
          "meta_append")
#: the engine plane's kinds ride the ``engine`` layer
_ENGINE = frozenset({"memcpy", "compress", "shuffle"})


def _subscribers(nprocs, granularity, evict):
    node_map = BlockNodeMap(nprocs, 3)
    mon = DarshanMonitor(nprocs, granularity=granularity,
                         node_of_rank=node_map, evict_on_close=evict)
    profile = EngineProfile(nprocs, bin_of_rank=(
        node_map if granularity == "node" else None))
    bus = TraceBus()
    subs = (mon, ProfileFold(profile), LayerBreakdown(), EventRecorder(),
            DXTRecorder())
    for sub in subs:
        bus.subscribe(sub)
    bus.register_files(np.arange(3 * nprocs), [
        f"/file{i}" for i in range(3 * nprocs)])
    return bus, subs, profile


def _folds(subs, profile):
    """What each subscriber folded."""
    mon, _, breakdown, recorder, dxt = subs
    return (mon._evicted, mon.finalize(), profile, breakdown.totals(),
            recorder.events, dxt.render())


@st.composite
def lane_events(draw):
    """A run of events over ranges: (nprocs, granularity, evict, calls);
    each call is (kind, range, columns, inos)."""
    nprocs = draw(st.integers(1, 12))
    granularity = draw(st.sampled_from(["rank", "node"]))
    evict = draw(st.booleans())
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        r = draw(lane_ranges(nprocs))
        k = len(r)
        kind = draw(st.sampled_from(_KINDS))
        columns = {}
        for name, strategy in (
                ("nbytes", st.integers(0, 1 << 24)),
                ("duration", st.floats(1e-9, 10.0, allow_nan=False)),
                ("start", st.floats(0.0, 1e3, allow_nan=False)),
                ("n_ops", st.integers(1, 9))):
            if draw(st.booleans()):  # one value for every rank
                columns[name] = float(draw(strategy))
            else:
                columns[name] = np.asarray(draw(st.lists(
                    strategy, min_size=k, max_size=k)), dtype=np.float64)
        files = draw(st.sampled_from(["none", "shared", "run", "any"]))
        if files == "none" or kind in _ENGINE or k == 0:
            inos = None
        elif kind == "close" and evict:
            # each rank closes its own file, as close_group does (see
            # the note in test_batched_plane.rank_events)
            inos = np.asarray(draw(st.lists(
                st.integers(0, 3 * nprocs - 1), min_size=k, max_size=k,
                unique=True)), dtype=np.int64)
        elif files == "shared":
            inos = np.asarray([draw(st.integers(0, 3 * nprocs - 1))])
        elif files == "run":
            lo = draw(st.integers(0, 2 * nprocs))
            inos = np.arange(lo, lo + k)
        else:
            inos = np.asarray(draw(st.lists(
                st.integers(0, 3 * nprocs - 1), min_size=k, max_size=k)),
                dtype=np.int64)
        calls.append((kind, r, columns, inos))
    return nprocs, granularity, evict, calls


def _emit(bus, kind, ranks, columns, inos):
    layer = "engine" if kind in _ENGINE else "posix"
    bus.emit(kind, ranks, layer=layer, inos=inos, **columns)


class TestRangeEvents:
    @given(lane_events())
    @settings(max_examples=120, deadline=None)
    def test_range_event_equals_its_arange_event(self, case):
        """Lane side: a range with scalars left as scalars (0-stride
        views, one size bucket per event).  Reference: ``np.arange`` of
        the range with every scalar spelled out per rank."""
        nprocs, granularity, evict, calls = case
        bus_l, subs_l, prof_l = _subscribers(nprocs, granularity, evict)
        bus_a, subs_a, prof_a = _subscribers(nprocs, granularity, evict)
        for kind, r, columns, inos in calls:
            _emit(bus_l, kind, r, columns, inos)
            spelled = {name: np.full(len(r), value) if np.ndim(value) == 0
                       else value for name, value in columns.items()}
            _emit(bus_a, kind, _arange(r), spelled, inos)
        assert_identical(_folds(subs_l, prof_l), _folds(subs_a, prof_a))

    def test_ranks_are_built_only_when_read(self):
        bus = TraceBus()
        mon = bus.subscribe(DarshanMonitor(8))
        event = bus.emit("write", range(0, 8, 2), nbytes=10, duration=0.5)
        assert mon.total_bytes_written() == 40.0
        assert event.size == 4 and event.rank_range == range(0, 8, 2)
        with pytest.raises(AttributeError):
            object.__getattribute__(event, "ranks")  # never built
        assert event.ranks.tolist() == [0, 2, 4, 6]
        assert event.ranks is event.ranks  # built once


# ---------------------------------------------------------------------------
# group ops: a range call is the np.arange call, also under faults


def _stack(n, granularity, faults):
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(n, 3)
    mon = DarshanMonitor(n, granularity=granularity,
                         node_of_rank=comm.node_of_rank,
                         evict_on_close=True)
    posix = PosixIO(fs, comm, mon)
    profile = EngineProfile(n)
    subs = (mon, ProfileFold(profile), LayerBreakdown(), EventRecorder(),
            DXTRecorder())
    for sub in subs[1:]:
        posix.trace.subscribe(sub)
    injector = None
    if faults:
        posix.mkdir(0, "/probe")
        fd = posix.open(0, "/probe/f", create=True)
        ost = int(fs.vfs.cols.ost_start[posix.ino_of(fd)])
        posix.close(0, fd)
        n_osts = fs.system.num_osts
        plan = FaultPlan((OSTFault(ost, 1, 1),
                          OSTFault((ost + 1) % n_osts, 1, 2, bw_factor=0.5),
                          MDSSlowdown(1, 2, factor=4.0),
                          TransientError("write", step=1)))
        injector = install_faults(posix, plan, RetryPolicy(seed=0))
    return fs, comm, posix, subs, profile, injector


@st.composite
def group_programs(draw):
    n = draw(st.integers(1, 12))
    r = draw(lane_ranges(n).filter(lambda r: len(r) > 0))
    k = len(r)
    sizes = st.integers(0, 1 << 21)
    program = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(
            ["write", "read", "meta", "aggregate", "reopen"]))
        if op in ("write", "aggregate"):
            nbytes = (draw(sizes) if draw(st.booleans()) else np.asarray(
                draw(st.lists(sizes, min_size=k, max_size=k))))
            if op == "write":
                args = dict(
                    chunk_size=draw(st.sampled_from([None, 1 << 16,
                                                     1 << 20])),
                    sync_each_chunk=draw(st.booleans()),
                    truncate_first=draw(st.booleans()),
                    api=draw(st.sampled_from(["POSIX", "STDIO"])))
            else:
                args = {}
                if draw(st.booleans()):
                    args["overwrite_offset"] = draw(st.sampled_from(
                        [0, -1, 4096]))
                if draw(st.booleans()):
                    args["start_at"] = np.asarray(draw(st.lists(
                        st.floats(0.0, 10.0, allow_nan=False),
                        min_size=k, max_size=k)))
            program.append((op, nbytes, args))
        elif op == "read":
            program.append((op, draw(sizes) if draw(st.booleans())
                            else np.asarray(draw(st.lists(
                                sizes, min_size=k, max_size=k))),
                            dict(clients=draw(st.sampled_from([None, 64])))))
        elif op == "meta":
            n_ops = (draw(st.integers(1, 5)) if draw(st.booleans())
                     else np.asarray(draw(st.lists(st.integers(1, 5),
                                                   min_size=k,
                                                   max_size=k)),
                                     dtype=np.float64))
            program.append((op, n_ops, dict(
                op=draw(st.sampled_from(["open", "close", "stat"])))))
        else:
            program.append((op, None, {}))
    return n, r, program


def _run_program(posix, comm, ranks, program, injector):
    """Open per-rank files and a shared deck, run the program, close."""
    k = len(ranks)
    posix.mkdir(0, "/d", parents=True)
    fds = posix.open_group(ranks, [f"/d/f{i}" for i in range(k)])
    deck = posix.open(0, "/d/deck", create=True)
    posix.write(0, deck, b"x" * 3072)
    posix.close(0, deck)
    if injector is not None:
        injector.begin_step(1)
    for op, value, args in program:
        if op == "write":
            posix.write_group(ranks, fds, value, **args)
        elif op == "aggregate":
            posix.write_aggregate(ranks, fds, value, **args)
        elif op == "read":
            shared = posix.open_group(ranks, ["/d/deck"] * k, create=False)
            posix.read_group(ranks, shared, value, **args)
            posix.close_group(ranks, shared)
        elif op == "meta":
            posix.meta_group(ranks, args["op"], n_ops=value)
        else:
            posix.close_group(ranks, fds, api="STDIO")
            fds = posix.open_group(ranks, [f"/d/f{i}" for i in range(k)],
                                   create=False, append=True, api="STDIO")
        comm.barrier()
    if injector is not None:
        injector.begin_step(3)
    posix.close_group(ranks, fds)


class TestGroupOpsOverRanges:
    @given(group_programs(), st.sampled_from(["rank", "node"]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_range_call_equals_arange_call(self, case, granularity, faults):
        n, r, program = case
        runs = []
        for ranks in (r, _arange(r)):
            fs, comm, posix, subs, profile, injector = _stack(
                n, granularity, faults)
            posix.comm.trace = posix.trace  # barriers emit too
            _run_program(posix, comm, ranks, program, injector)
            runs.append((fs, comm, subs, profile))
        lane, reference = (
            (comm.clocks, _folds(subs, profile),
             [getattr(fs.vfs.cols, col) for col in (
                 "size", "write_ops", "bytes_written", "read_ops",
                 "bytes_read", "stripe_count", "stripe_size")])
            for fs, comm, subs, profile in runs)
        assert_identical(lane, reference)


# ---------------------------------------------------------------------------
# whole runs: every lane's reference at once (tests/oracle.py)


class TestOriginalRun:
    def test_original_run_matches_array_producers(self):
        run = partial(
            run_original_scaled, dardel(), 2, config=paper_use_case().with_(
                ncells=2048, last_step=60, datfile=10, dmpstep=20),
            ranks_per_node=8, trace_mode="full", fault_plan=FaultPlan(
                (MDSSlowdown(start_step=20, end_step=40, factor=3.0),
                 OSTFault(5, start_step=30, end_step=40, bw_factor=0.5))))
        (lane, census), (ref, _) = observed(run), observed(run, True)
        assert census["range_events"] > 0
        assert_same(lane, ref)

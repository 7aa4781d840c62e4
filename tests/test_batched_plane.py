"""Bit-identity of the batched data plane against its scalar reference.

The vectorised fast paths (scatter helpers, array-native collectives,
POSIX group ops, step-batch trace folds, the bincount deposition)
all promise the *same bits* as the element-at-a-time code they replace.
These properties pin that promise down, including under an active
:class:`~repro.faults.FaultPlan`.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import dardel
from repro.darshan.runtime import DarshanMonitor
from repro.faults import (
    FaultPlan,
    InjectedIOError,
    MDSSlowdown,
    OSTFault,
    RetryPolicy,
    TransientError,
    install_faults,
    uninstall_faults,
)
from repro.faults.injector import FaultState
from repro.fs import PosixIO, SyntheticPayload, mount
from repro.mpi import VirtualComm
from repro.mpi.comm import BlockNodeMap
from repro.pic.deposit import deposit_density
from repro.pic.grid import Grid1D
from repro.pic.species import ParticleArrays
from repro.trace.bus import TraceBus
from repro.trace.events import EVENT_KINDS, StepBatch, StepRow, make_event
from repro.trace.session import TraceSession
from repro.trace.subscribers import EventRecorder
from repro.util.scatter import scatter_add, scatter_add2, scatter_max
from tests.oracle import (
    assert_identical,
    assert_same,
    assert_same_accounting,
    observed,
)

finite = st.floats(-1e9, 1e9, allow_nan=False, width=64)


@st.composite
def scatter_case(draw):
    """(out, idx, values) covering every scatter fast path by shape."""
    n_out = draw(st.integers(1, 24))
    pattern = draw(st.sampled_from(
        ["random", "sorted_unique", "run", "full", "single"]))
    if pattern == "random":
        idx = np.asarray(draw(st.lists(st.integers(0, n_out - 1),
                                       min_size=0, max_size=40)),
                         dtype=np.int64)
    elif pattern == "sorted_unique":
        idx = np.asarray(sorted(draw(st.sets(st.integers(0, n_out - 1),
                                             min_size=1))), dtype=np.int64)
    elif pattern == "run":
        lo = draw(st.integers(0, n_out - 1))
        idx = lo + np.arange(draw(st.integers(1, n_out - lo)))
    elif pattern == "full":
        idx = np.arange(n_out)
    else:
        idx = np.asarray([draw(st.integers(0, n_out - 1))], dtype=np.int64)
    out = np.asarray(draw(st.lists(finite, min_size=n_out, max_size=n_out)))
    values = np.asarray(draw(st.lists(finite, min_size=len(idx),
                                      max_size=len(idx))))
    return out, idx, values


class TestScatterProperties:
    @given(scatter_case())
    @settings(max_examples=200, deadline=None)
    def test_scatter_add_matches_add_at(self, case):
        out, idx, values = case
        ref = out.copy()
        np.add.at(ref, idx, values)
        scatter_add(out, idx, values)
        assert np.array_equal(out, ref)

    @given(scatter_case())
    @settings(max_examples=200, deadline=None)
    def test_scatter_max_matches_maximum_at(self, case):
        out, idx, values = case
        ref = out.copy()
        np.maximum.at(ref, idx, values)
        scatter_max(out, idx, values)
        assert np.array_equal(out, ref)

    @given(scatter_case(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_scatter_add2_matches_add_at(self, case, width):
        rows1d, rows, values = case
        out = np.outer(rows1d, np.ones(width))
        cols = np.abs(values).astype(np.int64) % width
        ref = out.copy()
        np.add.at(ref, (rows, cols), values)
        scatter_add2(out, rows, cols, values)
        assert np.array_equal(out, ref)


class TestCollectiveProperties:
    """Array-native collectives == per-column scalar collectives."""

    @given(st.integers(1, 40), st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_allreduce_sum_matrix(self, size, k, data):
        rows = data.draw(st.lists(
            st.lists(finite, min_size=k, max_size=k),
            min_size=size, max_size=size))
        arr = np.asarray(rows)
        vec = VirtualComm(size, 2).allreduce_sum(arr)
        comm = VirtualComm(size, 2)
        cols = np.asarray([comm.allreduce_sum(arr[:, j]) for j in range(k)])
        assert np.array_equal(vec, cols)

    @given(st.integers(1, 40), st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_allreduce_max_matrix(self, size, k, data):
        rows = data.draw(st.lists(
            st.lists(finite, min_size=k, max_size=k),
            min_size=size, max_size=size))
        arr = np.asarray(rows)
        vec = VirtualComm(size, 2).allreduce_max(arr)
        comm = VirtualComm(size, 2)
        cols = np.asarray([comm.allreduce_max(arr[:, j]) for j in range(k)])
        assert np.array_equal(vec, cols)

    @given(st.integers(1, 40), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scans_match_columns(self, size, k, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1 << 40), min_size=k, max_size=k),
            min_size=size, max_size=size))
        arr = np.asarray(rows, dtype=np.int64)
        comm = VirtualComm(size, 2)
        ex = comm.exscan_sum(arr)
        inc = comm.scan_sum(arr)
        for j in range(k):
            assert np.array_equal(ex[:, j], comm.exscan_sum(arr[:, j]))
            assert np.array_equal(inc[:, j], comm.scan_sum(arr[:, j]))


class TestBcastAliasing:
    def test_nonroot_copies_do_not_alias(self):
        comm = VirtualComm(4, 2)
        value = {"deck": [1, 2, 3]}
        got = comm.bcast(value, root=1)
        assert got[1] is value  # the root keeps its own object
        got[0]["deck"].append(99)  # a rank mutating its private copy...
        assert got[2]["deck"] == [1, 2, 3]  # ...cannot leak to another
        assert value["deck"] == [1, 2, 3]  # ...nor back to the root
        assert all(g == {"deck": [1, 2, 3]} for g in got[1:])

    def test_array_payloads_are_private(self):
        comm = VirtualComm(3, 3)
        arr = np.arange(5)
        got = comm.bcast(arr)
        got[1][0] = -1
        assert got[0][0] == 0 and got[2][0] == 0


class TestDepositBincount:
    @given(st.integers(0, 400), st.integers(4, 64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_add_at_reference(self, nparts, ncells, data):
        grid = Grid1D(ncells, 2.0)
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, grid.length, nparts)
        w = rng.uniform(0.1, 5.0, nparts)
        parts = ParticleArrays("e", 1.0, -1.0)
        parts.add(x, np.zeros(nparts), np.zeros(nparts), np.zeros(nparts), w)
        # the classic two-call CIC deposition the bincount replaced
        xi = parts.positions() / grid.dx
        left = np.clip(np.floor(xi).astype(np.int64), 0, grid.ncells - 1)
        frac = xi - left
        ref = np.zeros(grid.nnodes)
        np.add.at(ref, left, parts.weights() * (1.0 - frac))
        np.add.at(ref, left + 1, parts.weights() * frac)
        volume = np.full(grid.nnodes, grid.dx)
        volume[0] = volume[-1] = grid.dx / 2.0
        ref /= volume
        assert np.array_equal(deposit_density(grid, parts), ref)


def _stack(nranks):
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(nranks, max(nranks // 2, 1))
    mon = DarshanMonitor(nranks)
    posix = PosixIO(fs, comm, mon)
    return fs, comm, mon, posix


def _scalar_reference(posix, nranks, sizes, sync):
    for r in range(nranks):
        fd = posix.open(r, f"/f{r}", create=True)
        posix.write(r, fd, SyntheticPayload(int(sizes[r])),
                    sync_each_chunk=sync, chunk_size=int(sizes[r]) or None)
        posix.close(r, fd)


def _grouped(posix, nranks, sizes, sync):
    ranks = np.arange(nranks)
    fds = posix.open_group(ranks, [f"/f{r}" for r in range(nranks)])
    posix.write_group(ranks, fds, sizes, sync_each_chunk=sync)
    posix.close_group(ranks, fds)


class TestGroupOpsMatchScalar:
    @given(st.integers(1, 12), st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_accounting_identical(self, nranks, sync, data):
        sizes = np.asarray(data.draw(st.lists(st.integers(1, 1 << 20),
                                              min_size=nranks,
                                              max_size=nranks)))
        fs_a, _, mon_a, posix_a = _stack(nranks)
        fs_b, _, mon_b, posix_b = _stack(nranks)
        _scalar_reference(posix_a, nranks, sizes, sync)
        _grouped(posix_b, nranks, sizes, sync)
        assert_same_accounting(mon_a.finalize(), mon_b.finalize(), fs_a,
                               fs_b, [f"/f{r}" for r in range(nranks)])

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=15, deadline=None)
    def test_accounting_identical_under_faults(self, nranks, data):
        """A degrading (non-raising) fault leaves both shapes in lockstep."""
        sizes = np.asarray(data.draw(st.lists(st.integers(1, 1 << 16),
                                              min_size=nranks,
                                              max_size=nranks)))
        plan = FaultPlan((MDSSlowdown(start_step=1, end_step=9, factor=7.0),
                          OSTFault(3, start_step=1, end_step=9)))
        stacks = []
        for _ in range(2):
            fs, _, mon, posix = _stack(nranks)
            install_faults(posix, plan).begin_step(1)
            stacks.append((fs, mon, posix))
        _scalar_reference(stacks[0][2], nranks, sizes, sync=True)
        _grouped(stacks[1][2], nranks, sizes, sync=True)
        assert_same_accounting(stacks[0][1].finalize(),
                               stacks[1][1].finalize(), stacks[0][0],
                               stacks[1][0], [f"/f{r}" for r in range(nranks)])

    def test_raising_fault_fires_on_both_paths(self):
        plan = FaultPlan((TransientError("write", step=1),))
        for shape in (_scalar_reference, _grouped):
            fs, _, _, posix = _stack(4)
            install_faults(posix, plan).begin_step(1)
            with pytest.raises(InjectedIOError):
                shape(posix, 4, np.full(4, 1024), False)


#: every kind Darshan folds that the spine can carry
_FOLD_KINDS = sorted(DarshanMonitor.kinds & EVENT_KINDS)


@st.composite
def rank_events(draw):
    """(monitor factory, events): multi-rank fs events, ranks possibly
    repeated, over eight files that several ranks may share."""
    nprocs = draw(st.integers(1, 8))
    node_map = draw(st.sampled_from([None, "array", "lazy"]))
    per_node = draw(st.integers(1, 4))
    evict = draw(st.booleans())

    def monitor():
        if node_map is None:
            mon = DarshanMonitor(nprocs, evict_on_close=evict)
        else:
            nmap = (BlockNodeMap(nprocs, per_node) if node_map == "lazy"
                    else np.arange(nprocs) // per_node)
            mon = DarshanMonitor(nprocs, granularity="node",
                                 node_of_rank=nmap, evict_on_close=evict)
        for ino in range(8):
            mon.register_file(ino, f"/file{ino}")
        return mon

    events = []
    for seq in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(_FOLD_KINDS))
        api = draw(st.sampled_from(["POSIX", "STDIO"]))
        k = draw(st.integers(1, 6))
        ranks = draw(st.lists(st.integers(0, nprocs - 1), min_size=k,
                              max_size=k))
        files = draw(st.sampled_from(["none", "shared", "per_rank"]))
        if files == "none":
            inos = None
        elif kind == "close" and evict:
            # eviction runs once per close event, so a file closed by
            # several ranks in one event adds its live time to the
            # evicted partial in one sum where per-rank closes add it
            # rank by rank; the floats associate differently.  Each
            # rank closes its own file here, as close_group does.
            inos = draw(st.lists(st.integers(0, 7), min_size=k,
                                 max_size=k, unique=True))
        elif files == "shared":
            inos = [draw(st.integers(0, 7))]
        else:
            inos = draw(st.lists(st.integers(0, 2), min_size=k,
                                 max_size=k))
        column = (lambda strategy: np.asarray(
            draw(st.lists(strategy, min_size=k, max_size=k)),
            dtype=np.float64))
        events.append(make_event(
            kind, np.asarray(ranks),
            nbytes=column(st.integers(0, 1 << 24)),
            duration=column(st.floats(1e-9, 10.0, allow_nan=False)),
            start=column(st.floats(0.0, 1e3, allow_nan=False)),
            n_ops=column(st.integers(1, 9)), api=api,
            layer="stdio" if api == "STDIO" else "posix",
            inos=None if inos is None else np.asarray(inos), seq=seq))
    return monitor, events


def _single_rank_fields(event):
    """The event's per-rank single-rank events, in rank order, as the
    scalars the scalar lane carries."""
    for i in range(event.size):
        ino = None
        if event.inos is not None:
            ino = int(event.inos[0 if event.inos.size == 1 else i])
        yield (int(event.ranks[i]), float(event.nbytes[i]),
               float(event.duration[i]), float(event.start[i]),
               float(event.n_ops[i]), ino)


class TestBatchedTraceFold:
    @given(rank_events())
    @settings(max_examples=80, deadline=None)
    def test_multi_rank_event_equals_its_single_rank_events(self, case):
        """The array fold of a multi-rank event is bit-identical to the
        scalar fold of its single-rank events in rank order."""
        monitor, events = case
        mon_array, mon_scalar = monitor(), monitor()
        for event in events:
            mon_array.on_event(event)
            for rank, nbytes, dur, start, n_ops, ino in \
                    _single_rank_fields(event):
                mon_scalar.on_scalar(event.kind, event.layer, event.api,
                                     rank, nbytes, dur, start, n_ops, ino)
        # evict_on_close sheds the same live rows at the same closes
        assert mon_array._evicted == mon_scalar._evicted
        assert_identical(mon_array.finalize(), mon_scalar.finalize())

    @given(rank_events())
    @settings(max_examples=40, deadline=None)
    def test_emit_scalar_matches_emit_of_one_rank(self, case):
        """Through the bus: subscribers with and without ``on_scalar``
        see the same folds and the same events on both lanes."""
        monitor, events = case
        buses = []
        for _ in range(2):
            bus = TraceBus()
            mon = bus.subscribe(monitor())
            rec = bus.subscribe(EventRecorder())
            buses.append((bus, mon, rec))
        (array_bus, mon_a, rec_a), (lane_bus, mon_s, rec_s) = buses
        for event in events:
            for rank, nbytes, dur, start, n_ops, ino in \
                    _single_rank_fields(event):
                common = dict(nbytes=nbytes, duration=dur, start=start,
                              n_ops=n_ops, api=event.api, layer=event.layer)
                array_bus.emit(event.kind, np.array([rank]), **common,
                               inos=None if ino is None else [ino])
                lane_bus.emit_scalar(event.kind, rank, **common, ino=ino)
        assert_identical((rec_a.events, mon_a.finalize()),
                         (rec_s.events, mon_s.finalize()))


    @given(rank_events(), st.integers(1, 4), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_step_batch_equals_its_events(self, case, nsteps, one_batch,
                                          data):
        """Events as the rows of step batches of ``nsteps`` steps fold
        as the events the batches stand for: each event a batch of its
        own, or all of them the rows of one.  A one-rank event's row
        may name its rank as an int, the one-rank row form."""
        monitor, events = case
        mon_events, mon_steps = monitor(), monitor()
        for run in [events] if one_batch else [[e] for e in events]:
            for _ in range(nsteps):
                for e in run:
                    mon_events.on_event(e)
            rows = []
            for e in run:
                varying = data.draw(st.booleans())
                fields = (e.ranks, e.nbytes, e.duration, e.n_ops, e.inos)
                if e.size == 1 and (e.inos is None or e.inos.size == 1) \
                        and data.draw(st.booleans()):
                    fields = [None if f is None else f.item() for f in fields]
                ranks, nbytes, duration, n_ops, inos = fields
                rows.append(StepRow(
                    e.kind, e.layer, e.api, None, ranks, nbytes,
                    [duration] * nsteps if varying else duration, varying,
                    n_ops, inos))
            mon_steps.on_steps(StepBatch(tuple(rows), (None,) * nsteps))
        assert_identical(mon_events.finalize(), mon_steps.finalize())


def _every_single_op(posix, fs, rank):
    """Each single-rank PosixIO op, with a fault plan installed and then
    removed mid-sequence; ``rank(r)`` gives the rank argument."""
    r0, r1 = rank(0), rank(3)
    posix.mkdir(r0, "/d")
    fd_a = posix.open(r0, "/d/a", create=True)
    fd_b = posix.open(r1, "/d/b", create=True)
    posix.write(r0, fd_a, b"x" * 5000)
    n_osts = fs.system.num_osts
    ost = int(fs.vfs.cols.ost_start[fs.vfs.lookup("/d/a")])
    plan = FaultPlan((OSTFault(ost, 1, 1),
                      OSTFault((ost + 1) % n_osts, 1, 2, bw_factor=0.5),
                      MDSSlowdown(1, 2, factor=4.0),
                      TransientError("read", step=1)))
    injector = install_faults(posix, plan, RetryPolicy(seed=0))
    injector.begin_step(1)  # outage, slow OST, slow MDS
    # hits the dead OST: fault, retry, failover, then the chunked write
    posix.write(r0, fd_a, b"y" * 3000, chunk_size=1024, sync_each_chunk=True)
    fd_c = posix.open(r1, "/d/a")
    posix.stat(r1, "/d/a")
    posix.read(r1, fd_c, 4000, offset=0)  # a transient EIO, retried
    posix.read_scheduled(r0, fd_a, 2048, start_at=1.5)
    posix.read_synthetic(r1, fd_c, 8 << 20)
    posix.write_scheduled(r1, fd_b, SyntheticPayload(1 << 20), start_at=2.0,
                          chunk_size=1 << 19, sync_each_chunk=True)
    injector.begin_step(2)  # outage over; slow OST and MDS remain
    posix.fsync(r0, fd_a)
    posix.write(r1, fd_b, SyntheticPayload(3 << 20))
    posix.read(r0, fd_a, 100, offset=10)
    uninstall_faults(posix)
    posix.fsync(r1, fd_b)
    posix.read_synthetic(r0, fd_a, 4096)
    posix.write(r0, fd_a, b"z" * 10, api="STDIO")
    for r, fd in ((r0, fd_a), (r1, fd_b), (r1, fd_c)):
        posix.close(r, fd)
    posix.unlink(r0, "/d/b")


class TestScalarLane:
    """Single-rank ops through posix, perf model, bus and Darshan give
    the same bits as the array path they bypass."""

    @pytest.mark.parametrize("granularity", ["rank", "node"])
    @pytest.mark.parametrize("evict", [False, True])
    def test_posix_ops_match_one_element_rank_arrays(self, granularity,
                                                     evict):
        def run(rank=int):
            fs = mount(dardel().storage_named("lfs"))
            comm = VirtualComm(4, 2)
            mon = DarshanMonitor(4, granularity=granularity,
                                 node_of_rank=comm.node_of_rank,
                                 evict_on_close=evict)
            session = TraceSession(comm, monitor=mon, mode="full")
            _every_single_op(PosixIO(fs, comm, trace=session.bus), fs, rank)
            return SimpleNamespace(log=mon.finalize(), trace=session)

        (lane, census), (ref, _) = observed(run), observed(run, True)
        kinds = {e.kind for e in lane.result.trace.events}
        assert {"mkdir", "create", "open", "stat", "read", "write", "fsync",
                "close", "unlink", "fault", "retry", "failover"} <= kinds
        assert census["scalar_emits"] > 20
        assert_same(lane, ref)
        # the ops' own array path: a one-element rank array into every op
        # (descriptor allocation, the fault guard and its events)
        arrays, _ = observed(partial(run, lambda r: np.array([r])), True)
        assert_same(lane, arrays)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_costs_match_array_path_as_fault_state_changes(self, data):
        """The memo never serves a factor from another fault state."""
        perf = mount(dardel().storage_named("lfs")).perf
        array = (lambda x: np.asarray(x, dtype=np.float64))
        for _ in range(data.draw(st.integers(1, 10))):
            perf.fault_state = data.draw(st.one_of(st.none(), st.builds(
                FaultState, bw_factor=st.floats(0.0, 1.0),
                mds_factor=st.floats(1.0, 20.0))))
            nbytes = data.draw(st.integers(0, 1 << 34))
            # few phase contexts, so the memo is hit across fault states
            clients = data.draw(st.sampled_from([1, 16, 256, 25600, 2.5]))
            stripes = data.draw(st.sampled_from([1, 4, 48]))
            stripe_size = data.draw(st.sampled_from(
                [None, 1 << 16, 1 << 20, 16 << 20]))
            n_ops = data.draw(st.sampled_from([1, 3, 2.0, 1024]))
            pairs = [
                (perf.read_op_cost(nbytes, clients, stripes, n_ops),
                 perf.read_op_cost(array(nbytes), clients, stripes, n_ops)),
                (perf.write_op_cost(nbytes, clients, stripes, stripe_size,
                                    n_ops),
                 perf.write_op_cost(array(nbytes), clients, stripes,
                                    stripe_size, n_ops)),
                (perf.fsync_cost(clients, stripes, n_ops),
                 perf.fsync_cost(array(clients), stripes, n_ops)),
                (perf.metadata_op_cost(clients, n_ops),
                 perf.metadata_op_cost(array(clients), n_ops)),
            ]
            for lane, reference in pairs:
                assert type(lane) is float
                assert lane.hex() == float(reference).hex()

    @pytest.mark.parametrize("fault", [None, (0.37, 3.0)])
    def test_byte_terms_match_array_path_elementwise(self, fault):
        """Many sizes per phase context against one array-path call: an
        operation-order change in the byte terms shifts some of them."""
        perf = mount(dardel().storage_named("lfs")).perf
        if fault is not None:
            perf.fault_state = FaultState(bw_factor=fault[0],
                                          mds_factor=fault[1])
        rng = np.random.default_rng(0)
        sizes = np.unique(np.exp2(rng.uniform(0.0, 36.0, 4000)).astype(
            np.int64))
        for clients in (1, 16, 25600):
            for stripe_size in (None, 1 << 16, 16 << 20):
                for n_ops in (1, 7):
                    reads = perf.read_op_cost(sizes, clients, 4, n_ops)
                    writes = perf.write_op_cost(sizes, clients, 4,
                                                stripe_size, n_ops)
                    for i, n in enumerate(sizes.tolist()):
                        assert perf.read_op_cost(n, clients, 4, n_ops) \
                            == reads[i], (n, clients)
                        assert perf.write_op_cost(n, clients, 4, stripe_size,
                                                  n_ops) == writes[i], \
                            (n, clients, stripe_size)

    def test_memo_is_bounded(self):
        perf = mount(dardel().storage_named("lfs")).perf
        for clients in range(1, 3 * perf.MEMO_SIZE):
            perf.read_op_cost(1 << 20, clients)
            perf.metadata_op_cost(clients)
            assert len(perf._memo) <= perf.MEMO_SIZE

    @pytest.mark.parametrize("subscriber", [None, "darshan", "recorder"])
    def test_unknown_kind_raises(self, subscriber):
        bus = TraceBus()
        if subscriber == "darshan":
            bus.subscribe(DarshanMonitor(2))
        elif subscriber == "recorder":
            bus.subscribe(EventRecorder())
        with pytest.raises(ValueError, match="unknown trace event kind"):
            bus.emit_scalar("bogus", 0, nbytes=1, duration=1.0)
        assert bus.seq == 0

"""Tests for the SST streaming engine (the paper's future-work item)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adios2 import (
    SSTEngine,
    SSTReader,
    StagingBackpressure,
    StreamRegistry,
    open_streams,
    reset_streams,
)
from repro.cluster.presets import dardel
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm


@pytest.fixture(autouse=True)
def clean_registry():
    reset_streams()
    yield
    reset_streams()


@pytest.fixture
def env():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    return fs, comm, PosixIO(fs, comm)


class TestStreaming:
    def test_producer_consumer_roundtrip(self, env):
        fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/diag.sst")
        reader = SSTReader("diag", comm)
        eng.begin_step()
        for r in range(4):
            eng.put("/n_e", "double", (16,), r, (r * 4,), (4,),
                    np.full(4, float(r)))
        eng.end_step()
        step = reader.begin_step()
        assert step.step == 0
        ne = reader.get(step, "/n_e")
        assert np.array_equal(ne, np.repeat(np.arange(4.0), 4))

    def test_no_files_touched(self, env):
        fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/x.sst")
        eng.begin_step()
        eng.put("/v", "double", (4,), 0, (0,), (4,), np.zeros(4))
        eng.end_step()
        eng.close()
        # in-situ: the stream never lands on the filesystem
        assert fs.vfs.nfiles == 0

    def test_multiple_steps_in_order(self, env):
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/s.sst", queue_depth=10)
        reader = SSTReader("s")
        for i in range(3):
            eng.begin_step()
            eng.put("/v", "double", (1,), 0, (0,), (1,),
                    np.array([float(i)]))
            eng.end_step()
        got = [reader.get(reader.begin_step(), "/v")[0] for _ in range(3)]
        assert got == [0.0, 1.0, 2.0]

    def test_queue_depth_discards_oldest(self, env):
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/q.sst", queue_depth=2)
        for i in range(5):
            eng.begin_step()
            eng.put("/v", "double", (1,), 0, (0,), (1,),
                    np.array([float(i)]))
            eng.end_step()
        assert eng.stream.dropped == 3
        reader = SSTReader("q")
        first = reader.begin_step()
        assert reader.get(first, "/v")[0] == 3.0  # oldest surviving step

    def test_reader_sees_close(self, env):
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/c.sst")
        eng.begin_step()
        eng.end_step()
        eng.close()
        reader = SSTReader("c")
        assert reader.begin_step() is not None
        assert reader.begin_step() is None  # producer gone, queue drained

    def test_abandoned_producer_ends_its_stream(self, env):
        # a crashed producer's contact file disappears: readers drain
        # what it published, then see end of stream, and a restarted
        # producer may take the name
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/crash.sst")
        reader = SSTReader("crash")
        eng.begin_step()
        eng.end_step()
        eng.abandon()
        assert "crash" not in open_streams()
        assert reader.begin_step().step == 0
        assert reader.begin_step() is None
        again = SSTEngine(posix, comm, "/run/crash.sst")
        assert open_streams() == ["crash"]
        again.close()

    def test_reader_blocks_while_producer_active(self, env):
        _fs, comm, posix = env
        SSTEngine(posix, comm, "/run/b.sst")
        reader = SSTReader("b")
        with pytest.raises(BlockingIOError):
            reader.begin_step()

    def test_attach_to_unknown_stream(self, env):
        with pytest.raises(ConnectionError):
            SSTReader("ghost")

    def test_duplicate_producer_rejected(self, env):
        _fs, comm, posix = env
        SSTEngine(posix, comm, "/run/d.sst")
        with pytest.raises(RuntimeError):
            SSTEngine(posix, comm, "/run/d.sst")

    def test_open_streams_listing(self, env):
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/adv.sst")
        assert "adv" in open_streams()
        eng.close()
        assert "adv" not in open_streams()

    def test_read_mode_rejected(self, env):
        _fs, comm, posix = env
        with pytest.raises(ValueError):
            SSTEngine(posix, comm, "/run/r.sst", mode="r")

    def test_network_cost_charged(self, env):
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/n.sst")
        before = comm.clocks.copy()
        eng.begin_step()
        eng.put("/v", "double", (1_000_000,), 0, (0,), (1_000_000,),
                np.zeros(1_000_000))
        eng.end_step()
        assert comm.clocks[0] > before[0]

    def test_put_group_synthetic(self, env):
        _fs, comm, posix = env
        eng = SSTEngine(posix, comm, "/run/g.sst")
        eng.begin_step()
        eng.put_group("/bulk", np.arange(4), 1000)
        data = eng.end_step()
        assert data.total_bytes == 4000
        reader = SSTReader("g")
        step = reader.begin_step()
        with pytest.raises(NotImplementedError):
            reader.get(step, "/bulk")  # synthetic chunks carry no data


@pytest.mark.streaming
class TestRegistryScoping:
    """Streams are scoped to a registry, not the process (regression:
    the registry used to be a process-global dict, so concurrent runs
    producing the same stream name collided)."""

    def test_scoped_registries_do_not_collide(self, env):
        _fs, comm, posix = env
        r1, r2 = StreamRegistry(), StreamRegistry()
        e1 = SSTEngine(posix, comm, "/run/same.sst", registry=r1)
        e2 = SSTEngine(posix, comm, "/run/same.sst", registry=r2)
        assert r1.open_streams() == ["same"]
        assert r2.open_streams() == ["same"]
        assert open_streams() == []  # default registry untouched
        e1.close()
        e2.close()

    def test_reader_resolves_in_its_registry_only(self, env):
        _fs, comm, posix = env
        registry = StreamRegistry()
        SSTEngine(posix, comm, "/run/scoped.sst", registry=registry)
        assert SSTReader("scoped", registry=registry) is not None
        with pytest.raises(ConnectionError):
            SSTReader("scoped")  # not advertised process-wide

    def test_duplicate_producer_still_rejected_within_registry(self, env):
        _fs, comm, posix = env
        registry = StreamRegistry()
        SSTEngine(posix, comm, "/run/dup.sst", registry=registry)
        with pytest.raises(RuntimeError):
            SSTEngine(posix, comm, "/run/dup.sst", registry=registry)

    def test_closed_stream_name_reusable(self, env):
        _fs, comm, posix = env
        registry = StreamRegistry()
        SSTEngine(posix, comm, "/run/re.sst", registry=registry).close()
        again = SSTEngine(posix, comm, "/run/re.sst", registry=registry)
        assert registry.open_streams() == ["re"]
        again.close()


@pytest.mark.streaming
class TestMultiConsumerProperty:
    """Property test for the SST fan-out semantics: under any
    interleaving of publishes and per-consumer drains, every consumer
    observes every *surviving* step exactly once, in publish order."""

    @given(
        n_consumers=st.integers(min_value=1, max_value=3),
        queue_depth=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(["discard", "block"]),
        actions=st.lists(
            st.one_of(st.just("publish"),
                      st.tuples(st.just("drain"),
                                st.integers(min_value=0, max_value=2))),
            max_size=40),
    )
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exactly_once_in_publish_order(self, n_consumers, queue_depth,
                                           policy, actions):
        comm = VirtualComm(1, 1)
        registry = StreamRegistry()
        eng = SSTEngine(None, comm, "prop.sst", queue_depth=queue_depth,
                        policy=policy, registry=registry)
        readers = [SSTReader("prop", registry=registry)
                   for _ in range(n_consumers)]
        seen: list[list[int]] = [[] for _ in range(n_consumers)]
        published = 0

        def drain(i: int) -> bool:
            try:
                data = readers[i].begin_step()
            except BlockingIOError:
                return False
            if data is None:
                return False
            seen[i].append(data.step)
            return True

        for action in actions:
            if action == "publish":
                eng.begin_step()
                eng.put("/v", "double", (1,), 0, (0,), (1,),
                        np.array([float(published)]))
                while True:
                    try:
                        eng.end_step()
                        published += 1
                        break
                    except StagingBackpressure:
                        # block policy: drain the laggard consumer, as
                        # the staging transport does to free a slot
                        laggard = min(
                            range(n_consumers),
                            key=lambda j: readers[j].stream.cursors[
                                readers[j]._cid])
                        assert drain(laggard)
            else:
                drain(action[1] % n_consumers)
        eng.close()
        for i in range(n_consumers):
            while drain(i):
                pass

        for s in seen:
            assert s == sorted(s), "steps observed out of publish order"
            assert len(s) == len(set(s)), "a step was delivered twice"
            assert all(0 <= step < published for step in s)
            if published:
                # the final step survives every policy (nothing was
                # published after it to force it out)
                assert s[-1] == published - 1
        if policy == "block":
            assert eng.stream.dropped == 0
            for s in seen:
                assert s == list(range(published))

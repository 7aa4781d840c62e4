"""Tests for the Darshan monitoring stack (runtime, log, parser, report)."""

import gzip
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import dardel
from repro.darshan import (
    DarshanLog,
    DarshanMonitor,
    FileRecord,
    FileTable,
    agg_perf_by_slowest,
    avg_seconds_per_write,
    cost_split,
    file_stats_from_sizes,
    job_summary,
    parse_totals,
    render,
    render_totals,
    write_throughput,
    write_throughput_gib,
)
from repro.darshan.counters import size_bucket_index
from repro.darshan.parser import render_file_records
from repro.fs import PosixIO, SyntheticPayload, mount
from repro.mpi import VirtualComm
from repro.trace import TraceBus
from repro.trace.events import make_event
from repro.util.units import GiB, KiB, MiB


@pytest.fixture
def monitored():
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    mon = DarshanMonitor(4, jobid=99, exe="test")
    posix = PosixIO(fs, comm, mon)
    return fs, comm, mon, posix


def _on_bus(nprocs):
    """A Darshan monitor subscribed to a fresh spine: (monitor, bus)."""
    mon = DarshanMonitor(nprocs)
    bus = TraceBus()
    bus.subscribe(mon)
    return mon, bus


class TestCounters:
    def test_size_buckets(self):
        idx = size_bucket_index(np.array([50, 500, 5000, 5 * MiB, 2 * GiB]))
        assert list(idx) == [0, 1, 2, 6, 9]

    def test_record_counts_and_bytes(self, monitored):
        _fs, _comm, mon, posix = monitored
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, SyntheticPayload(1000))
        posix.write(0, fd, SyntheticPayload(2000))
        posix.fsync(0, fd)
        posix.close(0, fd)
        log = mon.finalize()
        assert log.counter_total("POSIX_OPENS") == 1
        assert log.counter_total("POSIX_WRITES") == 2
        assert log.counter_total("POSIX_FSYNCS") == 1
        assert log.counter_total("POSIX_CLOSES") == 1
        assert log.counter_total("POSIX_BYTES_WRITTEN") == 3000

    def test_fsync_time_lands_in_meta(self, monitored):
        # the accounting subtlety behind Fig. 5
        _fs, _comm, mon, posix = monitored
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, SyntheticPayload(8192), sync_each_chunk=True,
                    chunk_size=8192)
        posix.close(0, fd)
        log = mon.finalize()
        meta = log.counter_total("POSIX_F_META_TIME")
        write = log.counter_total("POSIX_F_WRITE_TIME")
        assert meta > write  # fsync dwarfs the write RPC

    def test_stdio_module_separate(self, monitored):
        _fs, _comm, mon, posix = monitored
        fd = posix.open(0, "/f", create=True, api="STDIO")
        posix.write(0, fd, SyntheticPayload(100), api="STDIO")
        posix.close(0, fd)
        log = mon.finalize()
        assert log.counter_total("STDIO_WRITES") == 1
        assert log.counter_total("POSIX_WRITES") == 0

    def test_per_rank_attribution(self, monitored):
        _fs, _comm, mon, posix = monitored
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/r{i}" for i in range(4)])
        posix.write_group(ranks, fds, np.array([100, 200, 300, 400]))
        posix.close_group(ranks, fds)
        log = mon.finalize()
        per_rank = log.counter_per_rank("POSIX_BYTES_WRITTEN")
        assert list(per_rank) == [100, 200, 300, 400]

    def test_file_records(self, monitored):
        _fs, _comm, mon, posix = monitored
        fd = posix.open(0, "/data.0", create=True)
        posix.write(0, fd, SyntheticPayload(12345))
        posix.close(0, fd)
        log = mon.finalize()
        rec = next(r for r in log.files if r.path == "/data.0")
        assert rec.bytes_written == 12345
        assert rec.writes == 1
        assert rec.opens == 1

    def test_post_finalize_records_ignored(self, monitored):
        _fs, _comm, mon, posix = monitored
        fd = posix.open(0, "/f", create=True)
        log = mon.finalize()
        before = log.counter_total("POSIX_WRITES")
        posix.write(0, fd, SyntheticPayload(10))  # not recorded
        assert mon.finalize().counter_total("POSIX_WRITES") == before

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            DarshanMonitor(0)


class TestLogSerialization:
    def test_save_load_roundtrip(self, monitored, tmp_path):
        _fs, _comm, mon, posix = monitored
        fd = posix.open(2, "/f", create=True)
        posix.write(2, fd, SyntheticPayload(777))
        posix.close(2, fd)
        log = mon.finalize(machine="Dardel", config="unit")
        path = tmp_path / "job.darshan.json.gz"
        log.save(path)
        loaded = DarshanLog.load(path)
        assert loaded.machine == "Dardel"
        assert loaded.total_bytes_written() == log.total_bytes_written()
        assert np.array_equal(
            loaded.counter_per_rank("POSIX_F_WRITE_TIME"),
            log.counter_per_rank("POSIX_F_WRITE_TIME"))
        assert loaded.files[0].path == log.files[0].path

    def test_version_check(self):
        with pytest.raises(ValueError):
            DarshanLog.from_dict({"format_version": 999})

    def test_unknown_counter_raises(self, monitored):
        *_rest, mon, _posix = monitored
        log = mon.finalize()
        with pytest.raises(KeyError):
            log.counter_total("POSIX_NOT_A_COUNTER")


class TestReports:
    def test_write_throughput_definition(self):
        mon, bus = _on_bus(2)
        bus.emit("write", np.array([0, 1]), nbytes=GiB,
                 duration=np.array([1.0, 2.0]))
        log = mon.finalize()
        # total 2 GiB over slowest rank (2 s) = 1 GiB/s
        assert write_throughput_gib(log) == pytest.approx(1.0)

    def test_meta_included_in_denominator(self):
        mon, bus = _on_bus(1)
        bus.emit("write", 0, nbytes=GiB, duration=1.0)
        bus.emit("fsync", 0, duration=3.0)
        log = mon.finalize()
        assert write_throughput_gib(log) == pytest.approx(0.25)
        assert write_throughput_gib(log, include_meta=False) == pytest.approx(1.0)

    def test_agg_perf_by_slowest_counts_reads(self):
        mon, bus = _on_bus(1)
        bus.emit("write", 0, nbytes=GiB, duration=1.0)
        bus.emit("read", 0, nbytes=GiB, duration=1.0)
        log = mon.finalize()
        assert agg_perf_by_slowest(log) == pytest.approx(GiB)

    def test_zero_time_throughput(self):
        log = DarshanMonitor(1).finalize()
        assert write_throughput(log) == 0.0

    def test_cost_split_averages(self):
        mon, bus = _on_bus(4)
        bus.emit("write", np.arange(4), nbytes=100,
                 duration=np.array([1.0, 1.0, 1.0, 1.0]))
        bus.emit("open", 0, duration=4.0)
        split = cost_split(mon.finalize())
        assert split.write_seconds == pytest.approx(1.0)
        assert split.meta_seconds == pytest.approx(1.0)  # 4s over 4 procs

    def test_cost_split_normalized(self):
        mon, bus = _on_bus(1)
        bus.emit("write", 0, nbytes=10, duration=2.0)
        bus.emit("open", 0, duration=4.0)
        norm = cost_split(mon.finalize()).normalized()
        assert norm.meta_seconds == 1.0
        assert norm.write_seconds == 0.5

    def test_avg_seconds_per_write(self):
        mon, bus = _on_bus(1)
        bus.emit("write", 0, nbytes=100, duration=0.5, n_ops=5)
        assert avg_seconds_per_write(mon.finalize()) == pytest.approx(0.1)

    def test_file_stats(self):
        st = file_stats_from_sizes(np.array([100, 200, 600]))
        assert st.total_files == 3
        assert st.avg_size_bytes == 300
        assert st.max_size_bytes == 600

    def test_file_stats_empty(self):
        st = file_stats_from_sizes(np.array([]))
        assert st.total_files == 0

    def test_job_summary_keys(self, monitored):
        *_rest, mon, posix = monitored
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, SyntheticPayload(100))
        posix.close(0, fd)
        s = job_summary(mon.finalize(machine="Dardel"))
        assert s["machine"] == "Dardel"
        assert s["bytes_written"] == 100
        assert "write_throughput_gib_s" in s


class TestParser:
    def test_render_totals_format(self, monitored):
        *_rest, mon, posix = monitored
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, SyntheticPayload(2048))
        posix.close(0, fd)
        log = mon.finalize(machine="Dardel")
        text = render_totals(log)
        assert "# nprocs: 4" in text
        assert "total_POSIX_BYTES_WRITTEN: 2048" in text
        assert "total_POSIX_SIZE_1K_10K: 1" in text

    def test_parse_totals_dict(self, monitored):
        *_rest, mon, posix = monitored
        fd = posix.open(0, "/f", create=True)
        posix.close(0, fd)
        totals = parse_totals(mon.finalize())
        assert totals["total_POSIX_OPENS"] == 1

    def test_render_with_files_sorted_by_bytes(self, monitored):
        *_rest, mon, posix = monitored
        for name, size in (("/small", 10), ("/big", 10000)):
            fd = posix.open(0, name, create=True)
            posix.write(0, fd, SyntheticPayload(size))
            posix.close(0, fd)
        text = render(mon.finalize())
        assert text.index("/big") < text.index("/small")


def _record_loop(mon):
    """Reference: the per-file record loop ``finalize`` ran before the
    log's file table was columnar (registered files in first-registration
    order, evicted partials merged back)."""
    ft = mon._files
    files = []
    for ino, path in ft.paths.items():
        rec = FileRecord(
            path=path,
            opens=float(ft.opens[ino]),
            reads=float(ft.reads[ino]),
            writes=float(ft.writes[ino]),
            fsyncs=float(ft.fsyncs[ino]),
            bytes_read=float(ft.bytes_read[ino]),
            bytes_written=float(ft.bytes_written[ino]),
            cumulative_time=float(ft.time[ino]),
        )
        prev = mon._evicted.get(ino)
        if prev is not None:
            rec.opens += prev.opens
            rec.reads += prev.reads
            rec.writes += prev.writes
            rec.fsyncs += prev.fsyncs
            rec.bytes_read += prev.bytes_read
            rec.bytes_written += prev.bytes_written
            rec.cumulative_time += prev.cumulative_time
        files.append(rec)
    return files


@st.composite
def monitored_files(draw):
    """A monitor after batched registrations (an inode may be registered
    again, under another path) and file-attributed fs events, some on
    unregistered inodes and some closing files under eviction."""
    mon = DarshanMonitor(4, evict_on_close=draw(st.booleans()))
    for _ in range(draw(st.integers(1, 4))):
        inos = draw(st.lists(st.integers(0, 11), min_size=1, max_size=6))
        paths = [f"/d{draw(st.integers(0, 2))}/f{i}" for i in inos]
        mon.register_files(np.array(inos), paths)
    kinds = ("open", "write", "read", "fsync", "close")
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(1, 4))
        mon.on_event(make_event(
            draw(st.sampled_from(kinds)),
            draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
            nbytes=draw(st.integers(0, 5000)),
            duration=draw(st.floats(0.0, 1.0, allow_nan=False)),
            inos=draw(st.lists(st.integers(0, 13), min_size=k, max_size=k))))
    return mon


class TestFileTable:
    """The log's columnar file table holds what a per-file record loop
    builds: the same rows, order, JSON and rendering."""

    @given(monitored_files())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_record_loop(self, mon):
        log = mon.finalize()
        want = _record_loop(mon)
        assert list(log.files) == want
        assert [log.files[i] for i in range(len(want))] == want
        assert log.files == FileTable.from_records(want)

    @given(monitored_files())
    @settings(max_examples=30, deadline=None)
    def test_json_and_rendering_unchanged(self, mon):
        log = mon.finalize()
        want = _record_loop(mon)
        doc = log.to_dict()
        assert json.dumps(doc) == json.dumps(
            {**doc, "files": [vars(r).copy() for r in want]})
        # the parser lists the largest writers first, ties in table order
        ranked = sorted(want, key=lambda r: -r.bytes_written)[:3]
        lines = render_file_records(log, limit=3).splitlines()[1:]
        assert [line.split()[0] for line in lines] == [r.path for r in ranked]

    def test_save_load_writes_the_record_json(self, tmp_path):
        mon = DarshanMonitor(2, evict_on_close=True)
        mon.register_files(np.array([3, 1, 3]), ["/a", "/b", "/c"])
        for kind in ("open", "write", "close", "open", "write"):
            mon.on_event(make_event(kind, [0, 1], nbytes=100,
                                    duration=0.25, inos=[3, 1]))
        log = mon.finalize()
        path = tmp_path / "job.darshan.json.gz"
        log.save(path)
        with gzip.open(path, "rb") as fh:
            raw = fh.read()
        records = [vars(r).copy() for r in _record_loop(mon)]
        assert [r["path"] for r in records] == ["/a", "/b"]
        assert raw == json.dumps({**log.to_dict(), "files": records}).encode()
        loaded = DarshanLog.load(path)
        assert loaded.files == log.files
        assert loaded.to_dict() == log.to_dict()

    def test_finalize_adds_no_per_file_objects(self):
        n = 50_000
        mon = DarshanMonitor(4)
        inos = np.arange(n)
        mon.register_files(inos, [f"/out/f{i:05d}" for i in range(n)])
        mon.on_event(make_event("write", inos % 4, nbytes=4096,
                                duration=1e-3, inos=inos))
        before = sys.getallocatedblocks()
        log = mon.finalize()
        assert sys.getallocatedblocks() - before < 1000
        assert len(log.files) == n
        assert log.files.bytes_written.sum() == 4096 * n
        assert log.files[n - 1].path == f"/out/f{n - 1:05d}"

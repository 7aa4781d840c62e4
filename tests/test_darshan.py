"""Tests for the Darshan monitoring stack (runtime, log, parser, report)."""

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.darshan import (
    DarshanLog,
    DarshanMonitor,
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
from repro.fs import PosixIO, SyntheticPayload, mount
from repro.mpi import VirtualComm
from repro.trace import TraceBus
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

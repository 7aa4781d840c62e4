"""Tests for the Lustre mount, POSIX layer and stdio layer."""

import sys

import numpy as np
import pytest

from repro.cluster.presets import dardel, discoverer, vega
from repro.fs import (
    LustreFilesystem,
    NFSFilesystem,
    CephFilesystem,
    PosixIO,
    SyntheticPayload,
    fopen,
    mount,
)
from repro.mpi import VirtualComm
from repro.util.units import MiB


@pytest.fixture
def lfs():
    return mount(dardel().storage_named("lfs"))


@pytest.fixture
def posix(lfs):
    comm = VirtualComm(4, 2)
    return PosixIO(lfs, comm)


class TestMount:
    def test_mount_dispatch(self):
        assert isinstance(mount(dardel().storage_named("lfs")),
                          LustreFilesystem)
        assert isinstance(mount(discoverer().storage_named("nfs")),
                          NFSFilesystem)
        assert isinstance(mount(vega().storage_named("cephfs")),
                          CephFilesystem)

    def test_ost_round_robin(self, lfs):
        inos = [lfs.vfs.create(f"/f{i}") for i in range(lfs.num_osts + 2)]
        starts = [lfs.assign_ost(i) for i in inos]
        assert starts[: lfs.num_osts] == list(range(lfs.num_osts))
        assert starts[lfs.num_osts] == 0  # wraps

    def test_osts_of_striped_file(self, lfs):
        lfs.vfs.mkdir("/d")
        lfs.lfs_setstripe("/d", stripe_count=4, stripe_size="1M")
        ino = lfs.vfs.create("/d/f")
        osts = lfs.osts_of(ino)
        assert len(osts) == 4
        assert len(set(osts.tolist())) == 4

    def test_ost_of_offset_round_robins(self, lfs):
        lfs.vfs.mkdir("/d")
        lfs.lfs_setstripe("/d", stripe_count=2, stripe_size="1M")
        ino = lfs.vfs.create("/d/f")
        o0 = lfs.ost_of_offset(ino, 0)
        o1 = lfs.ost_of_offset(ino, 1 * MiB)
        o2 = lfs.ost_of_offset(ino, 2 * MiB)
        assert o0 != o1
        assert o0 == o2  # raid0 wraps with period = stripe_count


class TestLfsCommands:
    """Table III / Listing 1."""

    def test_setstripe_paper_command(self, lfs):
        # lfs setstripe -c 8 -S 16M io_openPMD
        lfs.vfs.mkdir("/io_openPMD")
        lfs.lfs_setstripe("/io_openPMD", stripe_count=8, stripe_size="16M")
        st = lfs.vfs.stat("/io_openPMD")
        assert st.stripe_count == 8
        assert st.stripe_size == 16_777_216

    def test_getstripe_listing1_fields(self, lfs):
        lfs.vfs.mkdir("/io_openPMD")
        lfs.lfs_setstripe("/io_openPMD", 8, "16M")
        ino = lfs.vfs.create("/io_openPMD/data.0")
        lfs.vfs.write(ino, 0, SyntheticPayload(100))
        out = lfs.lfs_getstripe("/io_openPMD/data.0")
        assert "lmm_stripe_count:  8" in out
        assert "lmm_stripe_size:   16777216" in out
        assert "raid0" in out
        assert out.count("\t") >= 8  # 8 obdidx rows

    def test_setstripe_all_osts(self, lfs):
        lfs.vfs.mkdir("/d")
        lfs.lfs_setstripe("/d", stripe_count=-1, stripe_size="1M")
        assert lfs.vfs.stat("/d").stripe_count == lfs.num_osts

    def test_setstripe_too_many_osts(self, lfs):
        lfs.vfs.mkdir("/d")
        with pytest.raises(ValueError):
            lfs.lfs_setstripe("/d", stripe_count=lfs.num_osts + 1)

    def test_restripe_nonempty_file_rejected(self, lfs):
        ino = lfs.vfs.create("/f")
        lfs.vfs.write(ino, 0, SyntheticPayload(10))
        with pytest.raises(OSError):
            lfs.lfs_setstripe("/f", 2, "1M")

    def test_getstripe_on_directory(self, lfs):
        lfs.vfs.mkdir("/d")
        lfs.lfs_setstripe("/d", 4, "2M")
        out = lfs.lfs_getstripe("/d")
        assert "stripe_count:  4" in out


class TestPosix:
    def test_open_write_read_close(self, posix):
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, b"hello")
        data = posix.read(0, fd, 5, offset=0)
        posix.close(0, fd)
        assert data == b"hello"

    def test_write_charges_clock(self, posix):
        fd = posix.open(1, "/f", create=True)
        before = posix.comm.clocks[1]
        posix.write(1, fd, SyntheticPayload(10 * MiB))
        assert posix.comm.clocks[1] > before
        posix.close(1, fd)

    def test_append_mode(self, posix):
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, b"ab")
        posix.close(0, fd)
        fd = posix.open(0, "/f", append=True)
        posix.write(0, fd, b"cd")
        posix.close(0, fd)
        assert posix.fs.vfs.size_of(posix.fs.vfs.lookup("/f")) == 4

    def test_truncate_on_open(self, posix):
        fd = posix.open(0, "/f", create=True)
        posix.write(0, fd, b"abcdef")
        posix.close(0, fd)
        fd = posix.open(0, "/f", create=True, truncate=True)
        posix.close(0, fd)
        assert posix.fs.vfs.size_of(posix.fs.vfs.lookup("/f")) == 0

    def test_chunked_write_counts_ops(self, posix):
        fd = posix.open(0, "/f", create=True)
        # fsync-per-chunk costs more than plain chunked write
        t0 = posix.comm.clocks[0]
        posix.write(0, fd, SyntheticPayload(64 * 1024), chunk_size=8192)
        t1 = posix.comm.clocks[0]
        posix.write(0, fd, SyntheticPayload(64 * 1024), chunk_size=8192,
                    sync_each_chunk=True)
        t2 = posix.comm.clocks[0]
        assert (t2 - t1) > (t1 - t0)
        posix.close(0, fd)

    def test_phase_context_scales_cost(self, lfs):
        comm = VirtualComm(4, 2)
        posix = PosixIO(lfs, comm)
        fd = posix.open(0, "/f", create=True)
        with posix.phase(writers=1):
            posix.fsync(0, fd)
        quiet = comm.clocks[0]
        with posix.phase(writers=100000):
            posix.fsync(0, fd)
        assert comm.clocks[0] - quiet > quiet
        posix.close(0, fd)

    def test_group_open_write_close(self, posix):
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/r{i}" for i in range(4)])
        posix.write_group(ranks, fds, 1000)
        posix.close_group(ranks, fds)
        for i in range(4):
            assert posix.fs.vfs.stat(f"/r{i}").size == 1000
        assert posix.open_fd_count == 0

    def test_group_truncate_first(self, posix):
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/r{i}" for i in range(4)])
        posix.write_group(ranks, fds, 100)
        posix.write_group(ranks, fds, 100, truncate_first=True)
        assert posix.fs.vfs.stat("/r0").size == 100
        posix.close_group(ranks, fds)

    def test_write_aggregate_wall_matches_rate_model(self, posix):
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/agg{i}" for i in range(4)])
        nbytes = 64 * MiB
        costs = posix.write_aggregate(ranks, fds, nbytes)
        rate = float(posix.fs.perf.aggregate_write_rate(4, 1))
        expected = nbytes / (rate / 4)
        # equal loads -> every aggregator's time ~ total/rate (+latency, noise)
        assert np.allclose(costs, expected, rtol=0.25)
        posix.close_group(ranks, fds)

    def test_read_group_accounts(self, posix):
        ranks = np.arange(4)
        fds = posix.open_group(ranks, [f"/r{i}" for i in range(4)])
        posix.write_group(ranks, fds, 500)
        posix.read_group(ranks, fds, 500)
        ino = posix.fs.vfs.lookup("/r0")
        assert posix.fs.vfs.cols.bytes_read[ino] == 500
        posix.close_group(ranks, fds)

    def test_unlink_and_stat(self, posix):
        posix.mkdir(0, "/d")
        fd = posix.open(0, "/d/f", create=True)
        posix.close(0, fd)
        assert posix.stat(0, "/d/f").size == 0
        posix.unlink(0, "/d/f")
        assert not posix.exists("/d/f")


class _Recorder:
    """Trace subscriber that keeps every event."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestDescriptorTable:
    def test_held_group_descriptors_are_not_objects(self, lfs):
        # 50 000 ranks holding the shared input deck open: table rows
        # and one path registration, not one Python object per fd
        n = 50_000
        posix = PosixIO(lfs, VirtualComm(n, 128))
        posix.close(0, posix.open(0, "/deck", create=True))
        ranks = np.arange(n)
        paths = ["/deck"] * n
        before = sys.getallocatedblocks()
        fds = posix.open_group(ranks, paths, create=False)
        assert sys.getallocatedblocks() - before < 1000
        assert posix.open_fd_count == n
        posix.close_group(ranks, fds)
        assert posix.open_fd_count == 0

    def test_group_open_of_repeated_files(self, posix):
        # one registration per inode, its first row's path; every
        # rank's open event still names its own file
        ino = {p: posix.fs.vfs.create(p) for p in ("/a", "/b")}
        rec = posix.trace.subscribe(_Recorder())
        ranks = np.arange(4)
        fds = posix.open_group(ranks, ["/b", "/a/", "/b/", "/a"],
                               create=False)
        (event,) = rec.events
        assert event.inos.tolist() == [ino["/b"], ino["/a"], ino["/b"],
                                       ino["/a"]]
        assert posix.trace.paths() == {ino["/a"]: "/a/", ino["/b"]: "/b"}
        posix.close_group(ranks, fds)

    def test_closed_or_unknown_descriptor_raises_key_error(self, posix):
        fd = posix.open(0, "/f", create=True)
        posix.close(0, fd)
        ops = (lambda f: posix.write(0, f, b"x"),
               lambda f: posix.read(0, f, 1),
               lambda f: posix.read_synthetic(0, f, 1),
               lambda f: posix.fsync(0, f),
               lambda f: posix.close(0, f))
        for bad in (fd, -1, 0, 10 ** 6):
            for op in ops:
                with pytest.raises(KeyError):
                    op(bad)

    def _fill_first_table(self, posix):
        """Open fds 3-255: every row of the initial 256-row table."""
        n = 253
        ranks = np.zeros(n, dtype=np.int64)
        fds = posix.open_group(ranks, [f"/t{i}" for i in range(n)])
        assert fds[0] == 3 and fds[-1] == 255
        return ranks, fds

    def test_group_ops_reject_unknown_descriptors(self, posix):
        # a negative fd must not wrap to the table's last rows, and an
        # fd past the table is unknown, not an IndexError
        ranks, fds = self._fill_first_table(posix)
        for bad in (-1, -253, 256, 10 ** 6):
            with pytest.raises(KeyError):
                posix.write_group(np.array([0]), np.array([bad]), 10)
            with pytest.raises(KeyError):
                posix.close_group(np.array([0]), np.array([bad]))
        assert posix.fs.vfs.stat("/t252").size == 0
        assert posix.open_fd_count == len(fds)
        posix.close_group(ranks, fds)

    def test_scalar_lookup_rejects_unknown_descriptors(self, posix):
        ranks, fds = self._fill_first_table(posix)
        for bad in (-1, 256):
            with pytest.raises(KeyError):
                posix.ino_of(bad)
            with pytest.raises(KeyError):
                posix.ino_of(np.array([3, bad]))
        assert posix.ino_of(255) == posix.fs.vfs.lookup("/t252")
        posix.close_group(ranks, fds)

    def test_fd_listed_twice_in_close_group_raises(self, posix):
        ranks = np.arange(2)
        fds = posix.open_group(ranks, ["/a", "/b"])
        with pytest.raises(KeyError):
            posix.close_group(np.arange(3), fds[[0, 1, 0]])
        posix.close_group(ranks, fds)
        with pytest.raises(KeyError):
            posix.close_group(ranks, fds)
        assert posix.open_fd_count == 0

    def test_release_is_idempotent(self, posix):
        fds = posix.open_group(np.arange(4), [f"/r{i}" for i in range(4)])
        fd = posix.open(0, "/one", create=True)
        posix.release_fds(fds)
        posix.release_fds(fds)
        assert posix.open_fd_count == 1
        posix.release_fds(fd)
        posix.release_fds(fd)
        assert posix.open_fd_count == 0

    def test_group_descriptor_keeps_position_and_api(self, posix):
        fd = posix.open(0, "/log", create=True)
        posix.write(0, fd, b"x" * 100)
        posix.close(0, fd)
        posix.close(0, posix.open(0, "/other", create=True))
        ranks = np.arange(2)
        fds = posix.open_group(ranks, ["/log", "/other"], create=False,
                               append=True, api="STDIO")
        rec = posix.trace.subscribe(_Recorder())
        posix.write(0, int(fds[0]), b"yz")  # appends at the old size
        posix.close(1, int(fds[1]))
        assert posix.fs.vfs.stat("/log").size == 102
        assert [(e.kind, e.api) for e in rec.events] == [
            ("write", "STDIO"), ("close", "STDIO")]
        posix.close(0, int(fds[0]))


class TestStdio:
    def test_fprintf_formats(self, posix):
        f = fopen(posix, 0, "/t.dat", "w")
        f.fprintf("step %d %s\n", 42, "ok")
        f.fclose()
        g = fopen(posix, 0, "/t.dat", "r")
        assert g.read_all() == b"step 42 ok\n"
        g.fclose()

    def test_buffering_defers_writes(self, posix):
        f = fopen(posix, 0, "/b.dat", "w", bufsize=1024)
        f.fwrite(b"x" * 100)
        ino = posix.fs.vfs.lookup("/b.dat")
        assert posix.fs.vfs.size_of(ino) == 0  # still buffered
        f.fflush()
        assert posix.fs.vfs.size_of(ino) == 100
        f.fclose()

    def test_buffer_flushes_at_bufsize(self, posix):
        f = fopen(posix, 0, "/b.dat", "w", bufsize=64)
        f.fwrite(b"y" * 200)
        ino = posix.fs.vfs.lookup("/b.dat")
        assert posix.fs.vfs.size_of(ino) >= 128  # two full buffers emitted
        f.fclose()
        assert posix.fs.vfs.size_of(ino) == 200

    def test_append_mode(self, posix):
        with fopen(posix, 0, "/a.dat", "w") as f:
            f.fwrite(b"one")
        with fopen(posix, 0, "/a.dat", "a") as f:
            f.fwrite(b"two")
        with fopen(posix, 0, "/a.dat", "r") as f:
            assert f.read_all() == b"onetwo"

    def test_mixed_real_synthetic_order(self, posix):
        f = fopen(posix, 0, "/m.dat", "w")
        f.fprintf("head")
        f.fwrite(SyntheticPayload(1000, "ascii_table"))
        f.fclose()
        with fopen(posix, 0, "/m.dat", "r") as g:
            assert g.fread(4) == b"head"

    def test_write_to_read_stream_rejected(self, posix):
        with fopen(posix, 0, "/r.dat", "w") as f:
            f.fwrite(b"z")
        g = fopen(posix, 0, "/r.dat", "r")
        with pytest.raises(OSError):
            g.fwrite(b"no")
        g.fclose()

    def test_double_close_is_noop(self, posix):
        f = fopen(posix, 0, "/c.dat", "w")
        f.fclose()
        f.fclose()

    def test_write_after_close_rejected(self, posix):
        f = fopen(posix, 0, "/c.dat", "w")
        f.fclose()
        with pytest.raises(OSError):
            f.fwrite(b"late")

    def test_sync_on_flush_costs_more(self, lfs):
        comm = VirtualComm(2, 2)
        posix = PosixIO(lfs, comm)
        f = fopen(posix, 0, "/plain.dat", "w", bufsize=64)
        f.fwrite(b"a" * 640)
        f.fclose()
        plain = comm.clocks[0]
        g = fopen(posix, 1, "/synced.dat", "w", bufsize=64,
                  sync_on_flush=True)
        g.fwrite(b"a" * 640)
        g.fclose()
        assert comm.clocks[1] > plain

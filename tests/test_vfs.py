"""Tests for the virtual filesystem (namespace, data plane, striping)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.payload import RealPayload, SyntheticPayload
from repro.fs.vfs import (
    FileExists,
    FileNotFound,
    FSError,
    IsADir,
    NotADir,
    VirtualFS,
    normalize,
)


@pytest.fixture
def fs():
    return VirtualFS()


class TestNamespace:
    def test_root_exists(self, fs):
        assert fs.exists("/")
        assert fs.is_dir("/")

    def test_normalize(self):
        assert normalize("a/b") == "/a/b"
        assert normalize("/a//b/") == "/a/b"
        assert normalize("/a/../b") == "/b"

    def test_normalize_rejects_empty_path(self):
        with pytest.raises(FSError, match="empty path"):
            normalize("")

    def test_normalize_strips_trailing_slashes(self):
        assert normalize("/a/b/") == "/a/b"
        assert normalize("/a/b//") == "/a/b"
        assert normalize("a/b///") == "/a/b"
        # the root itself stays the root
        assert normalize("/") == "/"

    def test_normalize_collapses_leading_double_slash(self):
        # POSIX reserves a leading "//"; the virtual FS does not
        assert normalize("//a/b") == "/a/b"
        assert normalize("//") == "/"

    def test_trailing_slash_names_same_file(self, fs):
        fs.mkdir("/d")
        ino = fs.create("/d/f.dat")
        assert fs.stat("/d/f.dat").ino == ino
        assert fs.exists("/d/")
        assert fs.is_dir("/d//")

    def test_create_and_stat(self, fs):
        ino = fs.create("/f.dat")
        st_ = fs.stat("/f.dat")
        assert st_.ino == ino
        assert st_.size == 0
        assert not st_.is_dir

    def test_create_in_missing_dir(self, fs):
        with pytest.raises(FileNotFound):
            fs.create("/nope/f.dat")

    def test_create_under_file(self, fs):
        fs.create("/f")
        with pytest.raises(NotADir):
            fs.create("/f/g")

    def test_exclusive_create(self, fs):
        fs.create("/f", exclusive=True)
        with pytest.raises(FileExists):
            fs.create("/f", exclusive=True)

    def test_create_existing_returns_same_ino(self, fs):
        assert fs.create("/f") == fs.create("/f")

    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c", parents=True)
        assert fs.is_dir("/a/b/c")

    def test_mkdir_existing_dir_idempotent(self, fs):
        a = fs.mkdir("/d")
        assert fs.mkdir("/d") == a

    def test_mkdir_over_file(self, fs):
        fs.create("/f")
        with pytest.raises(FileExists):
            fs.mkdir("/f")

    def test_listdir_sorted(self, fs):
        fs.create("/b")
        fs.create("/a")
        fs.mkdir("/z")
        assert fs.listdir("/") == ["a", "b", "z"]

    def test_listdir_on_file(self, fs):
        fs.create("/f")
        with pytest.raises(NotADir):
            fs.listdir("/f")

    def test_unlink(self, fs):
        fs.create("/f")
        fs.unlink("/f")
        assert not fs.exists("/f")
        assert fs.nfiles == 0

    def test_unlink_nonempty_dir(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(Exception):
            fs.unlink("/d")

    def test_walk(self, fs):
        fs.mkdir("/a")
        fs.create("/a/f1")
        fs.create("/top")
        entries = list(fs.walk("/"))
        assert entries[0][0] == "/"
        assert "top" in entries[0][2]
        assert any(path == "/a" and "f1" in files
                   for path, _d, files in entries)

    def test_files_under(self, fs):
        fs.mkdir("/x")
        fs.create("/x/f1")
        fs.create("/x/f2")
        assert fs.files_under("/x") == ["/x/f1", "/x/f2"]


class TestDataPlane:
    def test_real_write_read_roundtrip(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 0, RealPayload(b"hello world"))
        assert fs.read(ino, 0, 5) == b"hello"
        assert fs.read(ino, 6, 5) == b"world"

    def test_write_at_offset_extends(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 100, RealPayload(b"x"))
        assert fs.size_of(ino) == 101

    def test_sparse_read_zero_filled(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 10, RealPayload(b"z"))
        assert fs.read(ino, 0, 5) == b"\x00" * 5

    def test_overwrite_keeps_size(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 0, RealPayload(b"aaaa"))
        fs.write(ino, 0, RealPayload(b"bb"))
        assert fs.size_of(ino) == 4
        assert fs.read(ino, 0, 4) == b"bbaa"

    def test_synthetic_write_tracks_size_only(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 0, SyntheticPayload(1_000_000))
        assert fs.size_of(ino) == 1_000_000
        # no content materialised: reads come back zero-filled
        assert fs.read(ino, 0, 4) == b"\x00" * 4

    def test_write_to_dir_rejected(self, fs):
        ino = fs.mkdir("/d")
        with pytest.raises(IsADir):
            fs.write(ino, 0, RealPayload(b"x"))

    def test_truncate(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 0, RealPayload(b"abcdef"))
        fs.truncate(ino, 2)
        assert fs.size_of(ino) == 2
        assert fs.read(ino, 0, 2) == b"ab"

    def test_op_accounting(self, fs):
        ino = fs.create("/f")
        fs.write(ino, 0, RealPayload(b"abc"))
        fs.write(ino, 3, RealPayload(b"def"))
        fs.read(ino, 0, 6)
        assert fs.cols.write_ops[ino] == 2
        assert fs.cols.bytes_written[ino] == 6
        assert fs.cols.read_ops[ino] == 1

    def test_write_content_no_accounting(self, fs):
        ino = fs.create("/f")
        fs.write_content(ino, 0, b"xyz")
        assert fs.size_of(ino) == 3
        assert fs.cols.write_ops[ino] == 0


class TestGroupWrites:
    def test_append_group(self, fs):
        inos = fs.create_many([f"/f{i}" for i in range(5)])
        fs.write_group(inos, 100)
        fs.write_group(inos, 50)
        assert all(fs.cols.size[i] == 150 for i in inos)

    def test_group_with_offsets_overwrite(self, fs):
        inos = fs.create_many(["/a", "/b"])
        fs.write_group(inos, 100)
        fs.write_group(inos, 100, offsets=np.array([0, 0]))
        # in-place overwrite: size unchanged, bytes-written doubled
        assert all(fs.cols.size[i] == 100 for i in inos)
        assert all(fs.cols.bytes_written[i] == 200 for i in inos)

    def test_group_variable_sizes(self, fs):
        inos = fs.create_many(["/a", "/b", "/c"])
        fs.write_group(inos, np.array([1, 2, 3]))
        assert list(fs.cols.size[inos]) == [1, 2, 3]

    def test_lookup_many_of_equal_paths_is_lookup_per_path(self, fs):
        fs.mkdir("/in")
        fs.create("/in/deck.inp")
        fs.create("/in/other.inp")
        # equal strings built separately: equal, but not one object
        paths = ["/in/" + "".join(["deck", ".inp"]) for _ in range(5)]
        assert paths[0] is not paths[1]
        expect = [fs.lookup(p) for p in paths]
        assert fs.lookup_many(paths).tolist() == expect
        assert fs.lookup_many(paths + ["/in/other.inp"]).tolist() \
            == expect + [fs.lookup("/in/other.inp")]
        with pytest.raises(FileNotFound):
            fs.lookup_many(["/in/missing.inp"] * 4)

    def test_subtree_sizes(self, fs):
        fs.mkdir("/out")
        inos = fs.create_many([f"/out/f{i}" for i in range(3)])
        fs.write_group(inos, np.array([10, 20, 30]))
        sizes = fs.subtree_file_sizes("/out")
        assert sorted(sizes) == [10, 20, 30]

    @given(st.lists(st.lists(st.sampled_from(
        ["a", "b", "f", "x.txt", ".", "..", ""]), min_size=1, max_size=4)
        .map("/".join).flatmap(lambda p: st.sampled_from([p, "/" + p])),
        min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_create_many_is_create_per_path(self, paths):
        """Same inode ids, ``create_seq``, namespace and striping as
        :meth:`create` called per path in order; a batch the loop
        cannot create raises and creates nothing."""
        def tree():
            fs = VirtualFS()
            fs.mkdir("/a/b", parents=True)
            fs.set_striping("/a", 4, 1 << 20)
            fs.create("/f")
            return fs

        ref, fs = tree(), tree()
        try:
            want = [ref.create(p) for p in paths]
        except FSError:
            want = None
        n = len(fs.cols)
        if want is None:
            with pytest.raises(FSError):
                fs.create_many(paths)
            assert len(fs.cols) == n
            return
        assert fs.create_many(paths).tolist() == want
        assert fs._paths == ref._paths
        assert fs._children == ref._children
        m = len(ref.cols)
        assert len(fs.cols) == m
        for col in ("create_seq", "stripe_count", "stripe_size",
                    "ost_start", "is_dir"):
            assert np.array_equal(getattr(fs.cols, col)[:m],
                                  getattr(ref.cols, col)[:m]), col

    def test_subtree_sizes_in_files_under_order(self, fs):
        """The census walk returns what looking up every path of
        ``files_under`` returns, in its sorted-path order: across nested
        directories, without an unlinked file, and with ``b.txt``
        before ``b/x`` although a per-directory walk visits ``b``
        first."""
        for d in ("/run/b", "/run/b/deep", "/run/a-b", "/run/c"):
            fs.mkdir(d, parents=True)
        paths = ["/run/b.txt", "/run/b/x", "/run/b/deep/y", "/run/b-1",
                 "/run/a", "/run/a-b/z", "/run/c/w", "/run/c.d", "/run/B",
                 "/run/gone", "/top"]
        inos = fs.create_many(paths)
        fs.write_group(inos, np.arange(1, len(paths) + 1) * 10)
        fs.unlink("/run/gone")
        for root in ("/", "/run", "/run/b", "/run/c"):
            want = [fs.size_of(fs.lookup(p)) for p in fs.files_under(root)]
            got = fs.subtree_file_sizes(root)
            assert got.dtype == np.int64
            assert got.tolist() == want, root
        assert fs.subtree_file_sizes("/run/b/deep/").tolist() == [30]
        assert fs.subtree_file_sizes("/run/a-b/z/..").tolist() == [60]
        assert fs.files_under("/run")[:3] == ["/run/B", "/run/a",
                                              "/run/a-b/z"]
        fs.mkdir("/empty")
        assert fs.subtree_file_sizes("/empty").tolist() == []
        with pytest.raises(NotADir):
            fs.subtree_file_sizes("/top")
        with pytest.raises(FileNotFound):
            fs.subtree_file_sizes("/missing")

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_group_append_accumulates(self, sizes):
        fs = VirtualFS()
        ino = fs.create("/f")
        inos = np.array([ino])
        for s in sizes:
            fs.write_group(inos, s)
        assert fs.size_of(ino) == sum(sizes)


class TestStriping:
    def test_default_striping_inherited(self):
        fs = VirtualFS(default_stripe_count=4, default_stripe_size=2 << 20)
        ino = fs.create("/f")
        st_ = fs.stat("/f")
        assert st_.stripe_count == 4
        assert st_.stripe_size == 2 << 20

    def test_directory_striping_inherited_by_children(self):
        fs = VirtualFS()
        fs.mkdir("/d")
        fs.set_striping("/d", 8, 16 << 20)
        ino = fs.create("/d/f")
        assert fs.stat("/d/f").stripe_count == 8

    def test_striping_validation(self):
        fs = VirtualFS()
        fs.create("/f")
        with pytest.raises(ValueError):
            fs.set_striping("/f", 0, 1 << 20)
        with pytest.raises(ValueError):
            fs.set_striping("/f", 1, 1024)  # below Lustre's 64 KiB minimum

"""In-memory virtual filesystem with a columnar inode table.

The performance experiments create tens of thousands of files (Table II
reaches 51,206 files at 200 nodes), so per-file metadata lives in growable
numpy arrays indexed by inode id rather than per-file Python objects; the
HPC guides' "vectorise, don't loop" idiom applied to the metadata plane.

File *content* is optional: :class:`~repro.fs.payload.RealPayload` writes
are materialised into per-inode extent stores (and can be read back
exactly), while :class:`~repro.fs.payload.SyntheticPayload` writes only
update the size column.
"""

from __future__ import annotations

import bisect
import posixpath
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.fs.payload import Payload, RealPayload, SyntheticPayload
from repro.util.scatter import (
    as_index,
    as_run,
    scatter_add,
    scatter_max,
    unique_increasing,
)


class FSError(OSError):
    """Base error for virtual filesystem failures."""


class FileNotFound(FSError):
    """Path does not exist."""


class FileExists(FSError):
    """Path already exists (exclusive create)."""


class NotADir(FSError):
    """A non-directory component was used as a directory."""


class IsADir(FSError):
    """File operation attempted on a directory."""


def normalize(path: str) -> str:
    """Normalise to an absolute, ``/``-separated path.

    Empty paths are rejected (they would silently alias the root), and
    trailing slashes are stripped consistently: ``/a/b/``, ``/a/b//``
    and ``/a/b`` all name the same entry.  POSIX's special treatment of
    a leading ``//`` is deliberately not honoured — the virtual FS has a
    single namespace.
    """
    if not path:
        raise FSError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    # posixpath.normpath preserves a leading double slash (POSIX allows
    # an implementation-defined root there); collapse it
    if norm.startswith("//"):
        norm = norm[1:]
    return norm


def _is_normal(path: str) -> bool:
    """Cheap test that :func:`normalize` would return ``path`` unchanged.

    A handful of C-speed substring scans replace a full ``normpath``
    parse on the bulk paths the writers generate, which are always
    already normal.  False negatives only cost the slow path.
    """
    return (path.startswith("/")
            and not path.endswith("/")
            and "//" not in path
            and "/./" not in path
            and "/../" not in path
            and not path.endswith("/.")
            and not path.endswith("/.."))


def _dir_prefix(path: str) -> str:
    """A directory's normal path as the prefix of ``prefix + "/" + name``:
    ``""`` for the root, which an empty parent part also names."""
    norm = normalize(path) if path else "/"
    return "" if norm == "/" else norm


def normalize_many(paths) -> list[str]:
    """Normalise a batch of paths (fast scan, slow path per offender)."""
    return [p if _is_normal(p) else normalize(p) for p in paths]


class _Columns:
    """Growable columnar storage for per-inode attributes."""

    _FIELDS = {
        "size": np.int64,
        "is_dir": np.bool_,
        "stripe_count": np.int32,
        "stripe_size": np.int64,
        "ost_start": np.int32,
        "create_seq": np.int64,
        "write_ops": np.int64,
        "read_ops": np.int64,
        "bytes_written": np.int64,
        "bytes_read": np.int64,
        "removed": np.bool_,
    }

    def __init__(self, capacity: int = 256):
        self._n = 0
        self._cap = capacity
        for name, dt in self._FIELDS.items():
            setattr(self, name, np.zeros(capacity, dtype=dt))

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        new_cap = self._cap * 2
        for name in self._FIELDS:
            old = getattr(self, name)
            new = np.zeros(new_cap, dtype=old.dtype)
            new[: self._cap] = old
            setattr(self, name, new)
        self._cap = new_cap

    def alloc(self) -> int:
        if self._n == self._cap:
            self._grow()
        ino = self._n
        self._n += 1
        return ino

    def alloc_many(self, count: int) -> np.ndarray:
        while self._n + count > self._cap:
            self._grow()
        inos = np.arange(self._n, self._n + count)
        self._n += count
        return inos


@dataclass
class StatResult:
    """``stat()``-like metadata snapshot for one path."""

    ino: int
    size: int
    is_dir: bool
    stripe_count: int
    stripe_size: int
    ost_start: int


class VirtualFS:
    """The in-memory file tree.

    Striping attributes live on every inode; directories carry *default*
    striping that new children inherit, mirroring Lustre's
    ``lfs setstripe`` on a directory (Table III of the paper).
    """

    def __init__(self, default_stripe_count: int = 1,
                 default_stripe_size: int = 1 << 20,
                 mem_account=None):
        self.cols = _Columns()
        self._paths: dict[str, int] = {}
        self._children: dict[int, dict[str, int]] = {}
        self._content: dict[int, "ExtentStore"] = {}
        self._mem_account = mem_account
        self._spill_file = None
        self._touch_clock = 0
        self._create_counter = 0
        root = self.cols.alloc()
        self.cols.is_dir[root] = True
        self.cols.stripe_count[root] = default_stripe_count
        self.cols.stripe_size[root] = default_stripe_size
        self._paths["/"] = root
        self._children[root] = {}

    # -- lookup -----------------------------------------------------------

    def lookup(self, path: str) -> int:
        ino = self._paths.get(normalize(path))
        if ino is None:
            raise FileNotFound(normalize(path))
        return ino

    def exists(self, path: str) -> bool:
        return normalize(path) in self._paths

    def is_dir(self, path: str) -> bool:
        return bool(self.cols.is_dir[self.lookup(path)])

    def stat(self, path: str) -> StatResult:
        ino = self.lookup(path)
        c = self.cols
        return StatResult(
            ino=ino,
            size=int(c.size[ino]),
            is_dir=bool(c.is_dir[ino]),
            stripe_count=int(c.stripe_count[ino]),
            stripe_size=int(c.stripe_size[ino]),
            ost_start=int(c.ost_start[ino]),
        )

    # -- creation ---------------------------------------------------------

    def _parent_of(self, path: str) -> tuple[int, str]:
        path = normalize(path)
        parent, name = posixpath.split(path)
        if not name:
            raise FSError(f"cannot create root: {path}")
        pino = self._paths.get(parent)
        if pino is None:
            raise FileNotFound(parent)
        if not self.cols.is_dir[pino]:
            raise NotADir(parent)
        return pino, name

    def mkdir(self, path: str, parents: bool = False) -> int:
        path = normalize(path)
        if path in self._paths:
            if self.cols.is_dir[self._paths[path]]:
                return self._paths[path]
            raise FileExists(path)
        parent = posixpath.dirname(path)
        if parents and parent not in self._paths:
            self.mkdir(parent, parents=True)
        pino, _ = self._parent_of(path)
        ino = self.cols.alloc()
        c = self.cols
        c.is_dir[ino] = True
        c.stripe_count[ino] = c.stripe_count[pino]
        c.stripe_size[ino] = c.stripe_size[pino]
        c.create_seq[ino] = self._next_seq()
        self._paths[path] = ino
        self._children[pino][posixpath.basename(path)] = ino
        self._children[ino] = {}
        return ino

    def _next_seq(self) -> int:
        self._create_counter += 1
        return self._create_counter

    def create(self, path: str, exclusive: bool = False) -> int:
        """Create a regular file (or return the existing inode)."""
        path = normalize(path)
        existing = self._paths.get(path)
        if existing is not None:
            if exclusive:
                raise FileExists(path)
            if self.cols.is_dir[existing]:
                raise IsADir(path)
            return existing
        pino, name = self._parent_of(path)
        ino = self.cols.alloc()
        c = self.cols
        c.stripe_count[ino] = c.stripe_count[pino]
        c.stripe_size[ino] = c.stripe_size[pino]
        c.ost_start[ino] = -1  # assigned lazily by the Lustre layer
        c.create_seq[ino] = self._next_seq()
        self._paths[path] = ino
        self._children[pino][name] = ino
        return ino

    def create_many(self, paths: Iterable[str]) -> np.ndarray:
        """Create many files; returns their inode ids.

        The bulk path used when thousands of symmetric ranks create their
        per-rank output files in one phase.  Equivalent to calling
        :meth:`create` per path in order — same inode ids, same
        ``create_seq`` numbering — but allocates all columns in one shot.
        """
        paths = list(paths)
        out = np.empty(len(paths), dtype=np.int64)
        get = self._paths.get
        c = self.cols
        # one pass: each path is split once, and each distinct parent
        # spelling normalised once; a plain leaf name under a normal
        # parent means the path itself is already normal
        prefixes: dict[str, str] = {}  # parent as written -> normal ("" = /)
        new_pos: list[int] = []
        new_paths: list[str] = []
        new_names: list[str] = []
        new_parents: list[str] = []
        pending: dict[str, int] = {}  # repeated new path -> first slot
        dupes: list[tuple[int, int]] = []
        is_dir_at = None  # first existing directory named (raised last)
        for i, p in enumerate(paths):
            parent, sep, name = p.rpartition("/")
            if sep and name and name != "." and name != "..":
                prefix = prefixes.get(parent)
                if prefix is None:
                    prefix = prefixes[parent] = _dir_prefix(parent)
                full = p if parent == prefix else f"{prefix}/{name}"
            else:
                full = normalize(p)
                prefix, _, name = full.rpartition("/")
            ino = get(full)
            if ino is not None:
                if is_dir_at is None and c.is_dir[ino]:
                    is_dir_at = full
                out[i] = ino
            elif full in pending:
                dupes.append((i, pending[full]))
            else:
                pending[full] = len(new_paths)
                new_pos.append(i)
                new_paths.append(full)
                new_names.append(name)
                new_parents.append(prefix)
        if is_dir_at is not None:
            raise IsADir(is_dir_at)
        if not new_paths:
            return out
        # resolve each distinct parent once, in first-use order
        parent_inos: dict[str, int] = {}
        for prefix in dict.fromkeys(new_parents):
            parent = prefix or "/"
            pino = self._paths.get(parent)
            if pino is None:
                raise FileNotFound(parent)
            if not c.is_dir[pino]:
                raise NotADir(parent)
            parent_inos[prefix] = pino
        if len(parent_inos) == 1:  # bulk writers target one directory
            (pino,) = parent_inos.values()
            pinos = np.full(len(new_paths), pino, dtype=np.int64)
        else:
            pinos = np.fromiter(map(parent_inos.__getitem__, new_parents),
                                dtype=np.int64, count=len(new_paths))
        inos = c.alloc_many(len(new_paths))
        c.stripe_count[inos] = c.stripe_count[pinos]
        c.stripe_size[inos] = c.stripe_size[pinos]
        c.ost_start[inos] = -1
        first = self._create_counter + 1
        self._create_counter += len(new_paths)
        c.create_seq[inos] = np.arange(first, first + len(new_paths))
        ino_list = inos.tolist()
        self._paths.update(zip(new_paths, ino_list))
        children = self._children
        if len(parent_inos) == 1:
            children[pino].update(zip(new_names, ino_list))
        else:
            for prefix, name, ino in zip(new_parents, new_names, ino_list):
                children[parent_inos[prefix]][name] = ino
        out[new_pos] = inos
        for i, j in dupes:
            out[i] = inos[j]
        return out

    def lookup_many(self, paths: Iterable[str]) -> np.ndarray:
        """Look up many paths at once; raises on the first missing one."""
        paths = list(paths)
        if len(paths) > 1:
            first = paths[0]
            if paths.count(first) == len(paths):
                # every rank opening the same file (shared input deck):
                # one dict probe instead of N string normalisations; the
                # count loops in C, an identical string short-cuts the
                # compare, and an equal one names the same file
                return np.full(len(paths), self.lookup(first), dtype=np.int64)
        get = self._paths.get
        out = []
        for p in normalize_many(paths):
            ino = get(p)
            if ino is None:
                raise FileNotFound(p)
            out.append(ino)
        return np.asarray(out, dtype=np.int64)

    def truncate_many(self, inos: np.ndarray | range) -> None:
        """Truncate many files to zero length (batched open-for-write);
        ``inos`` is an array or an inode range."""
        self.cols.size[as_index(inos)] = 0
        if self._content:
            for ino in (inos if type(inos) is range
                        else np.asarray(inos).tolist()):
                store = self._content.get(ino)
                if store is not None:
                    store.truncate(0)

    def unlink(self, path: str) -> None:
        path = normalize(path)
        ino = self.lookup(path)
        if self.cols.is_dir[ino]:
            if self._children.get(ino):
                raise FSError(f"directory not empty: {path}")
            del self._children[ino]
        parent = posixpath.dirname(path)
        pino = self._paths[parent]
        del self._children[pino][posixpath.basename(path)]
        del self._paths[path]
        dropped = self._content.pop(ino, None)
        if dropped is not None:
            dropped.discard()
        self.cols.removed[ino] = True
        self.cols.size[ino] = 0

    # -- striping ---------------------------------------------------------

    def set_striping(self, path: str, stripe_count: int, stripe_size: int) -> None:
        ino = self.lookup(path)
        if stripe_count < 1:
            raise ValueError("stripe_count must be >= 1")
        if stripe_size < 65536:
            raise ValueError("stripe_size must be >= 64KiB (Lustre minimum)")
        self.cols.stripe_count[ino] = stripe_count
        self.cols.stripe_size[ino] = stripe_size

    # -- memory plane -----------------------------------------------------

    def configure_memory(self, account, spill: bool = True):
        """Charge materialised extents to ``account``.

        With ``spill=True`` the account's pressure hook parks the
        coldest files' extents in a real scratch file when the quota is
        crossed, so residency stays bounded while reads keep working.
        Existing stores are re-pointed at the new account.
        """
        self._mem_account = account
        resident = sum(s.resident_bytes for s in self._content.values())
        for store in self._content.values():
            store.account = account
        if resident:
            account.charge(resident)
        if spill and account.quota is not None:
            # the hook runs only over a quota; on an unlimited account
            # it would only tie this vfs into a reference cycle with it
            account.on_pressure = self._shed_extents
        return account

    def _vfs_account(self):
        if self._mem_account is None:
            from repro.mem.budget import current_budget

            self._mem_account = current_budget().account("vfs")
        return self._mem_account

    def _store(self, ino: int) -> "ExtentStore":
        store = self._content.get(ino)
        if store is None:
            store = ExtentStore(account=self._vfs_account())
            self._content[ino] = store
        self._touch_clock += 1
        store.last_touch = self._touch_clock
        return store

    def _spill_alloc(self, data: bytes) -> "_Spilled":
        if self._spill_file is None:
            self._spill_file = tempfile.TemporaryFile(
                prefix="repro-vfs-spill-")
        f = self._spill_file
        f.seek(0, 2)
        off = f.tell()
        f.write(data)
        return _Spilled(f, off, len(data))

    def _shed_extents(self, account, needed: int) -> None:
        """Pressure hook: spill coldest extents until back under quota."""
        for store in sorted(self._content.values(),
                            key=lambda s: s.last_touch):
            if not account.over_quota:
                break
            store.spill(self._spill_alloc)

    @property
    def resident_content_bytes(self) -> int:
        """Materialised extent bytes currently held in host memory."""
        return sum(s.resident_bytes for s in self._content.values())

    # -- data plane -------------------------------------------------------

    def write(self, ino: int, offset: int, payload: Payload) -> int:
        """Apply a write at ``offset``; returns bytes written."""
        c = self.cols
        if c.is_dir[ino]:
            raise IsADir(f"inode {ino}")
        n = payload.nbytes
        end = offset + n
        if end > c.size[ino]:
            c.size[ino] = end
        c.write_ops[ino] += 1
        c.bytes_written[ino] += n
        if isinstance(payload, RealPayload):
            self._store(ino).write(offset, payload.tobytes())
        return n

    def write_group(self, inos: np.ndarray | range,
                    nbytes_each: int | np.ndarray,
                    offsets: int | np.ndarray = -1) -> None:
        """Vectorised synthetic write to many files at once.

        ``offsets == -1`` means append at current EOF; appends to an
        inode that appears more than once follow each other in call
        order, as the same writes one at a time would.  Used by the
        scale experiments to represent thousands of symmetric per-rank
        writes in one call.  An inode range (one consecutive run of
        files) updates the columns through slices.
        """
        if type(inos) is not range:
            inos = as_run(np.asarray(inos))  # a consecutive run slices
        nbytes = np.asarray(nbytes_each, dtype=np.int64)
        c = self.cols
        size = c.size[as_index(inos)]
        appended = size + nbytes
        if (type(inos) is not range and inos.ndim == 1 and inos.size > 1
                and not unique_increasing(inos)):
            appended = self._appends_in_order(inos, nbytes, offsets,
                                              appended)
        if np.isscalar(offsets) and offsets == -1:
            ends = appended
        else:
            offs = np.asarray(offsets, dtype=np.int64)
            ends = np.where(offs < 0, appended, offs + nbytes)
        scatter_max(c.size, inos, ends)
        scatter_add(c.write_ops, inos, 1)
        scatter_add(c.bytes_written, inos, nbytes)

    def _appends_in_order(self, inos: np.ndarray, nbytes: np.ndarray,
                          offsets, appended: np.ndarray) -> np.ndarray:
        """Each append's end when the appends to a repeated inode follow
        each other in call order (``appended`` when no inode repeats).

        One stable sort by inode: within a file's group, an append ends
        at the file's size plus the bytes of its group's appends up to
        and including it.
        """
        order = np.argsort(inos, kind="stable")
        sorted_inos = inos[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_inos[1:] != sorted_inos[:-1])))
        if len(starts) == len(inos):
            return appended
        added = np.broadcast_to(nbytes, inos.shape)
        if not (np.isscalar(offsets) and offsets == -1):
            added = np.where(np.asarray(offsets) < 0, added, 0)
        run = np.cumsum(added[order])
        before = run[starts] - added[order][starts]
        run -= np.repeat(before, np.diff(np.append(starts, len(inos))))
        ends = np.empty(len(inos), dtype=np.int64)
        ends[order] = self.cols.size[sorted_inos] + run
        return ends

    def write_steps(self, inos: np.ndarray | range,
                    nbytes_each: np.ndarray, offsets: np.ndarray) -> None:
        """:meth:`write_group` once per row of ``offsets`` (``(K, n)``,
        every offset explicit, none -1), applied in one pass: sizes take
        the largest end, op and byte counts ``K`` times one step's."""
        offsets = np.asarray(offsets, dtype=np.int64)
        nbytes = np.asarray(nbytes_each, dtype=np.int64)
        c = self.cols
        scatter_max(c.size, inos, offsets.max(axis=0) + nbytes)
        scatter_add(c.write_ops, inos, len(offsets))
        scatter_add(c.bytes_written, inos, nbytes * len(offsets))

    def write_run(self, ino: int, offset: int, nbytes: int,
                  count: int) -> int:
        """``count`` synthetic writes of ``nbytes`` back to back from
        ``offset`` (a descriptor's appends); returns where they end."""
        c = self.cols
        if c.is_dir[ino]:
            raise IsADir(f"inode {ino}")
        end = offset + nbytes * count
        if end > c.size[ino]:
            c.size[ino] = end
        c.write_ops[ino] += count
        c.bytes_written[ino] += nbytes * count
        return end

    def write_content(self, ino: int, offset: int, data: bytes) -> None:
        """Lay raw bytes into a file *without* op accounting.

        Used by layers that already accounted the transfer through a
        grouped/aggregate operation and only need the content landed
        (e.g. the BP engine materialising real chunks after a collective
        write was costed).
        """
        c = self.cols
        if c.is_dir[ino]:
            raise IsADir(f"inode {ino}")
        end = offset + len(data)
        if end > c.size[ino]:
            c.size[ino] = end
        self._store(ino).write(offset, data)

    def truncate(self, ino: int, length: int = 0) -> None:
        c = self.cols
        if c.is_dir[ino]:
            raise IsADir(f"inode {ino}")
        c.size[ino] = length
        store = self._content.get(ino)
        if store is not None:
            store.truncate(length)

    def read(self, ino: int, offset: int, length: int) -> bytes:
        """Read materialised content (functional mode only)."""
        c = self.cols
        if c.is_dir[ino]:
            raise IsADir(f"inode {ino}")
        length = max(0, min(length, int(c.size[ino]) - offset))
        c.read_ops[ino] += 1
        c.bytes_read[ino] += length
        store = self._content.get(ino)
        if store is None:
            return b"\x00" * length
        return store.read(offset, length)

    def account_read(self, ino: int, length: int) -> None:
        """Record a synthetic read without materialised content."""
        self.cols.read_ops[ino] += 1
        self.cols.bytes_read[ino] += length

    def size_of(self, ino: int) -> int:
        return int(self.cols.size[ino])

    def corrupt(self, path: str, offset: int = 0, nbytes: int = 1) -> None:
        """Flip bits in a file's content (fault injection for the
        resilience tests — the paper's §VI names "evaluating and
        improving resilience capabilities" as future work).

        Hole-backed extents (synthetic payloads, sparse regions that were
        never materialised) read back as zeros, so corrupting them
        materialises the zeros first and flips those — fault plans can
        target sparse checkpoint regions just like dense ones.
        """
        ino = self.lookup(path)
        c = self.cols
        if c.is_dir[ino]:
            raise IsADir(f"inode {ino}")
        store = self._store(ino)
        end = min(offset + nbytes, max(int(c.size[ino]), len(store)))
        if end <= offset:
            raise ValueError("corruption range outside file content")
        original = store.read(offset, end - offset)
        store.write(offset, bytes(b ^ 0xFF for b in original))

    # -- traversal --------------------------------------------------------

    def listdir(self, path: str) -> list[str]:
        ino = self.lookup(path)
        if not self.cols.is_dir[ino]:
            raise NotADir(normalize(path))
        return sorted(self._children[ino])

    def walk(self, path: str = "/") -> Iterator[tuple[str, list[str], list[str]]]:
        """Like :func:`os.walk` over the virtual tree."""
        path = normalize(path)
        ino = self.lookup(path)
        if not self.cols.is_dir[ino]:
            raise NotADir(path)
        dirs, files = [], []
        for name, child in sorted(self._children[ino].items()):
            (dirs if self.cols.is_dir[child] else files).append(name)
        yield path, dirs, files
        for d in dirs:
            sub = path.rstrip("/") + "/" + d
            yield from self.walk(sub)

    def files_under(self, path: str = "/") -> list[str]:
        """All regular-file paths under a subtree (sorted)."""
        out: list[str] = []
        for dirpath, _dirs, files in self.walk(path):
            prefix = dirpath.rstrip("/")
            out.extend(f"{prefix}/{f}" for f in files)
        return sorted(out)

    def subtree_file_sizes(self, path: str = "/") -> np.ndarray:
        """Sizes of all regular files under a subtree, as an array, in
        the sorted-path order of :meth:`files_under`.

        This is what the Table II reproduction aggregates (count, average,
        maximum).  The walk collects inodes without building a path per
        file.
        """
        path = normalize(path)
        ino = self.lookup(path)
        if not self.cols.is_dir[ino]:
            raise NotADir(path)
        inos: list[int] = []
        self._collect_files(ino, inos)
        return self.cols.size[np.asarray(inos, dtype=np.int64)]

    def _collect_files(self, dino: int, out: list[int]) -> None:
        """Append the regular-file inodes under directory ``dino`` in
        full-path order.

        Sorting a directory's entries by name, with ``/`` appended to
        subdirectory names, orders them as their full paths sort: ``b/x``
        follows ``b.txt`` because ``/`` sorts after ``.``.
        """
        children = self._children[dino]
        is_dir = self.cols.is_dir[np.fromiter(
            children.values(), dtype=np.int64, count=len(children))].tolist()
        if not any(is_dir):
            out.extend(ino for _name, ino in sorted(children.items()))
            return
        for _key, ino, sub in sorted(
                (name + "/" if sub else name, ino, sub)
                for (name, ino), sub in zip(children.items(), is_dir)):
            if sub:
                self._collect_files(ino, out)
            else:
                out.append(ino)

    @property
    def nfiles(self) -> int:
        """Number of live regular files."""
        c = self.cols
        n = len(c)
        live = ~c.removed[:n] & ~c.is_dir[:n]
        return int(live.sum())


class _Spilled:
    """One segment's bytes parked in the shared spill file."""

    __slots__ = ("file", "off", "length")

    def __init__(self, file, off: int, length: int):
        self.file = file
        self.off = off
        self.length = length

    def __len__(self) -> int:
        return self.length


class ExtentStore:
    """Sparse byte storage for one file's materialised content.

    Content lives as a sorted list of non-overlapping segments, so a
    write at offset N costs bytes-actually-written, not N zero bytes of
    backing store — a 1 TiB-offset checkpoint extent is two ints and
    the payload.  Holes read back as zeros.  Resident bytes are charged
    to the ``vfs`` memory account (when one is wired up), and
    :meth:`spill` parks segments in a real scratch file under quota
    pressure; spilled segments are read back transparently and pulled
    into memory again only when a write overlaps them.
    """

    __slots__ = ("_starts", "_segs", "_end", "_resident", "account",
                 "last_touch")

    def __init__(self, account=None):
        self._starts: list[int] = []
        self._segs: list = []
        self._end = 0
        self._resident = 0
        self.account = account
        self.last_touch = 0

    # -- internals ------------------------------------------------------

    def _seg_end(self, i: int) -> int:
        return self._starts[i] + len(self._segs[i])

    @staticmethod
    def _load(seg) -> bytes:
        if isinstance(seg, _Spilled):
            seg.file.seek(seg.off)
            return seg.file.read(seg.length)
        return bytes(seg)

    def _adjust(self, delta: int) -> None:
        self._resident += delta
        if self.account is not None:
            if delta > 0:
                self.account.charge(delta)
            elif delta < 0:
                self.account.release(-delta)

    # -- the byte API ---------------------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        n = len(data)
        end = offset + n
        if end > self._end:
            self._end = end
        if n == 0:
            return
        starts = self._starts
        # first segment overlapping or adjacent to [offset, end)
        i = bisect.bisect_left(starts, offset)
        if i > 0 and self._seg_end(i - 1) >= offset:
            i -= 1
        j = i
        while j < len(starts) and starts[j] <= end:
            j += 1
        if i == j:  # disjoint: plain insert
            starts.insert(i, offset)
            self._segs.insert(i, bytearray(data))
            self._adjust(n)
            return
        if j == i + 1 and offset >= starts[i]:
            seg = self._segs[i]
            if not isinstance(seg, _Spilled):
                # one resident segment, written inside or at its end:
                # overwrite/extend in place, so k appends cost O(k)
                old_len = len(seg)
                s = offset - starts[i]
                seg[s:s + n] = data
                self._adjust(len(seg) - old_len)
                return
        new_start = min(offset, starts[i])
        new_end = max(end, self._seg_end(j - 1))
        buf = bytearray(new_end - new_start)
        freed = 0
        for k in range(i, j):
            seg = self._segs[k]
            s = starts[k] - new_start
            buf[s:s + len(seg)] = self._load(seg)
            if not isinstance(seg, _Spilled):
                freed += len(seg)
        buf[offset - new_start:offset - new_start + n] = data
        del starts[i:j]
        del self._segs[i:j]
        starts.insert(i, new_start)
        self._segs.insert(i, buf)
        self._adjust(len(buf) - freed)

    def read(self, offset: int, length: int) -> bytes:
        out = bytearray(length)
        starts = self._starts
        end = offset + length
        i = bisect.bisect_left(starts, offset)
        if i > 0 and self._seg_end(i - 1) > offset:
            i -= 1
        while i < len(starts) and starts[i] < end:
            s = starts[i]
            seg = self._segs[i]
            lo = max(offset, s)
            hi = min(end, s + len(seg))
            if isinstance(seg, _Spilled):
                seg.file.seek(seg.off + (lo - s))
                out[lo - offset:hi - offset] = seg.file.read(hi - lo)
            else:
                out[lo - offset:hi - offset] = seg[lo - s:hi - s]
            i += 1
        return bytes(out)

    def truncate(self, length: int) -> None:
        if length < self._end:
            self._end = length
        starts = self._starts
        i = bisect.bisect_left(starts, length)
        if i > 0 and self._seg_end(i - 1) > length:
            k = i - 1
            seg = self._segs[k]
            keep = length - starts[k]
            if isinstance(seg, _Spilled):
                seg.length = keep
            else:
                freed = len(seg) - keep
                del seg[keep:]
                self._adjust(-freed)
        if i < len(starts):
            freed = sum(len(s) for s in self._segs[i:]
                        if not isinstance(s, _Spilled))
            del starts[i:]
            del self._segs[i:]
            self._adjust(-freed)

    def __len__(self) -> int:
        return self._end

    # -- memory plane ---------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held in host memory (excludes spilled)."""
        return self._resident

    def spill(self, alloc) -> int:
        """Park every resident segment via ``alloc(bytes) -> _Spilled``.

        Returns the bytes moved out of memory.  Reads keep working
        (served from the spill file); a later overlapping write pulls
        the affected segments back into memory.
        """
        moved = 0
        for k, seg in enumerate(self._segs):
            if not isinstance(seg, _Spilled):
                self._segs[k] = alloc(bytes(seg))
                moved += len(seg)
        if moved:
            self._adjust(-moved)
            if self.account is not None:
                self.account.note_spill(moved)
        return moved

    def discard(self) -> None:
        """Drop all content, releasing the account (file unlinked)."""
        if self._resident:
            self._adjust(-self._resident)
        self._starts.clear()
        self._segs.clear()
        self._end = 0

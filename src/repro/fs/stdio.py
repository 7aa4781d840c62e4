"""Buffered stdio layer (``FILE*`` semantics) on top of the POSIX layer.

BIT1's original output goes through the C standard I/O library (§II-C):
``fopen``/``fprintf``/``fwrite`` with a user-space buffer that is flushed
in buffer-sized chunks, each flush hitting the filesystem as a small
write.  The paper's original-I/O bottleneck is exactly this pattern —
many small synced writes — so the layer reproduces it faithfully:

* writes accumulate in a ``bufsize`` buffer (default 8 KiB, glibc-ish);
* each flush issues one POSIX write of at most ``bufsize`` bytes;
* with ``sync_on_flush=True`` every flush is committed with fsync, the
  conservative behaviour BIT1 uses so that diagnostics survive crashes.

``fprintf`` formats real text in functional mode; synthetic payloads
pass through by size.

Accounting: every flush/sync lands on the POSIX layer with
``api="STDIO"``, so it reaches the :mod:`repro.trace` bus as a typed
event attributed to ``layer="stdio"`` — the Darshan STDIO module and any
trace exporters consume the same event stream.
"""

from __future__ import annotations

import numpy as np

from repro.fs.payload import Payload, RealPayload, SyntheticPayload, as_payload
from repro.fs.posix import PosixIO

DEFAULT_BUFSIZE = 8192


class StdioFile:
    """One buffered stream, bound to a rank."""

    def __init__(self, posix: PosixIO, rank: int, path: str, mode: str = "w",
                 bufsize: int = DEFAULT_BUFSIZE, sync_on_flush: bool = False,
                 *, _fd: int | None = None):
        if mode not in ("w", "a", "r"):
            raise ValueError(f"unsupported stdio mode {mode!r}")
        self.posix = posix
        self.rank = rank
        self.path = path
        self.mode = mode
        self.bufsize = bufsize
        self.sync_on_flush = sync_on_flush
        self._buffer = bytearray()
        self._synthetic_pending = 0
        self._synthetic_entropy = "ascii_table"
        self._closed = False
        self.fd = _fd if _fd is not None else posix.open(
            rank, path,
            create=mode in ("w", "a"),
            truncate=mode == "w",
            append=mode == "a",
            api="STDIO",
        )

    @classmethod
    def open_group(cls, posix: PosixIO, ranks, paths, mode: str = "w",
                   bufsize: int = DEFAULT_BUFSIZE,
                   sync_on_flush: bool = False) -> "list[StdioFile]":
        """Batch-``fopen`` one stream per rank (one metadata group op).

        The descriptors come from :meth:`PosixIO.open_group`, so opening
        N per-rank files costs one vectorised create instead of N
        namespace walks; the returned streams behave exactly like
        individually constructed ones.
        """
        if mode not in ("w", "a"):
            raise ValueError(f"unsupported stdio group mode {mode!r}")
        ranks = np.asarray(ranks)
        paths = list(paths)
        fds = posix.open_group(ranks, paths, create=True,
                               truncate=mode == "w", append=mode == "a",
                               api="STDIO")
        return [
            cls(posix, rank, path, mode, bufsize, sync_on_flush, _fd=fd)
            for rank, path, fd in zip(ranks.tolist(), paths, fds.tolist())
        ]

    @staticmethod
    def fclose_group(files: "list[StdioFile]") -> None:
        """Flush every stream, then retire all descriptors in one group op."""
        live = [f for f in files if not f._closed]
        if not live:
            return
        for f in live:
            f.fflush()
        posix = live[0].posix
        posix.close_group(np.asarray([f.rank for f in live]),
                          np.asarray([f.fd for f in live]), api="STDIO")
        for f in live:
            f._closed = True

    # -- writing ------------------------------------------------------------

    def fwrite(self, data: Payload | bytes | np.ndarray) -> int:
        """Buffered write; flushes in ``bufsize`` chunks as the buffer fills."""
        self._check_writable()
        payload = as_payload(data, entropy="ascii_table")
        n = payload.nbytes
        if isinstance(payload, SyntheticPayload):
            if self._buffer:  # preserve byte order across mode switches
                chunk = bytes(self._buffer)
                self._buffer.clear()
                self._emit(RealPayload(chunk, entropy="ascii_table"))
            self._synthetic_pending += n
            self._synthetic_entropy = payload.entropy
            self._drain_synthetic(final=False)
            return n
        if self._synthetic_pending:
            self._drain_synthetic(final=True)
        self._buffer.extend(payload.tobytes())
        while len(self._buffer) >= self.bufsize:
            chunk = bytes(self._buffer[: self.bufsize])
            del self._buffer[: self.bufsize]
            self._emit(RealPayload(chunk, entropy="ascii_table"))
        return n

    def fprintf(self, fmt: str, *args) -> int:
        """Formatted text write (functional mode)."""
        text = (fmt % args) if args else fmt
        return self.fwrite(text.encode())

    def _drain_synthetic(self, final: bool) -> None:
        whole = self._synthetic_pending // self.bufsize
        if whole > 0:
            nbytes = whole * self.bufsize
            self._synthetic_pending -= nbytes
            self.posix.write(
                self.rank, self.fd,
                SyntheticPayload(nbytes, self._synthetic_entropy),
                chunk_size=self.bufsize,
                sync_each_chunk=self.sync_on_flush,
                api="STDIO",
            )
        if final and self._synthetic_pending:
            self.posix.write(
                self.rank, self.fd,
                SyntheticPayload(self._synthetic_pending, self._synthetic_entropy),
                chunk_size=self.bufsize,
                sync_each_chunk=self.sync_on_flush,
                api="STDIO",
            )
            self._synthetic_pending = 0

    def _emit(self, payload: Payload) -> None:
        self.posix.write(self.rank, self.fd, payload, api="STDIO")
        if self.sync_on_flush:
            self.posix.fsync(self.rank, self.fd, api="STDIO")

    def fflush(self) -> None:
        """Flush whatever is buffered."""
        self._check_writable()
        self._drain_synthetic(final=True)
        if self._buffer:
            chunk = bytes(self._buffer)
            self._buffer.clear()
            self._emit(RealPayload(chunk, entropy="ascii_table"))

    # -- reading --------------------------------------------------------------

    def fread(self, nbytes: int) -> bytes:
        if self.mode != "r":
            raise OSError("file not open for reading")
        return self.posix.read(self.rank, self.fd, nbytes, api="STDIO")

    def read_all(self) -> bytes:
        size = self.posix.fs.vfs.size_of(self.posix.ino_of(self.fd))
        return self.fread(size)

    # -- lifecycle --------------------------------------------------------------

    def fclose(self) -> None:
        if self._closed:
            return
        if self.mode in ("w", "a"):
            self.fflush()
        self.posix.close(self.rank, self.fd)
        self._closed = True

    def abandon(self) -> None:
        """Drop the stream as a crashed process would: buffered bytes are
        lost and the descriptor is reaped without close cost."""
        if self._closed:
            return
        self._buffer.clear()
        self._synthetic_pending = 0
        self.posix.release_fds(self.fd)
        self._closed = True

    def _check_writable(self) -> None:
        if self._closed:
            raise OSError("stream is closed")
        if self.mode == "r":
            raise OSError("file not open for writing")

    def __enter__(self) -> "StdioFile":
        return self

    def __exit__(self, *exc) -> None:
        self.fclose()


def fopen(posix: PosixIO, rank: int, path: str, mode: str = "w",
          **kw) -> StdioFile:
    """C-flavoured constructor, mirroring the functions the paper names."""
    return StdioFile(posix, rank, path, mode, **kw)

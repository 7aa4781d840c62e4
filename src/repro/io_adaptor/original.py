"""BIT1's original file I/O: per-rank stdio files, formatted text, fsync.

The baseline the paper measures first (§IV, Figs. 2-5): every rank owns
a diagnostics file (``*.dat``) and a checkpoint file (``*.dmp``) plus six
global files maintained by rank 0.  Output goes through buffered stdio;
checkpoint chunks are fsynced for crash safety (the conservative pattern
whose metadata cost Darshan exposes — 17.868 s/process at 200 nodes).

"While the original version of BIT1's serial output functioned well for
runs using up to 20,000 MPI Processes, larger simulations presented
challenges" (§II) — this writer *is* that output path, faithfully slow.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.fs.payload import RealPayload
from repro.fs.posix import PosixIO
from repro.fs.stdio import DEFAULT_BUFSIZE, StdioFile
from repro.mpi.comm import VirtualComm

class CorruptCheckpointError(RuntimeError):
    """A .dmp file failed its checksum during restart.

    Carries structured ``context`` (path, rank, step, species,
    expected/actual checksum) so restart orchestration can report the
    damaged file precisely.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 rank: int | None = None, step: int | None = None,
                 species: str | None = None, expected: int | None = None,
                 actual: int | None = None):
        super().__init__(message)
        self.context = {"path": path, "rank": rank, "step": step,
                        "species": species, "expected": expected,
                        "actual": actual}


#: the global (rank-0) files of a BIT1 run
GLOBAL_FILES = (
    "input.echo",      # the input deck as parsed
    "run.log",         # progress log
    "history.dat",     # total particle number time history
    "fluxes.dat",      # wall particle/power fluxes
    "energy.dat",      # energy accounting
    "restart.info",    # which .dmp set is current
)


class OriginalIOWriter:
    """The original BIT1 output path (functional, small-scale)."""

    def __init__(self, posix: PosixIO, comm: VirtualComm, outdir: str,
                 prefix: str = "bit1", bufsize: int = DEFAULT_BUFSIZE,
                 fsync_checkpoints: bool = True):
        self.posix = posix
        self.comm = comm
        self.outdir = outdir.rstrip("/")
        self.prefix = prefix
        self.bufsize = bufsize
        self.fsync_checkpoints = fsync_checkpoints
        if not posix.exists(self.outdir):
            posix.mkdir(0, self.outdir, parents=True)
        self._globals: dict[str, StdioFile] = {}
        self._events = 0

    # -- paths ---------------------------------------------------------------

    def dat_path(self, rank: int) -> str:
        return f"{self.outdir}/{self.prefix}_r{rank:05d}.dat"

    def dmp_path(self, rank: int) -> str:
        return f"{self.outdir}/{self.prefix}_r{rank:05d}.dmp"

    def _global(self, name: str) -> StdioFile:
        f = self._globals.get(name)
        if f is None:
            f = StdioFile(self.posix, 0, f"{self.outdir}/{name}", "w",
                          bufsize=self.bufsize)
            self._globals[name] = f
        return f

    # -- diagnostics (.dat every `datfile` steps) --------------------------------

    def write_diagnostics(self, sim, step: int) -> None:
        """Append formatted diagnostic tables, one file per rank."""
        dists = sim.diagnostics.snapshot(reset=True)
        nranks = self.comm.size
        with self.posix.phase(writers=nranks, md_clients=nranks):
            # batched fan-out: one group create for all per-rank .dat
            # files, per-rank formatted content, one group close — the
            # text each rank writes is identical to the scalar loop's
            files = StdioFile.open_group(
                self.posix, np.arange(nranks),
                [self.dat_path(r) for r in range(nranks)], "a",
                bufsize=self.bufsize)
            dist_lines = [
                (" ".join(f"{v:.6e}" for v in dist.velocity).encode() + b"\n")
                for dist in dists.values()
            ]
            # per-rank counts and weights, read from the rank-major stores
            tallies = [(name, store.counts.tolist(),
                        store.rank_sums(store.weights()).tolist())
                       for name, store in sim.merged_species().items()]
            for rank, f in enumerate(files):
                f.fprintf("# step %d\n", step)
                for name, counts, weights in tallies:
                    f.fprintf("%s count %d weight %.6e\n", name,
                              counts[rank], weights[rank])
                for (name, dist), line in zip(dists.items(), dist_lines):
                    # averaged distribution functions, fixed-width text
                    f.fprintf("# %s velocity df (%d samples)\n",
                              name, dist.samples)
                    f.fwrite(line)
            StdioFile.fclose_group(files)
        self._write_global_logs(sim, step)
        self._events += 1

    def _write_global_logs(self, sim, step: int) -> None:
        log = self._global("run.log")
        log.fprintf("step %d complete\n", step)
        log.fflush()
        hist = self._global("history.dat")
        for name in sim.species_names():
            series = sim.history.series(name)
            if len(series):
                hist.fprintf("%d %s %.6e\n", step, name, series[-1])
        hist.fflush()
        flux = self._global("fluxes.dat")
        for name, wf in sim.walls.fluxes.items():
            flux.fprintf("%d %s %.6e %.6e %.6e %.6e\n", step, name,
                         *wf.as_row())
        flux.fflush()

    # -- checkpoints (.dmp every `dmpstep` steps) -----------------------------------

    def write_checkpoint(self, sim, step: int) -> None:
        """Dump every rank's full particle state (binary, fsynced chunks).

        The file is rewritten in place each time — ``dmpstep`` "determines
        when the simulated system's current state is saved" and only the
        latest state is kept.
        """
        nranks = self.comm.size
        with self.posix.phase(writers=nranks, md_clients=nranks):
            # group create/truncate of every .dmp, then per-rank content
            # (headers and CRC blocks are rank-specific), group close
            ranks = np.arange(nranks)
            fds = self.posix.open_group(
                ranks, [self.dmp_path(r) for r in range(nranks)],
                create=True, truncate=True, api="STDIO")
            for rank in range(nranks):
                fd = int(fds[rank])
                header = (f"BIT1 dmp step={step} rank={rank} "
                          f"nspecies={len(sim.config.species)}\n").encode()
                self.posix.write(rank, fd, RealPayload(header, "ascii_table"))
                state = sim.state_arrays(rank)
                for name in sorted(state):
                    arrays = state[name]
                    n = len(arrays["x"])
                    block = np.stack([
                        arrays["x"], arrays["vx"], arrays["vy"], arrays["vz"],
                        arrays["weight"],
                    ]).astype(np.float64) if n else np.zeros((5, 0))
                    crc = zlib.crc32(block.tobytes())
                    block_header = (f"species={name} n={n} "
                                    f"crc={crc}\n").encode()
                    self.posix.write(
                        rank, fd, RealPayload(block_header, "ascii_table"))
                    if n == 0:
                        continue
                    self.posix.write(
                        rank, fd, RealPayload(block, "particle_float32"),
                        chunk_size=self.bufsize,
                        sync_each_chunk=self.fsync_checkpoints,
                    )
            self.posix.close_group(ranks, fds, api="STDIO")
        info = self._global("restart.info")
        info.fprintf("last_dmp_step = %d\n", step)
        info.fflush()

    def read_checkpoint(self, sim, rank: int) -> dict:
        """Load one rank's .dmp back (restart support)."""
        fd = self.posix.open(rank, self.dmp_path(rank), api="STDIO")
        size = self.posix.fs.vfs.size_of(self.posix.ino_of(fd))
        blob = self.posix.read(rank, fd, size)
        self.posix.close(rank, fd)
        pos = blob.index(b"\n") + 1
        header = blob[: pos - 1].decode()
        fields = dict(kv.split("=") for kv in header.split()[2:])
        nspecies = int(fields["nspecies"])
        out: dict[str, dict[str, np.ndarray]] = {}
        for _ in range(nspecies):
            nl = blob.index(b"\n", pos)
            block_header = blob[pos:nl].decode()
            pos = nl + 1
            kv = dict(part.split("=") for part in block_header.split())
            name, n = kv["species"], int(kv["n"])
            nbytes = 5 * n * 8
            body = blob[pos:pos + nbytes]
            expected_crc = int(kv.get("crc", "0"))
            if expected_crc and zlib.crc32(body) != expected_crc:
                raise CorruptCheckpointError(
                    f"rank {rank} .dmp species {name!r}: checksum mismatch "
                    f"— the checkpoint is corrupt, restart refused",
                    path=self.dmp_path(rank), rank=rank,
                    step=int(fields.get("step", 0)), species=name,
                    expected=expected_crc, actual=zlib.crc32(body))
            data = np.frombuffer(body, dtype=np.float64)
            pos += nbytes
            rows = data.reshape(5, n) if n else np.zeros((5, 0))
            out[name] = {"x": rows[0], "vx": rows[1], "vy": rows[2],
                         "vz": rows[3], "weight": rows[4]}
        return out

    # -- lifecycle ------------------------------------------------------------------------

    def abandon(self) -> None:
        """Drop the writer as a crashed job would: no flush, no close I/O."""
        for f in self._globals.values():
            f.abandon()
        self._globals.clear()

    def finalize(self, sim) -> None:
        echo = self._global("input.echo")
        echo.fwrite(sim.config.to_input_file().encode())
        energy = self._global("energy.dat")
        for name, parts in sim.merged_species().items():
            energy.fprintf("%s kinetic_energy %.6e\n", name,
                           parts.kinetic_energy())
        for f in self._globals.values():
            f.fclose()
        self._globals.clear()

"""Checkpoint/restart support (§III-B: "robust checkpointing and
restoration mechanisms").

Restores a :class:`~repro.pic.simulation.Bit1Simulation` from either
output format:

* the openPMD checkpoint series (``*_dmp.bp4`` iteration 0) — global
  arrays are re-split over the current communicator by position, so
  restarting on a different rank count works;
* the original per-rank ``.dmp`` files — same decomposition as the
  writing run.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.fs.posix import PosixIO
from repro.io_adaptor.naming import species_path
from repro.io_adaptor.original import OriginalIOWriter
from repro.mpi.comm import VirtualComm
from repro.openpmd.series import Access, Series


def serialize_node_state(sim, ranks) -> bytes:
    """One node's checkpoint shard: every resident rank's phase space.

    The byte representation is deterministic for identical state (numpy
    arrays pickle by buffer), so shard CRCs and XOR parity are stable —
    the property the resilience plane's bit-identity contract rests on.
    """
    return pickle.dumps(
        {int(r): sim.state_arrays(int(r)) for r in ranks}, protocol=4)


def apply_node_state(sim, blob: bytes) -> None:
    """Restore the ranks recorded in one shard (inverse of serialize)."""
    for rank, state in pickle.loads(blob).items():
        sim.restore_state(rank, state)


def restore_from_openpmd(sim, posix: PosixIO, comm: VirtualComm,
                         path: str) -> int:
    """Load iteration 0 of a checkpoint series into ``sim``.

    Returns the checkpoint's step number (0 if not recorded).  Particles
    are re-assigned to ranks by position, so the restart communicator may
    differ from the writer's.
    """
    from repro.fs.vfs import FileNotFound

    try:
        series = Series(posix, comm, path, Access.READ_ONLY)
    except FileNotFound as exc:
        raise ValueError(
            f"{path} holds no checkpoint series (never flushed?)") from exc
    iterations = series.read_iterations()
    if 0 not in iterations:
        raise ValueError(f"{path} holds no iteration 0 checkpoint")
    for name in sim.species_names():
        sp = species_path(name)
        try:
            x = series.load_particles(0, sp, "position", "x")
        except KeyError:
            continue
        vx = series.load_particles(0, sp, "momentum", "x")
        vy = series.load_particles(0, sp, "momentum", "y")
        vz = series.load_particles(0, sp, "momentum", "z")
        w = series.load_particles(0, sp, "weighting")
        starts = np.array([s.x_min for s in sim.subdomains])
        dest = np.clip(np.searchsorted(starts, x, side="right") - 1,
                       0, comm.size - 1)
        # one stable sort lays the particles out rank-major, keeping
        # file order within each rank
        order = np.argsort(dest, kind="stable")
        sim.restore_species(
            name, np.bincount(dest, minlength=comm.size),
            {"x": x[order], "vx": vx[order], "vy": vy[order],
             "vz": vz[order], "weight": w[order]})
    step = int(getattr(series.engine, "attributes", {}).get(
        "/data/0/checkpointStep", 0))
    series.close()
    return step


def restore_from_original(sim, writer: OriginalIOWriter) -> None:
    """Load every rank's ``.dmp`` back into ``sim`` (same rank count)."""
    for rank in range(writer.comm.size):
        state = writer.read_checkpoint(sim, rank)
        sim.restore_state(rank, state)

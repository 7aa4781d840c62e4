"""Particle-to-grid interpolation (CIC charge/density deposition).

Phase 1 of the PIC cycle (§II): "plasma density calculation using
particle-to-grid interpolation".  First-order cloud-in-cell weighting
onto grid nodes, fully vectorised with one ``np.bincount`` over the
concatenated left/right node contributions — bincount accumulates its
input sequentially, so the result is bit-identical to the classic
``np.add.at`` pair while avoiding its unbuffered-ufunc overhead.

The per-rank forms (:func:`deposit_density_ranks`,
:func:`gather_field_ranks`) serve a rank-major particle store: every
rank's density in one bincount over ``rank * nnodes + node``, and each
particle reading its own rank's row.  The one-rank functions are their
single-rank case.
"""

from __future__ import annotations

import numpy as np

from repro.pic.grid import Grid1D


def _cic(grid: Grid1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left node and fractional offset of every position."""
    xi = np.asarray(x) / grid.dx
    left = np.floor(xi).astype(np.int64)
    # clip into [0, ncells - 1] (integer min/max: np.clip's exact result
    # without its per-call Python wrapper)
    np.maximum(left, 0, out=left)
    np.minimum(left, grid.ncells - 1, out=left)
    return left, xi - left


def deposit_density_ranks(grid: Grid1D, particles, counts) -> np.ndarray:
    """Per-rank node densities [m^-3], shape ``(len(counts), nnodes)``.

    ``particles`` holds the ranks' particles in rank-major order,
    ``counts[r]`` of them for rank r.  Each row equals a separate
    deposit of that rank's particles, bit for bit: the bincount adds
    every rank's left-node terms, then its right-node terms, each in
    particle order — the order a one-rank deposit adds them in.
    """
    nranks = len(counts)
    nnodes = grid.nnodes
    x = particles.positions()
    if len(x) == 0:
        return np.zeros((nranks, nnodes))
    w = particles.weights()
    left, frac = _cic(grid, x)
    if nranks > 1:
        left = left + np.repeat(np.arange(nranks) * nnodes, counts)
    # one concatenated bincount: all left-node contributions land
    # before any right-node ones, matching the accumulation order of
    # np.add.at(density, left, ...) followed by np.add.at(..., left+1)
    density = np.bincount(
        np.concatenate([left, left + 1]),
        weights=np.concatenate([w * (1.0 - frac), w * frac]),
        minlength=nranks * nnodes)
    volume = np.full(nnodes, grid.dx)
    volume[0] = volume[-1] = grid.dx / 2.0
    return density.reshape(nranks, nnodes) / volume


def deposit_density(grid: Grid1D, particles) -> np.ndarray:
    """Number density on grid nodes [m^-3] from CIC deposition.

    Each particle of weight w contributes w×(1−f) to its left node and
    w×f to the right node, where f is the fractional cell position.
    Node volumes are dx (half at the domain ends), so total weight is
    conserved: ``sum(density * volume) == sum(weights)``.
    """
    return deposit_density_ranks(grid, particles, [len(particles)])[0]


def deposit_charge(grid: Grid1D, species: list) -> np.ndarray:
    """Net charge density [C/m^3] from all species."""
    rho = np.zeros(grid.nnodes)
    for sp in species:
        if sp.charge != 0.0:
            rho += sp.charge * deposit_density(grid, sp)
    return rho


def _interpolate(field: np.ndarray, left: np.ndarray,
                 frac: np.ndarray) -> np.ndarray:
    return field[left] * (1.0 - frac) + field[left + 1] * frac


def gather_field(grid: Grid1D, field: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Grid-to-particle interpolation (the transpose of CIC deposit)."""
    field = np.asarray(field)
    if field.shape != (grid.nnodes,):
        raise ValueError(
            f"field must live on the {grid.nnodes} nodes, got {field.shape}"
        )
    left, frac = _cic(grid, x)
    return _interpolate(field, left, frac)


def gather_field_ranks(grid: Grid1D, fields: np.ndarray, x: np.ndarray,
                       rank: np.ndarray) -> np.ndarray:
    """Per-rank gather: particle i reads row ``rank[i]`` of ``fields``."""
    fields = np.asarray(fields)
    if fields.ndim != 2 or fields.shape[1] != grid.nnodes:
        raise ValueError(
            f"fields must be (nranks, {grid.nnodes}), got {fields.shape}")
    left, frac = _cic(grid, x)
    return _interpolate(fields.ravel(), left + rank * grid.nnodes, frac)

"""Particle mover — phase 5 of the PIC cycle.

"Advancing particle positions and velocities through time" (§II).
Electrostatic 1D3V leapfrog: the electric field accelerates vx, the
magnetic-field-free transverse velocities coast, positions stream.
"""

from __future__ import annotations

import numpy as np

from repro.pic.deposit import gather_field
from repro.pic.grid import Grid1D
from repro.pic.species import ParticleArrays


def accelerate(grid: Grid1D, particles: ParticleArrays,
               efield: np.ndarray, dt: float) -> None:
    """Half/full kick: vx += (q/m) E(x) dt (in place)."""
    n = len(particles)
    if n == 0 or particles.charge == 0.0:
        return
    e_here = gather_field(grid, efield, particles.positions())
    particles.vx[:n] += (particles.charge / particles.mass) * e_here * dt


def stream(particles: ParticleArrays, dt: float) -> None:
    """Drift: x += vx dt (in place)."""
    n = len(particles)
    particles.x[:n] += particles.vx[:n] * dt


def apply_periodic(particles: ParticleArrays, length: float) -> None:
    """Wrap positions into [0, length)."""
    x = particles.x[:len(particles)]
    # np.mod returns x itself for 0 < x < length, so only the rest (the
    # few that crossed an end, and zeros, which it makes +0.0) need it
    wrap = ~((x > 0.0) & (x < length))
    if wrap.any():
        wrapped = np.mod(x[wrap], length)
        # a tiny negative x rounds up to exactly ``length`` (np.mod(-1e-19,
        # L) is L); its periodic image is 0.0, inside the domain
        wrapped[wrapped == length] = 0.0
        x[wrap] = wrapped


def leapfrog_step(grid: Grid1D, particles: ParticleArrays,
                  efield: np.ndarray, dt: float,
                  periodic: bool = True) -> None:
    """One full kick-drift step for one species."""
    accelerate(grid, particles, efield, dt)
    stream(particles, dt)
    if periodic:
        apply_periodic(particles, grid.length)


def initial_half_kick(grid: Grid1D, particles: ParticleArrays,
                      efield: np.ndarray, dt: float) -> None:
    """Stagger velocities back half a step (leapfrog initialisation)."""
    accelerate(grid, particles, efield, -0.5 * dt)

"""Elastic electron-neutral collisions (Monte Carlo).

BIT1's MC block handles more than ionization: "the PIC method is usually
complemented by MC routines for simulation of particle collisions" (§II).
This operator implements the standard PIC-MCC elastic channel (Birdsall
[37]): each electron scatters off the local neutral background with
probability ``p = n_D(x)·σv·dt``; a scattering event redraws the
velocity *direction* isotropically while preserving the speed (electron
energy loss to a heavy neutral is O(m_e/m_D), neglected).

The invariants the tests pin: per-particle kinetic energy is exactly
conserved, particle counts never change, and an anisotropic beam
isotropises (⟨v⟩ → 0) at the analytic relaxation rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.pic.deposit import deposit_density_ranks, gather_field_ranks
from repro.pic.grid import Grid1D
from repro.pic.species import ParticleArrays, SpeciesStore


@dataclass
class ElasticStats:
    """Per-step bookkeeping."""

    candidates: int = 0
    scattered: int = 0
    mean_probability: float = 0.0


class ElasticOperator:
    """e + D → e + D elastic scattering at rate coefficient σv [m³/s]."""

    def __init__(self, rate_coefficient: float):
        if rate_coefficient < 0:
            raise ValueError("rate coefficient must be >= 0")
        self.rate = float(rate_coefficient)

    def step(self, grid: Grid1D, electrons: ParticleArrays,
             neutrals: ParticleArrays, dt: float,
             rng: np.random.Generator) -> ElasticStats:
        """Apply one dt of elastic scattering on one rank (mutates
        ``electrons``); the one-rank case of :meth:`step_ranks`."""
        stats = ElasticStats(candidates=len(electrons))
        scattered, prob = self._scatter(
            grid, SpeciesStore.one_rank(electrons),
            SpeciesStore.one_rank(neutrals), dt, [rng])
        stats.scattered = int(scattered[0])
        if len(prob):
            stats.mean_probability = float(prob.mean())
        return stats

    def step_ranks(self, grid: Grid1D, electrons: SpeciesStore,
                   neutrals: SpeciesStore, dt: float,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Elastic scattering on every rank of rank-major stores.

        Rank r draws from ``rngs[r]`` against its own neutral density; a
        rank with no electrons or no neutrals draws nothing.  Returns
        the number scattered per rank.
        """
        return self._scatter(grid, electrons, neutrals, dt, rngs)[0]

    def _scatter(self, grid, electrons, neutrals, dt, rngs):
        nranks = len(rngs)
        n_electron = electrons.counts
        active = (n_electron > 0) & (neutrals.counts > 0)
        if self.rate == 0.0 or not active.any():
            return np.zeros(nranks, dtype=np.int64), np.zeros(0)
        n_d = deposit_density_ranks(grid, neutrals, neutrals.counts)
        rank = electrons.rank_ids()
        x = electrons.positions()
        sel = None if active.all() else active[rank]
        if sel is not None:
            x, rank = x[sel], rank[sel]
        local = gather_field_ranks(grid, n_d, x, rank)
        prob = np.clip(local * self.rate * dt, 0.0, 1.0)
        hit = np.concatenate([rngs[r].random(n_electron[r])
                              for r in np.flatnonzero(active)]) < prob
        scattered = np.bincount(rank[hit], minlength=nranks)
        if not scattered.any():
            return scattered, prob
        if sel is not None:
            sel[sel] = hit
            hit = sel
        n = len(electrons)
        vx = electrons.vx[:n][hit]
        vy = electrons.vy[:n][hit]
        vz = electrons.vz[:n][hit]
        speed = np.sqrt(vx**2 + vy**2 + vz**2)
        # isotropic redirection, uniform on the sphere: each rank draws
        # its cos(theta) then its phi from its own stream
        draws = [(g.uniform(-1.0, 1.0, k), g.uniform(0.0, 2.0 * np.pi, k))
                 for g, k in zip(rngs, scattered.tolist()) if k]
        mu, phi = (np.concatenate(v) for v in zip(*draws))
        sin_theta = np.sqrt(1.0 - mu**2)
        electrons.vx[:n][hit] = speed * mu
        electrons.vy[:n][hit] = speed * sin_theta * np.cos(phi)
        electrons.vz[:n][hit] = speed * sin_theta * np.sin(phi)
        return scattered, prob


def expected_drift_decay(n_neutral: float, rate: float, dt: float,
                         steps: int) -> float:
    """Analytic test oracle: ⟨vx⟩ decay factor after ``steps``.

    Each collision fully randomises direction, so the surviving drift
    fraction is the no-collision probability ``(1 - p)^steps``.
    """
    p = n_neutral * rate * dt
    if not 0 <= p <= 1:
        raise ValueError("n*rate*dt must lie in [0, 1]")
    return float((1.0 - p) ** steps)

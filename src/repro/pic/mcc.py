"""Monte Carlo collisions — phase 4 of the PIC cycle.

"Addressing particle collisions and wall interactions with a MC
technique" (§II).  The paper's use case is electron-impact ionization of
neutrals:  e + D → 2e + D⁺, with the neutral density obeying
∂n/∂t = −n·n_e·R  (§III-C), where R is the ionization rate coefficient.

The implementation samples each neutral's ionization probability
``p = n_e(x) · R · dt`` against the *local* CIC-gathered electron
density, removes ionized neutrals, and spawns an ion (inheriting the
neutral's velocity) plus a secondary electron sampled from the local
electron temperature.  The exponential decay law is an exact invariant
of this scheme in the homogeneous limit — the property tests check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.pic.constants import thermal_speed
from repro.pic.deposit import deposit_density_ranks, gather_field_ranks
from repro.pic.grid import Grid1D
from repro.pic.species import FIELDS, ParticleArrays, SpeciesStore


@dataclass
class IonizationStats:
    """Per-step bookkeeping of the MC ionization operator."""

    candidates: int = 0
    ionized: int = 0
    mean_probability: float = 0.0


class IonizationOperator:
    """e + D → 2e + D⁺ at rate coefficient R [m³/s]."""

    def __init__(self, rate_coefficient: float,
                 secondary_temperature_ev: float = 1.0):
        if rate_coefficient < 0:
            raise ValueError("rate coefficient must be >= 0")
        self.rate = float(rate_coefficient)
        self.secondary_temperature_ev = float(secondary_temperature_ev)

    def step(self, grid: Grid1D, electrons: ParticleArrays,
             ions: ParticleArrays, neutrals: ParticleArrays,
             dt: float, rng: np.random.Generator) -> IonizationStats:
        """Apply one dt of ionization on one rank; mutates all three species.

        The one-rank case of :meth:`step_ranks`.
        """
        stats = IonizationStats(candidates=len(neutrals))
        ionized, prob = self._ionize(
            grid, SpeciesStore.one_rank(electrons),
            SpeciesStore.one_rank(ions), SpeciesStore.one_rank(neutrals),
            dt, [rng])
        stats.ionized = int(ionized[0])
        if len(prob):
            stats.mean_probability = float(prob.mean())
        return stats

    def step_ranks(self, grid: Grid1D, electrons: SpeciesStore,
                   ions: SpeciesStore, neutrals: SpeciesStore, dt: float,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Apply one dt of ionization on every rank of rank-major stores.

        Rank r draws from ``rngs[r]`` and sees only its own electrons,
        exactly as a separate :meth:`step` on its particles would; a rank
        with no neutrals or no electrons draws nothing.  Returns the
        number ionized per rank.
        """
        return self._ionize(grid, electrons, ions, neutrals, dt, rngs)[0]

    def _ionize(self, grid, electrons, ions, neutrals, dt, rngs):
        nranks = len(rngs)
        n_neutral = neutrals.counts
        active = (n_neutral > 0) & (electrons.counts > 0)
        if self.rate == 0.0 or not active.any():
            return np.zeros(nranks, dtype=np.int64), np.zeros(0)
        ne = deposit_density_ranks(grid, electrons, electrons.counts)
        rank = neutrals.rank_ids()
        x = neutrals.positions()
        sel = None if active.all() else active[rank]
        if sel is not None:
            x, rank = x[sel], rank[sel]
        prob = np.clip(gather_field_ranks(grid, ne, x, rank) * self.rate * dt,
                       0.0, 1.0)
        hit = np.concatenate([rngs[r].random(n_neutral[r])
                              for r in np.flatnonzero(active)]) < prob
        ionized = np.bincount(rank[hit], minlength=nranks)
        if not ionized.any():
            return ionized, prob
        if sel is not None:
            sel[sel] = hit
            hit = sel
        converted = neutrals.extract(hit)
        # the ion inherits the neutral's full phase-space state
        ions.append(ionized, *(converted[f] for f in FIELDS))
        # the secondary electron is born thermal at the ionization site;
        # each rank draws its vx, vy, vz in turn from its own stream
        vth = thermal_speed(self.secondary_temperature_ev, electrons.mass)
        draws = [(g.normal(0.0, vth, k), g.normal(0.0, vth, k),
                  g.normal(0.0, vth, k))
                 for g, k in zip(rngs, ionized.tolist()) if k]
        vx, vy, vz = (np.concatenate(v) for v in zip(*draws))
        electrons.append(ionized, converted["x"], vx, vy, vz,
                         converted["weight"])
        return ionized, prob


def expected_survival_fraction(ne: float, rate: float, dt: float,
                               steps: int) -> float:
    """Analytic neutral survival for homogeneous plasma (test oracle).

    Per-step survival is (1 − ne·R·dt); over many steps this approaches
    exp(−ne·R·t), the paper's ∂n/∂t = −n·n_e·R law.
    """
    p = ne * rate * dt
    if not 0 <= p <= 1:
        raise ValueError("ne*R*dt must be within [0, 1] for the MC scheme")
    return float((1.0 - p) ** steps)

"""Wall interactions: absorbing divertor plates with flux accounting.

BIT1 "can log particle and power fluxes to the wall with minor
computational overhead" (§III-B).  With absorbing boundaries, particles
crossing x<0 or x>L are removed and their counts/energies accumulated
per wall — the data behind the paper's flux diagnostics.  Neutrals can
optionally be recycled: re-emitted thermally from the wall they hit
(the plasma-edge recycling loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from repro.pic.constants import thermal_speed
from repro.pic.species import ParticleArrays, SpeciesStore


@dataclass
class WallFluxes:
    """Cumulative per-wall particle and energy fluxes for one species."""

    particles_left: float = 0.0
    particles_right: float = 0.0
    energy_left: float = 0.0
    energy_right: float = 0.0

    def as_row(self) -> tuple[float, float, float, float]:
        return (self.particles_left, self.particles_right,
                self.energy_left, self.energy_right)


class AbsorbingWalls:
    """Removes out-of-domain particles, accumulating wall fluxes."""

    def __init__(self, length: float, recycle_neutrals: bool = False,
                 wall_temperature_ev: float = 0.1):
        if length <= 0:
            raise ValueError("length must be positive")
        self.length = length
        self.recycle_neutrals = recycle_neutrals
        self.wall_temperature_ev = wall_temperature_ev
        self.fluxes: dict[str, WallFluxes] = {}

    def fluxes_for(self, species: str) -> WallFluxes:
        return self.fluxes.setdefault(species, WallFluxes())

    def apply(self, particles: ParticleArrays,
              rng: np.random.Generator | None = None,
              is_neutral: bool = False) -> int:
        """Absorb escapers on one rank; returns the number removed
        (post-recycling).  The one-rank case of :meth:`apply_ranks`."""
        return self.apply_ranks([SpeciesStore.one_rank(particles)], rng,
                                {particles.name} if is_neutral else ())

    def apply_ranks(self, stores: Sequence[SpeciesStore],
                    rng: np.random.Generator | None = None,
                    neutral: Collection[str] = ()) -> int:
        """Absorb every species' escapers on every rank of rank-major
        stores; returns the number removed (post-recycling).

        Each rank's flux sums are added rank by rank, in rank order, and
        a species' flux record is created when its first escaper shows
        in (rank, species) order — what a per-rank, per-species loop of
        :meth:`apply` does.  The species named in ``neutral`` recycle
        (when enabled), drawing rank by rank from the one shared ``rng``.
        """
        escaping = []
        for s, store in enumerate(stores):
            x = store.positions()
            left = x < 0.0
            right = x >= self.length
            gone = left | right
            if gone.any():
                first = int(store.rank_ids()[np.argmax(gone)])
                escaping.append((first, s, left, right, gone))
        for _first, s, *_ in sorted(escaping, key=lambda e: e[:2]):
            self.fluxes_for(stores[s].name)
        removed = 0
        for _first, s, left, right, gone in escaping:
            store = stores[s]
            self._add_fluxes(store, left, right, gone)
            if (store.name in neutral and self.recycle_neutrals
                    and rng is not None):
                self._recycle(store, gone, rng)
            else:
                removed += int(store.remove(gone).sum())
        return removed

    def _add_fluxes(self, store: SpeciesStore, left: np.ndarray,
                    right: np.ndarray, gone: np.ndarray) -> None:
        n = len(store)
        nranks = store.nranks
        flux = self.fluxes[store.name]
        w = store.weight[:n]
        e_per = 0.5 * store.mass * (
            store.vx[:n] ** 2 + store.vy[:n] ** 2 + store.vz[:n] ** 2
        )
        we = w * e_per
        rank = store.rank_ids()
        parts = []
        for side in (left, right):
            per_rank = np.bincount(rank[side], minlength=nranks)
            parts.append((w[side], we[side],
                          np.concatenate([[0], np.cumsum(per_rank)]).tolist()))
        (wl, el, bl), (wr, er, br) = parts
        # rank-order sums of each rank's own partial sums
        for r in np.flatnonzero(np.bincount(rank[gone], minlength=nranks)):
            flux.particles_left += float(wl[bl[r]:bl[r + 1]].sum())
            flux.particles_right += float(wr[br[r]:br[r + 1]].sum())
            flux.energy_left += float(el[bl[r]:bl[r + 1]].sum())
            flux.energy_right += float(er[br[r]:br[r + 1]].sum())

    def _recycle(self, store: SpeciesStore, gone: np.ndarray,
                 rng: np.random.Generator) -> None:
        """Re-emit absorbed neutrals thermally from the wall they hit."""
        counts = np.bincount(store.rank_ids()[gone], minlength=store.nranks)
        removed = store.extract(gone)
        vth = thermal_speed(self.wall_temperature_ev, store.mass)
        draws = [(rng.normal(0.0, vth, k), rng.normal(0.0, vth, k),
                  rng.normal(0.0, vth, k))
                 for k in counts.tolist() if k]
        speed, vy, vz = (np.concatenate(v) for v in zip(*draws))
        from_left = removed["x"] < 0.0
        xw = np.where(from_left, 1e-9, self.length - 1e-9)
        vx = np.abs(speed) * np.where(from_left, 1.0, -1.0)
        store.append(counts, xw, vx, vy, vz, removed["weight"])

"""Particle load balancing — the paper's future-work item (§VI).

"Future research can enhance BIT1's capabilities by prioritizing …
particle load balancing."  In an ionization run the particle population
shifts (neutrals convert to electron/ion pairs wherever n_e is high), so
a static block decomposition drifts out of balance.  This module
repartitions the 1-D grid so every rank owns a contiguous cell range
with approximately equal particle counts, and migrates the particles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pic.grid import Subdomain


@dataclass(frozen=True)
class BalanceReport:
    """Before/after view of one rebalancing pass."""

    before_max: int
    before_mean: float
    after_max: int
    after_mean: float
    migrated: int

    @property
    def before_imbalance(self) -> float:
        """max/mean particle count before (1.0 = perfect)."""
        return self.before_max / max(self.before_mean, 1e-300)

    @property
    def after_imbalance(self) -> float:
        return self.after_max / max(self.after_mean, 1e-300)


def particles_per_cell(sim) -> np.ndarray:
    """Total particle count per grid cell across all ranks/species."""
    counts = np.zeros(sim.grid.ncells, dtype=np.int64)
    for store in sim.merged_species().values():
        counts += np.bincount(sim.grid.cell_of(store.positions()),
                              minlength=sim.grid.ncells)
    return counts


def balanced_partition(cell_counts: np.ndarray, nranks: int) -> list[tuple[int, int]]:
    """Contiguous cell ranges with ~equal particle counts.

    Greedy prefix-sum splitting: rank r gets cells up to where the
    cumulative count first reaches (r+1)/nranks of the total.  Every rank
    keeps at least one cell.
    """
    ncells = len(cell_counts)
    if nranks < 1 or nranks > ncells:
        raise ValueError(f"cannot split {ncells} cells over {nranks} ranks")
    cumulative = np.cumsum(cell_counts, dtype=np.float64)
    total = cumulative[-1]
    if total == 0:
        base, extra = divmod(ncells, nranks)
        bounds, start = [], 0
        for r in range(nranks):
            stop = start + base + (1 if r < extra else 0)
            bounds.append((start, stop))
            start = stop
        return bounds
    targets = total * (np.arange(1, nranks) / nranks)
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    # enforce at least one cell per rank, monotone, within bounds
    cuts = np.clip(cuts, 1, ncells - 1)
    for i in range(1, len(cuts)):
        cuts[i] = max(cuts[i], cuts[i - 1] + 1)
    cuts = np.minimum(cuts, ncells - (nranks - 1 - np.arange(len(cuts))))
    edges = [0, *cuts.tolist(), ncells]
    return [(edges[i], edges[i + 1]) for i in range(nranks)]


def rebalance(sim) -> BalanceReport:
    """Repartition ``sim``'s subdomains by particle count and migrate.

    Mutates the simulation in place; physics is unaffected (particles
    only change owners, never state).
    """
    nranks = sim.comm.size
    stores = sim.merged_species().values()
    per_rank_before = sum(s.counts for s in stores)
    counts = particles_per_cell(sim)
    bounds = balanced_partition(counts, nranks)
    sim.subdomains = [
        Subdomain(rank=r, cell_start=a, cell_stop=b, dx=sim.grid.dx)
        for r, (a, b) in enumerate(bounds)
    ]
    migrated = sim._migrate()
    per_rank_after = sum(s.counts for s in stores)
    return BalanceReport(
        before_max=int(per_rank_before.max()),
        before_mean=float(per_rank_before.mean()),
        after_max=int(per_rank_after.max()),
        after_mean=float(per_rank_after.mean()),
        migrated=migrated,
    )

"""Particle storage: structure-of-arrays per species, rank-major.

BIT1 is 1D3V: one spatial coordinate, three velocity components (§II).
Particles live in growable numpy arrays (the memory-layout optimisation
of Tskhakaya et al. [3] — contiguous per-component arrays) with an
explicit live count, so appends amortise and deletions compact in place
instead of reallocating.

A simulation keeps one :class:`SpeciesStore` per species: every rank's
particles in one set of arrays — rank 0's, then rank 1's, and so on —
with per-rank counts, so each PIC phase runs over a species once per
step instead of once per rank.  Per-rank readers get
:class:`RankParticles` handles onto their rank's segment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pic.constants import thermal_speed

#: the phase-space fields of every particle container, in checkpoint order
FIELDS = ("x", "vx", "vy", "vz", "weight")


class _ParticleReads:
    """The read API shared by every particle container."""

    __slots__ = ()

    @property
    def live(self) -> dict[str, np.ndarray]:
        n = len(self)
        return {f: getattr(self, f)[:n] for f in FIELDS}

    def positions(self) -> np.ndarray:
        return self.x[:len(self)]

    def velocities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self)
        return self.vx[:n], self.vy[:n], self.vz[:n]

    def weights(self) -> np.ndarray:
        return self.weight[:len(self)]

    def kinetic_energy(self) -> float:
        """Total kinetic energy of the live particles [J]."""
        vx, vy, vz = self.velocities()
        w = self.weights()
        return float(0.5 * self.mass * np.sum(w * (vx**2 + vy**2 + vz**2)))

    def total_weight(self) -> float:
        return float(self.weights().sum())


class ParticleArrays(_ParticleReads):
    """SoA particle container for one species (one population)."""

    __slots__ = ("name", "mass", "charge", "x", "vx", "vy", "vz", "weight",
                 "_n")

    def __init__(self, name: str, mass: float, charge: float,
                 capacity: int = 1024):
        self.name = name
        self.mass = float(mass)
        self.charge = float(charge)
        capacity = max(int(capacity), 16)
        self.x = np.zeros(capacity)
        self.vx = np.zeros(capacity)
        self.vy = np.zeros(capacity)
        self.vz = np.zeros(capacity)
        self.weight = np.zeros(capacity)
        self._n = 0

    # -- size management -----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return len(self.x)

    def _ensure(self, extra: int) -> None:
        need = self._n + extra
        if need <= self.capacity:
            return
        new_cap = max(need, self.capacity * 2)
        for field in FIELDS:
            old = getattr(self, field)
            new = np.zeros(new_cap)
            new[: self._n] = old[: self._n]
            setattr(self, field, new)

    # -- mutation ------------------------------------------------------------------

    def add(self, x, vx, vy, vz, weight=1.0) -> None:
        """Append particles (arrays broadcast to a common length)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        k = len(x)
        self._ensure(k)
        n = self._n
        self.x[n:n + k] = x
        # slice assignment broadcasts scalars and checks lengths
        self.vx[n:n + k] = vx
        self.vy[n:n + k] = vy
        self.vz[n:n + k] = vz
        self.weight[n:n + k] = weight
        self._n = n + k

    def remove(self, mask: np.ndarray) -> int:
        """Delete particles where ``mask`` is True; returns removed count.

        Compacts by keeping the survivors in their original order, which
        keeps the arrays dense (BIT1's memory-management optimisation)
        and keeps a restarted run's particle order — and with it every
        later random draw — identical to the uninterrupted run's.
        """
        n = self._n
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"mask must cover the {n} live particles")
        keep = ~mask
        k = int(keep.sum())
        for field in FIELDS:
            arr = getattr(self, field)
            arr[:k] = arr[:n][keep]
        removed = n - k
        self._n = k
        return removed

    def extract(self, mask: np.ndarray) -> dict[str, np.ndarray]:
        """Remove and return the masked particles, both in their order."""
        n = self._n
        mask = np.asarray(mask, dtype=bool)
        out = {f: getattr(self, f)[:n][mask] for f in FIELDS}
        self.remove(mask)
        return out

    def add_dict(self, parts: dict[str, np.ndarray]) -> None:
        if len(parts["x"]):
            self.add(parts["x"], parts["vx"], parts["vy"], parts["vz"],
                     parts["weight"])

    def _permute(self, order: np.ndarray) -> None:
        """Make particle ``i`` the one now at ``order[i]``."""
        n = len(order)
        for field in FIELDS:
            arr = getattr(self, field)
            arr[:n] = arr[:self._n][order]
        self._n = n


class SpeciesStore(_ParticleReads):
    """One species' particles on every rank, in rank-major order.

    Rank 0's particles come first, then rank 1's, and so on;
    :attr:`counts` says how many each rank owns.  Every mutation keeps
    each rank's particle order: removal compacts in place, appends land
    at the end of each rank's segment, and :meth:`permute` applies a
    migration order.  The store reads like a :class:`ParticleArrays`
    over all ranks, so element-wise kernels (the movers) take it as is.
    """

    __slots__ = ("arrays", "_rank_counts", "_rank_bounds", "_rank_ids")

    def __init__(self, arrays, counts):
        self.arrays = arrays
        self._set_counts(counts)

    @classmethod
    def one_rank(cls, arrays) -> "SpeciesStore":
        """A single-rank store over ``arrays`` (mutations reach it)."""
        return cls(arrays, [len(arrays)])

    @classmethod
    def from_ranks(cls, parts: Sequence[ParticleArrays]) -> "SpeciesStore":
        """A new store holding ``parts[r]`` as rank r's particles."""
        first = parts[0]
        counts = [len(p) for p in parts]
        arrays = ParticleArrays(first.name, first.mass, first.charge,
                                capacity=sum(counts))
        for p in parts:
            if len(p):
                arrays.add(*(getattr(p, f)[:len(p)] for f in FIELDS))
        return cls(arrays, counts)

    def _set_counts(self, counts) -> None:
        counts = np.array(counts, dtype=np.int64)
        bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        if bounds[-1] != len(self.arrays):
            raise ValueError(f"rank counts sum to {bounds[-1]}, not the "
                             f"{len(self.arrays)} live particles")
        counts.flags.writeable = False
        bounds.flags.writeable = False
        self._rank_counts = counts
        self._rank_bounds = bounds
        self._rank_ids = None

    # -- the container's read API ----------------------------------------------

    def __len__(self) -> int:
        return len(self.arrays)

    name = property(lambda self: self.arrays.name)
    mass = property(lambda self: self.arrays.mass)
    charge = property(lambda self: self.arrays.charge)
    x = property(lambda self: self.arrays.x)
    vx = property(lambda self: self.arrays.vx)
    vy = property(lambda self: self.arrays.vy)
    vz = property(lambda self: self.arrays.vz)
    weight = property(lambda self: self.arrays.weight)

    # -- the rank layout --------------------------------------------------------

    @property
    def nranks(self) -> int:
        return len(self._rank_counts)

    @property
    def counts(self) -> np.ndarray:
        """Particles per rank (read-only)."""
        return self._rank_counts

    @property
    def bounds(self) -> np.ndarray:
        """Rank r's particles are ``[bounds[r], bounds[r + 1])`` (read-only)."""
        return self._rank_bounds

    def rank_ids(self) -> np.ndarray:
        """The owning rank of every live particle (read-only)."""
        if self._rank_ids is None:
            ids = np.repeat(np.arange(self.nranks), self._rank_counts)
            ids.flags.writeable = False
            self._rank_ids = ids
        return self._rank_ids

    def rank_sums(self, values: np.ndarray) -> np.ndarray:
        """``values[lo:hi].sum()`` for every rank's segment.

        Each segment is summed on its own, so every rank's total is
        bit-identical to summing that rank's particles alone (numpy's
        pairwise order depends on where a sum starts and stops).
        """
        b = self._rank_bounds.tolist()
        return np.array([values[lo:hi].sum() for lo, hi in zip(b, b[1:])],
                        dtype=np.float64)

    def rank_kinetic_energy(self) -> np.ndarray:
        """Per-rank :meth:`kinetic_energy`, bit for bit."""
        vx, vy, vz = self.velocities()
        terms = self.weights() * (vx**2 + vy**2 + vz**2)
        return 0.5 * self.mass * self.rank_sums(terms)

    # -- mutation ------------------------------------------------------------------

    def append(self, counts, x, vx, vy, vz, weight=1.0) -> None:
        """Add ``counts[r]`` particles at the end of rank r's segment.

        The new particles come in rank-major order; scalars broadcast.
        """
        counts = np.asarray(counts, dtype=np.int64)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        k = len(x)
        if counts.shape != self._rank_counts.shape or counts.sum() != k:
            raise ValueError(f"append counts {counts.tolist()} do not "
                             f"split the {k} new particles over "
                             f"{self.nranks} ranks")
        if k == 0:
            return
        old = self._rank_counts
        n = len(self.arrays)
        self.arrays.add(x, vx, vy, vz, weight)
        first = int(np.flatnonzero(counts)[0])
        if old[first + 1:].any():
            # interleave [rank r's old | rank r's new] for every rank:
            # particle i of the result comes from order[i]
            lens = np.empty(2 * self.nranks, dtype=np.int64)
            lens[0::2] = old
            lens[1::2] = counts
            src = np.empty_like(lens)
            src[0::2] = self._rank_bounds[:-1]
            src[1::2] = n + np.cumsum(counts) - counts
            out_start = np.cumsum(lens) - lens
            order = np.repeat(src - out_start, lens) + np.arange(n + k)
            self.arrays._permute(order)
        self._set_counts(old + counts)

    def remove(self, mask: np.ndarray) -> np.ndarray:
        """Delete the masked particles; returns the removed count per rank."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(f"mask must cover the {len(self)} live particles")
        removed = np.bincount(self.rank_ids()[mask], minlength=self.nranks)
        self.arrays.remove(mask)
        self._set_counts(self._rank_counts - removed)
        return removed

    def extract(self, mask: np.ndarray) -> dict[str, np.ndarray]:
        """Remove and return the masked particles (rank-major order)."""
        mask = np.asarray(mask, dtype=bool)
        n = len(self)
        out = {f: getattr(self, f)[:n][mask] for f in FIELDS}
        self.remove(mask)
        return out

    def permute(self, order: np.ndarray, counts) -> None:
        """Reorder the live particles (particle i becomes ``order[i]``)
        under new per-rank counts — one species' migration."""
        self.arrays._permute(order)
        self._set_counts(counts)

    def assign(self, counts, parts: dict[str, np.ndarray]) -> None:
        """Replace every rank's particles with ``parts`` (rank-major)."""
        self.arrays.remove(np.ones(len(self), dtype=bool))
        self.arrays.add_dict(parts)
        self._set_counts(counts)

    def replace_rank(self, rank: int, parts: dict[str, np.ndarray]) -> None:
        """Replace rank ``rank``'s particles with ``parts``."""
        lo, hi = self._rank_bounds[rank], self._rank_bounds[rank + 1]
        mask = np.zeros(len(self), dtype=bool)
        mask[lo:hi] = True
        self.remove(mask)
        counts = np.zeros(self.nranks, dtype=np.int64)
        counts[rank] = len(parts["x"])
        self.append(counts, *(parts[f] for f in FIELDS))


class RankParticles(_ParticleReads):
    """One rank's particles of one species: a handle onto its store.

    Reads slice the store's current segment (O(1) Python work), so the
    handle never goes stale.  Writes into the field slices land in the
    store, and ``add``/``remove``/``extract`` go through the store's
    rank-aware mutators, so a handle never detaches from it.
    """

    __slots__ = ("_species_store", "rank")

    def __init__(self, store: SpeciesStore, rank: int):
        self._species_store = store
        self.rank = rank

    def __len__(self) -> int:
        return int(self._species_store.counts[self.rank])

    def _field(self, field: str) -> np.ndarray:
        store = self._species_store
        b = store.bounds
        return getattr(store.arrays, field)[b[self.rank]:b[self.rank + 1]]

    name = property(lambda self: self._species_store.name)
    mass = property(lambda self: self._species_store.mass)
    charge = property(lambda self: self._species_store.charge)
    x = property(lambda self: self._field("x"))
    vx = property(lambda self: self._field("vx"))
    vy = property(lambda self: self._field("vy"))
    vz = property(lambda self: self._field("vz"))
    weight = property(lambda self: self._field("weight"))

    def add(self, x, vx, vy, vz, weight=1.0) -> None:
        """Append particles at the end of this rank's segment."""
        store = self._species_store
        counts = np.zeros(store.nranks, dtype=np.int64)
        counts[self.rank] = len(np.atleast_1d(x))
        store.append(counts, x, vx, vy, vz, weight)

    def add_dict(self, parts: dict[str, np.ndarray]) -> None:
        if len(parts["x"]):
            self.add(*(parts[f] for f in FIELDS))

    def _store_mask(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        n = len(self)
        if mask.shape != (n,):
            raise ValueError(f"mask must cover the {n} live particles")
        store = self._species_store
        full = np.zeros(len(store), dtype=bool)
        full[store.bounds[self.rank]:store.bounds[self.rank + 1]] = mask
        return full

    def remove(self, mask: np.ndarray) -> int:
        """Delete this rank's masked particles; returns the count."""
        removed = self._species_store.remove(self._store_mask(mask))
        return int(removed[self.rank])

    def extract(self, mask: np.ndarray) -> dict[str, np.ndarray]:
        """Remove and return this rank's masked particles."""
        return self._species_store.extract(self._store_mask(mask))


def sample_maxwellian(arrays: ParticleArrays, n: int,
                      x_min: float, x_max: float,
                      temperature_ev: float, weight: float,
                      rng: np.ndarray | None = None,
                      drift: tuple[float, float, float] = (0.0, 0.0, 0.0),
                      generator=None) -> None:
    """Load ``n`` particles uniform in space, Maxwellian in velocity."""
    gen = generator if generator is not None else np.random.default_rng(0)
    vth = thermal_speed(temperature_ev, arrays.mass)
    x = gen.uniform(x_min, x_max, n)
    v = gen.normal(0.0, vth, (3, n))
    arrays.add(x, v[0] + drift[0], v[1] + drift[1], v[2] + drift[2], weight)

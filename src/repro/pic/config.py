"""BIT1 input-file handling.

"The input to BIT1 represents a relatively small (1-3 kB) file read by
all processes" (§II).  The reproduction keeps that format: a flat
``key = value`` text file.  The output cadence is governed by the five
critical parameters the paper lists:

``datfile``
    period (in steps) of diagnostic snapshots (the ``.dat`` outputs);
``dmpstep``
    period of full state dumps for checkpoint/restart (``.dmp``);
``mvflag``
    if > 0, enables time-dependent diagnostics averaged over this many
    steps (plasma profiles and angular/velocity/energy distributions);
``mvstep``
    counter interval between the time-dependent diagnostics;
``last_step``
    the step at which the run saves its final state and terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import require_int, require_positive


@dataclass(frozen=True)
class SpeciesConfig:
    """One plasma species in the input deck."""

    name: str
    mass: float
    charge: float
    temperature_ev: float
    particles_per_cell: float
    density: float = 1.0e18  # [m^-3], reference density


@dataclass(frozen=True)
class Bit1Config:
    """Full input deck for one BIT1 run."""

    # -- domain -----------------------------------------------------------
    ncells: int = 1024
    length: float = 0.04            # [m] flux-tube length
    dt: float = 5.0e-12             # [s]

    # -- the five critical output parameters (§II) -------------------------
    datfile: int = 1000
    dmpstep: int = 10000
    mvflag: int = 16
    mvstep: int = 100
    last_step: int = 200_000

    # -- physics ------------------------------------------------------------
    species: tuple[SpeciesConfig, ...] = ()
    ionization_rate: float = 1.0e-14  # R [m^3/s] in dn/dt = -n n_e R
    elastic_rate: float = 0.0         # e-D elastic sigma-v [m^3/s]
    #: uniform static magnetic field (Bx, By, Bz) [T]; nonzero switches
    #: the mover to the Boris pusher (BIT1's magnetised flux tube)
    magnetic_field: tuple[float, float, float] = (0.0, 0.0, 0.0)
    field_solver: bool = False        # the paper's use case disables it
    smoothing: bool = False
    boundary: str = "periodic"        # or "absorbing" (divertor walls)

    # -- bookkeeping ------------------------------------------------------------
    seed: int = 20240901
    name: str = "bit1"

    def __post_init__(self) -> None:
        require_positive("ncells", self.ncells)
        require_positive("length", self.length)
        require_positive("dt", self.dt)
        for p in ("datfile", "dmpstep", "mvstep", "last_step"):
            if require_int(p, getattr(self, p)) <= 0:
                raise ValueError(f"{p} must be positive")
        if self.mvflag < 0:
            raise ValueError("mvflag must be >= 0")
        if self.boundary not in ("periodic", "absorbing"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    # -- derived -------------------------------------------------------------

    @property
    def dx(self) -> float:
        return self.length / self.ncells

    @property
    def n_dat_events(self) -> int:
        """Diagnostic snapshot count over the run."""
        return self.last_step // self.datfile

    @property
    def n_dmp_events(self) -> int:
        """Checkpoint count over the run (includes the final save)."""
        return self.last_step // self.dmpstep

    def total_particles(self) -> int:
        return int(sum(s.particles_per_cell for s in self.species) * self.ncells)

    def with_(self, **changes) -> "Bit1Config":
        return replace(self, **changes)

    # -- (de)serialisation: the 1-3 kB input file ------------------------------

    def to_input_file(self) -> str:
        lines = [
            f"# BIT1 input deck: {self.name}",
            f"ncells = {self.ncells}",
            f"length = {self.length!r}",
            f"dt = {self.dt!r}",
            f"datfile = {self.datfile}",
            f"dmpstep = {self.dmpstep}",
            f"mvflag = {self.mvflag}",
            f"mvstep = {self.mvstep}",
            f"last_step = {self.last_step}",
            f"ionization_rate = {self.ionization_rate!r}",
            f"elastic_rate = {self.elastic_rate!r}",
            f"magnetic_field = {self.magnetic_field[0]!r} "
            f"{self.magnetic_field[1]!r} {self.magnetic_field[2]!r}",
            f"field_solver = {int(self.field_solver)}",
            f"smoothing = {int(self.smoothing)}",
            f"boundary = {self.boundary}",
            f"seed = {self.seed}",
            f"name = {self.name}",
            f"nspecies = {len(self.species)}",
        ]
        for i, s in enumerate(self.species):
            lines += [
                f"species{i}.name = {s.name}",
                f"species{i}.mass = {s.mass!r}",
                f"species{i}.charge = {s.charge!r}",
                f"species{i}.temperature_ev = {s.temperature_ev!r}",
                f"species{i}.particles_per_cell = {s.particles_per_cell!r}",
                f"species{i}.density = {s.density!r}",
            ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_input_file(cls, text: str) -> "Bit1Config":
        kv: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed input line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            kv[key] = value
        nspecies = int(kv.pop("nspecies", "0"))
        species = []
        for i in range(nspecies):
            species.append(SpeciesConfig(
                name=kv.pop(f"species{i}.name"),
                mass=float(kv.pop(f"species{i}.mass")),
                charge=float(kv.pop(f"species{i}.charge")),
                temperature_ev=float(kv.pop(f"species{i}.temperature_ev")),
                particles_per_cell=float(kv.pop(f"species{i}.particles_per_cell")),
                density=float(kv.pop(f"species{i}.density", "1e18")),
            ))
        converters = {
            "ncells": int, "length": float, "dt": float,
            "datfile": int, "dmpstep": int, "mvflag": int, "mvstep": int,
            "last_step": int, "ionization_rate": float,
            "elastic_rate": float,
            "magnetic_field": lambda v: tuple(float(p) for p in v.split()),
            "field_solver": lambda v: bool(int(v)),
            "smoothing": lambda v: bool(int(v)),
            "boundary": str, "seed": int, "name": str,
        }
        kwargs = {}
        for key, value in kv.items():
            if key not in converters:
                raise ValueError(f"unknown input key {key!r}")
            kwargs[key] = converters[key](value)
        return cls(species=tuple(species), **kwargs)

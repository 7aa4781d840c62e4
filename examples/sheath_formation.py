#!/usr/bin/env python
"""Plasma-sheath formation: the full five-phase PIC cycle.

BIT1 exists to study "the magnetised plasma-wall transition" — the sheath
in front of divertor plates.  The paper's I/O use case disables the field
solver; this example turns it back on (deposit → smooth → Poisson solve →
MC → push with absorbing walls) and shows the classic kinetic result: the
light electrons outrun the ions to the walls, charging the plasma
positive until a potential hill forms that confines them.

Also demonstrates the wall-flux diagnostics the original BIT1 logs.
"""

from repro import Bit1Simulation, VirtualComm, sheath_case
from repro.pic import electric_field, solve_poisson_dirichlet
from repro.pic.constants import EV


def main() -> None:
    config = sheath_case(ncells=128, particles_per_cell=80, last_step=300)
    sim = Bit1Simulation(config, VirtualComm(4, 2))

    e0 = sim.total_count("e")
    i0 = sim.total_count("D+")
    print(f"initial: {e0} electrons, {i0} ions, "
          f"{sim.total_count('D')} neutrals; absorbing walls")

    sim.run(nsteps=config.last_step)

    # the sheath: net positive charge and a positive plasma potential
    rho = sim.charge_density()
    phi = solve_poisson_dirichlet(sim.grid, rho)
    efield = electric_field(sim.grid, phi)

    mid = sim.grid.nnodes // 2
    print(f"\nafter {sim.step_index} steps:")
    print(f"  plasma potential at centre: {phi[mid]:.2f} V "
          f"(positive => electron-confining hill)")
    print(f"  wall E-fields point inward: "
          f"E(0) = {efield[0]:.2e} V/m, E(L) = {efield[-1]:.2e} V/m")

    e_lost = e0 - sim.total_count("e")
    i_lost = i0 - sim.total_count("D+")
    print(f"  electrons lost to walls: {e_lost} ({e_lost / e0:.1%})")
    print(f"  ions lost to walls:      {i_lost} ({i_lost / i0:.1%})")

    print("\nwall fluxes (the fluxes.dat diagnostics):")
    for name, flux in sorted(sim.walls.fluxes.items()):
        pl, pr, el, er = flux.as_row()
        print(f"  {name:3s} particles L/R = {pl:.3e}/{pr:.3e}  "
              f"energy L/R = {el / EV:.3e}/{er / EV:.3e} eV")

    assert phi[mid] > 0.0, "sheath potential should be positive"
    # kinetic sheath physics: per-particle electron losses exceed ion
    # losses early in the formation (electrons are ~2700x faster)
    ionized = sim.total_count("D+") + i_lost - i0
    print(f"\nionization events during the run: {ionized}")
    print("sheath formation reproduced.")


if __name__ == "__main__":
    main()

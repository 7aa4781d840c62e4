"""Calibration sensitivity analysis.

The storage model's constants were calibrated against the paper's
anchors (docs/performance_model.md).  A fair question is how fragile
that calibration is: would the figures change qualitatively if a
constant were off by 2×?  This driver perturbs one tuning constant at a
time and re-measures the key anchors, reporting elasticities

    e = (Δanchor / anchor) / (Δconstant / constant)

Small |e| means the anchor is insensitive (the constant is not doing the
work); |e| ≈ 1 means proportional response; the *shape* checks (peak
location, crossover existence) are reported separately and should
survive every perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.presets import dardel
from repro.experiments.common import resolve_machine
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table

#: the tuning constants worth perturbing, with the anchor each one
#: primarily drives
DEFAULT_CONSTANTS = (
    "sync_latency",            # Fig. 2/5: original metadata mountain
    "sync_gamma",              # Fig. 2 shape (rise/decline)
    "client_stream_bandwidth", # Fig. 6 single-aggregator point
    "agg_beta",                # Fig. 6 rise
    "interleave_gamma",        # Fig. 6 decline / 25600 point
    "ost_stream_bandwidth",    # Fig. 6 peak height
    "mds_gamma",               # metadata op costs
)


@dataclass
class Anchors:
    """The anchor set re-measured under each perturbation."""

    orig_tput_200: float
    orig_meta_200: float
    bp4_tput_1aggr: float
    bp4_tput_400aggr: float
    bp4_tput_25600aggr: float

    def as_dict(self) -> dict[str, float]:
        return {
            "orig tput @200": self.orig_tput_200,
            "orig meta s @200": self.orig_meta_200,
            "BP4 @1 aggr": self.bp4_tput_1aggr,
            "BP4 @400 aggr": self.bp4_tput_400aggr,
            "BP4 @25600 aggr": self.bp4_tput_25600aggr,
        }


@dataclass
class SensitivityResult:
    """Elasticities of every anchor w.r.t. every perturbed constant."""

    machine: str
    nodes: int
    scale: float
    baseline: Anchors
    #: constant name -> {anchor name -> elasticity}
    elasticities: dict[str, dict[str, float]] = field(default_factory=dict)
    #: constant name -> peak still interior (shape survives)?
    shape_survives: dict[str, bool] = field(default_factory=dict)

    def to_table(self) -> Table:
        anchor_names = list(self.baseline.as_dict())
        t = Table(["constant", *anchor_names, "peak interior"],
                  title=f"Calibration sensitivity on {self.machine} "
                        f"({self.nodes} nodes, ±{(self.scale - 1):.0%})")
        for const, es in self.elasticities.items():
            t.add_row([const,
                       *[f"{es[a]:+.2f}" for a in anchor_names],
                       "yes" if self.shape_survives[const] else "NO"])
        return t

    def render(self) -> str:
        return self.to_table().render()


def _measure_all(machines, nodes: int, seed: int) -> list[Anchors]:
    """The anchor set of every machine, as two flattened sweeps."""
    aggr_counts = (1, min(400, nodes * 128), nodes * 128)
    origs = sweep(original_report,
                  [{"machine": m, "nodes": nodes, "seed": seed}
                   for m in machines])
    bp4s = sweep(openpmd_report,
                 [{"machine": m, "nodes": nodes, "num_aggregators": a,
                   "seed": seed} for m in machines for a in aggr_counts])
    out = []
    for i, orig in enumerate(origs):
        three = bp4s[3 * i:3 * i + 3]
        out.append(Anchors(
            orig_tput_200=orig["gib"],
            orig_meta_200=orig["split"].meta_seconds,
            bp4_tput_1aggr=three[0]["gib"],
            bp4_tput_400aggr=three[1]["gib"],
            bp4_tput_25600aggr=three[2]["gib"],
        ))
    return out


def run_sensitivity(constants=DEFAULT_CONSTANTS, nodes: int = 200,
                    scale: float = 1.5, machine=None,
                    seed: int = 0) -> SensitivityResult:
    """Perturb each constant by ``scale`` and measure anchor elasticity."""
    if scale <= 0 or scale == 1.0:
        raise ValueError("scale must be positive and != 1")
    base_machine = resolve_machine(machine) if machine is not None else dardel()
    storage_name = base_machine.default_storage.name
    tuning = base_machine.default_storage.tuning
    perturbed_machines = [
        base_machine.with_storage_tuning(
            storage_name, **{const: getattr(tuning, const) * scale})
        for const in constants
    ]
    baseline, *perturbed_anchors = _measure_all(
        [base_machine, *perturbed_machines], nodes, seed)
    base_vals = baseline.as_dict()
    result = SensitivityResult(machine=base_machine.name, nodes=nodes,
                               scale=scale, baseline=baseline)
    rel_change = scale - 1.0
    for const, measured in zip(constants, perturbed_anchors):
        per = {}
        for name, value in measured.as_dict().items():
            base = base_vals[name]
            per[name] = ((value - base) / base) / rel_change if base else 0.0
        result.elasticities[const] = per
        # shape check: the aggregator curve must still peak interior
        result.shape_survives[const] = (
            measured.bp4_tput_400aggr > measured.bp4_tput_1aggr
            and measured.bp4_tput_400aggr > measured.bp4_tput_25600aggr
        )
    return result

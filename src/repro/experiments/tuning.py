"""The autotuner experiment: tuner-found vs paper-reported configs.

Runs :func:`repro.tuning.tune` per machine model (Dardel, Discoverer,
Vega — the three systems of §III-C) on the paper's workload and emits
``results/tuned_configs.json``: one entry per machine × workload with
the winning configuration, its predicted throughput/makespan and the
search trace (the probes-evaluated vs probes-cached split is printed,
not stored).  The
paper-reported configuration (BP4, two aggregators per node per Fig. 6,
``lfs setstripe -c 8 -S 16M`` per Table III / Listing 1) is seeded into
every search as a protected baseline, so the tuner matches or beats its
modeled objective by construction — the interesting output is *how
much* and *where* the optimum moves per machine.

If an artifact from an earlier run exists, the driver first runs the
regression mode: it re-reads the artifact's pinned source fingerprint,
refreshes the in-process fingerprint memo
(:func:`~repro.experiments.sweep.invalidate_fingerprint`), re-probes
every previously recommended configuration under the current model and
flags any whose objective regressed.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from repro.cluster.presets import dardel, discoverer, vega
from repro.experiments.common import write_artifact
from repro.experiments.paper_data import (
    FIG6_PEAK_AGGREGATORS,
    LISTING1_STRIPE_COUNT,
    LISTING1_STRIPE_SIZE,
)
from repro.experiments.sweep import source_fingerprint, sweep_batch
from repro.pic.config import Bit1Config, SpeciesConfig
from repro.tuning import (
    OBJECTIVES,
    Candidate,
    Recommendation,
    RegressionReport,
    TuningResult,
    TuningSpace,
    revalidate,
    tune,
)
from repro.util.tables import Table
from repro.workloads.presets import paper_use_case

ARTIFACT_SCHEMA = 1

#: the configuration the paper lands on by hand: BP4, two aggregators
#: per node (400 subfiles at 200 nodes, Fig. 6), Table III striping
PAPER_CANDIDATE = Candidate(
    engine_ext=".bp4",
    aggs_per_node=FIG6_PEAK_AGGREGATORS / 200,
    stripe_count=LISTING1_STRIPE_COUNT,
    stripe_size=LISTING1_STRIPE_SIZE,
    compressor=None,
    async_drain=False,
)


def _config_to_json(config: Bit1Config) -> dict:
    return dataclasses.asdict(config)


def _config_from_json(data: dict) -> Bit1Config:
    data = dict(data)
    data["species"] = tuple(SpeciesConfig(**s)
                            for s in data.get("species", ()))
    data["magnetic_field"] = tuple(data.get("magnetic_field",
                                            (0.0, 0.0, 0.0)))
    return Bit1Config(**data)


@dataclass
class MachineTuningEntry:
    """Tuner result + paper baseline on one machine."""

    workload: str
    result: TuningResult
    paper_candidate: Candidate
    paper_report: dict
    paper_objective: float

    @property
    def improvement_fraction(self) -> float:
        if self.paper_objective == 0:
            return 0.0
        return (self.result.best_objective - self.paper_objective) \
            / abs(self.paper_objective)


@dataclass
class TuningExperimentResult:
    """Everything one ``tune`` invocation found, plus the artifact."""

    objective: str
    entries: list[MachineTuningEntry] = field(default_factory=list)
    regression: RegressionReport | None = None
    artifact_path: str | None = None

    def to_table(self) -> Table:
        unit = OBJECTIVES[self.objective][1]
        t = Table(["machine", "nodes", "tuner-found config",
                   f"tuned [{unit}]", f"paper [{unit}]", "delta",
                   "probes (eval/cached)"],
                  title="Autotuned I/O configurations "
                        f"(objective: {self.objective})")
        for e in self.entries:
            r = e.result
            t.add_row([r.machine, r.nodes, r.best.label(),
                       f"{abs(r.best_objective):.2f}",
                       f"{abs(e.paper_objective):.2f}",
                       f"{e.improvement_fraction:+.1%}",
                       f"{r.probes_evaluated}/{r.probes_cached}"])
        return t

    def render(self) -> str:
        out = []
        if self.regression is not None:
            out.append("regression check: " + self.regression.render())
        if not self.entries:
            if self.regression is None:
                out.append("no tuned-config artifact found; "
                           "run the `tune` experiment first")
            return "\n".join(out)
        out.append(self.to_table().render())
        for e in self.entries:
            out.append(f"  note: {e.result.machine}: paper config "
                       f"{e.paper_candidate.label()}; search probed "
                       f"{e.result.probes_total} points "
                       f"({e.result.cached_fraction:.0%} from cache)")
        if self.artifact_path:
            out.append(f"  artifact: {self.artifact_path}")
        return "\n".join(out)

    def artifact(self, config: Bit1Config) -> dict:
        """What the source and seed determine; cache hits only print."""
        entries = []
        for e in self.entries:
            r = e.result
            entries.append({
                "machine": r.machine,
                "workload": e.workload,
                "nodes": r.nodes,
                "config": _config_to_json(config),
                "best": r.best.to_dict(),
                "predicted": {
                    "objective": r.best_objective,
                    "gib": r.best_report.get("gib"),
                    "makespan_s": r.best_report.get("makespan"),
                },
                "paper": {
                    "candidate": e.paper_candidate.to_dict(),
                    "objective": e.paper_objective,
                    "gib": e.paper_report.get("gib"),
                    "makespan_s": e.paper_report.get("makespan"),
                },
                "trace": [{"stage": p.stage, "config": p.candidate.label(),
                           "fidelity": p.fidelity,
                           "objective": p.objective}
                          for p in r.trace],
            })
        return {"schema": ARTIFACT_SCHEMA,
                "objective": self.objective,
                "source_fingerprint": source_fingerprint(),
                "entries": entries}


def check_artifact(artifact: dict, objective: str | None = None,
                   tolerance: float = 0.02, point_fn=None,
                   jobs: int | None = None, cache_dir: str | None = None
                   ) -> RegressionReport:
    """Regression mode over a loaded ``tuned_configs.json`` artifact."""
    from repro.cluster.presets import machine_by_name

    objective = objective or artifact.get("objective", "throughput")
    recs = []
    for entry in artifact.get("entries", ()):
        recs.append(Recommendation(
            machine=machine_by_name(entry["machine"]),
            nodes=entry["nodes"],
            config=_config_from_json(entry["config"]),
            candidate=Candidate.from_dict(entry["best"]),
            expected_objective=entry["predicted"]["objective"],
            label=f"{entry['machine']}/{entry['workload']}"
                  f"@{entry['nodes']}nodes"))
    return revalidate(recs, artifact["source_fingerprint"],
                      objective=objective, tolerance=tolerance,
                      point_fn=point_fn, jobs=jobs, cache_dir=cache_dir)


def run_tuning(quick: bool = False, machines=None, nodes: int | None = None,
               objective: str = "throughput", space: TuningSpace | None = None,
               config: Bit1Config | None = None, seed: int = 0,
               artifact_path: str | None = "results/tuned_configs.json",
               regression_only: bool = False, point_fn=None,
               jobs: int | None = None, cache_dir: str | None = None
               ) -> TuningExperimentResult:
    """Tune every machine model and (re)write the recommendation artifact.

    ``regression_only=True`` stops after the artifact re-validation —
    the service-mode health check ("are yesterday's recommendations
    still valid under today's model?").
    """
    if machines is None:
        machines = (dardel(), discoverer(), vega())
    if nodes is None:
        nodes = 4 if quick else 200
    if space is None:
        space = TuningSpace.quick() if quick else TuningSpace()
    if config is None:
        config = (paper_use_case().with_(last_step=4_000, dmpstep=2_000)
                  if quick else paper_use_case())
    workload = "paper-quick" if quick else "paper"
    result = TuningExperimentResult(objective=objective,
                                    artifact_path=artifact_path)

    if artifact_path and os.path.exists(artifact_path):
        try:
            with open(artifact_path) as f:
                artifact = json.load(f)
        except (OSError, json.JSONDecodeError):
            artifact = None
        if artifact and artifact.get("schema") == ARTIFACT_SCHEMA:
            result.regression = check_artifact(
                artifact, point_fn=point_fn, jobs=jobs,
                cache_dir=cache_dir)
    if regression_only:
        return result

    score = OBJECTIVES[objective][0]
    for machine in machines:
        machine_space = space.for_machine(machine)
        paper = machine_space.clip(PAPER_CANDIDATE)
        tuned = tune(machine, nodes, space=machine_space, config=config,
                     objective=objective, baselines=(paper,), seed=seed,
                     point_fn=point_fn, jobs=jobs, cache_dir=cache_dir)
        batch = sweep_batch(
            point_fn or _default_point_fn(),
            [paper.params(machine, nodes, config, 0.0, seed)],
            jobs=jobs, cache_dir=cache_dir)
        paper_report = batch.results[0]
        result.entries.append(MachineTuningEntry(
            workload=workload, result=tuned, paper_candidate=paper,
            paper_report=paper_report,
            paper_objective=float(score(paper_report))))

    if artifact_path:
        write_artifact(artifact_path, result.artifact(config))
    return result


def _default_point_fn():
    from repro.experiments.points import tuning_report
    return tuning_report

"""Closed-loop search over the joint I/O configuration space.

The paper finds its best configurations by hand (aggregator sweeps,
stripe tables, codec on/off); this module closes that loop on top of
the cached sweep executor, where re-probing any configuration the cache
has seen is nearly free and bit-identical:

* **Successive halving** over *workload fidelity*: a seeded population
  is probed on a shrunk workload (fewer simulation steps, same cadence
  structure), the top ``1/eta`` survive to a larger workload, and only
  the final rung pays full price.
* **Coordinate hill-climb** from the halving winner at full fidelity:
  probe every one-step grid neighbour, move to the best improvement,
  stop at a local optimum (or the round bound).

Every probe is one :func:`repro.experiments.points.tuning_report`
evaluation routed through :func:`repro.experiments.sweep.sweep_batch`,
so an identical re-run resolves from cache, and
:class:`TuningResult.trace` records exactly what the search did.

Baseline candidates passed via ``baselines`` (the paper-reported
configurations) are *protected*: they are probed at every rung, never
eliminated, and compete in the final full-fidelity selection — the
tuner can therefore only match or beat them under its objective.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.tuning.space import Candidate, TuningSpace

# repro.experiments.sweep is imported where it is used, here and in
# regression.py: importing it runs the repro.experiments package init,
# whose tuning driver imports this package, so a module-level import
# made ``import repro.tuning`` circular

log = logging.getLogger("repro.tuning")

#: objective name -> (score fn over a tuning_report dict, unit, sense).
#: Scores are always maximised; minimised metrics negate.
OBJECTIVES = {
    "throughput": (lambda rep: rep["gib"], "GiB/s", "max"),
    "makespan": (lambda rep: -rep["makespan"], "s", "min"),
}

#: successive-halving workload fidelities (fraction of the full step
#: count); the last rung must be 1.0 — the full workload
DEFAULT_RUNGS = (0.02, 0.1, 1.0)


@dataclass(frozen=True)
class ProbeRecord:
    """One evaluated (candidate, fidelity) pair in the search trace."""

    stage: str
    candidate: Candidate
    fidelity: float
    objective: float
    cached: bool


@dataclass
class TuningResult:
    """What :func:`tune` found on one machine at one scale."""

    machine: str
    nodes: int
    objective: str
    best: Candidate
    best_report: dict
    best_objective: float
    trace: list[ProbeRecord] = field(default_factory=list)
    probes_evaluated: int = 0
    probes_cached: int = 0

    @property
    def probes_total(self) -> int:
        return self.probes_evaluated + self.probes_cached

    @property
    def cached_fraction(self) -> float:
        return self.probes_cached / self.probes_total if self.probes_total \
            else 1.0


def shrink_config(config, fraction: float):
    """The rung-``fraction`` version of a workload.

    Scales the step count, keeping the diagnostic cadence (so every
    rung still ranks configurations on the same event structure) and
    clamping the checkpoint cadence inside the run.
    """
    if fraction >= 1.0:
        return config
    last_step = max(int(round(config.last_step * fraction)),
                    config.datfile)
    return config.with_(last_step=last_step,
                        dmpstep=min(config.dmpstep, last_step))


class _Prober:
    """Batched, deduplicated probe front-end over the sweep cache."""

    def __init__(self, point_fn, machine, nodes, config, score,
                 compute_seconds_per_step, seed, jobs, cache_dir):
        self.point_fn = point_fn
        self.machine = machine
        self.nodes = nodes
        self.config = config
        self.score = score
        self.compute = compute_seconds_per_step
        self.seed = seed
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.trace: list[ProbeRecord] = []
        self.evaluated = 0
        self.cached = 0
        #: (candidate, fidelity) -> (report, objective), within this search
        self._seen: dict[tuple[Candidate, float], tuple[dict, float]] = {}

    def __call__(self, stage: str, candidates, fidelity: float = 1.0
                 ) -> list[tuple[Candidate, dict, float]]:
        """Probe candidates at one fidelity; returns (cand, report, score)."""
        candidates = list(dict.fromkeys(candidates))
        pending = [c for c in candidates
                   if (c, fidelity) not in self._seen]
        if pending:
            from repro.experiments.sweep import sweep_batch

            cfg = shrink_config(self.config, fidelity)
            points = [c.params(self.machine, self.nodes, cfg,
                               self.compute, self.seed) for c in pending]
            batch = sweep_batch(self.point_fn, points, jobs=self.jobs,
                                cache_dir=self.cache_dir)
            self.evaluated += batch.stats.evaluated
            self.cached += batch.stats.cached
            for cand, rep, hit in zip(pending, batch.results, batch.hits):
                obj = float(self.score(rep))
                self._seen[(cand, fidelity)] = (rep, obj)
                self.trace.append(ProbeRecord(stage, cand, fidelity,
                                              obj, hit))
        return [(c,) + self._seen[(c, fidelity)] for c in candidates]


def tune(machine, nodes: int, space: TuningSpace | None = None,
         config=None, objective: str = "throughput",
         baselines: tuple[Candidate, ...] = (), population: int = 16,
         eta: int = 4, rungs: tuple[float, ...] = DEFAULT_RUNGS,
         max_climb_rounds: int = 12, point_fn=None,
         compute_seconds_per_step: float = 0.0, seed: int = 0,
         jobs: int | None = None, cache_dir: str | None = None
         ) -> TuningResult:
    """Search the joint space on one machine model; returns the winner.

    Deterministic in ``seed``: the initial population, every rung and
    every climb step replay identically, so a second identical call
    resolves (nearly) every probe from the sweep cache.
    """
    if objective not in OBJECTIVES:
        raise KeyError(f"unknown objective {objective!r}; "
                       f"choose from {sorted(OBJECTIVES)}")
    if not rungs or rungs[-1] != 1.0:
        raise ValueError("rungs must end at full fidelity (1.0)")
    if point_fn is None:
        from repro.experiments.points import tuning_report
        point_fn = tuning_report
    if config is None:
        from repro.workloads.presets import paper_use_case
        config = paper_use_case()
    space = space or TuningSpace()
    space = space.for_machine(machine)
    score = OBJECTIVES[objective][0]

    probe = _Prober(point_fn, machine, nodes, config, score,
                    compute_seconds_per_step, seed, jobs, cache_dir)
    protected = tuple(dict.fromkeys(space.clip(b) for b in baselines))
    pop = space.sample(population, seed=seed, include=protected)

    # -- successive halving over workload fidelity -----------------------
    for r, fraction in enumerate(rungs[:-1]):
        ranked = sorted(probe(f"rung{r}", pop, fraction),
                        key=lambda t: t[2], reverse=True)
        keep = max(math.ceil(len(ranked) / eta), 2)
        survivors = [c for c, _, _ in ranked[:keep]]
        pop = list(dict.fromkeys(survivors + list(protected)))
        log.info("tune %s rung %d (%.0f%% fidelity): %d -> %d candidates",
                 machine.name, r, 100 * fraction, len(ranked), len(pop))

    final = probe(f"rung{len(rungs) - 1}", pop, 1.0)
    best, best_report, best_obj = max(final, key=lambda t: t[2])

    # -- coordinate hill-climb at full fidelity --------------------------
    for round_no in range(max_climb_rounds):
        moves = probe(f"climb{round_no}", space.neighbours(best), 1.0)
        if not moves:
            break
        cand, rep, obj = max(moves, key=lambda t: t[2])
        if obj <= best_obj:
            break
        best, best_report, best_obj = cand, rep, obj
        log.info("tune %s climb %d: moved to %s (%.4f)",
                 machine.name, round_no, best.label(), best_obj)

    return TuningResult(machine=machine.name, nodes=nodes,
                        objective=objective, best=best,
                        best_report=best_report, best_objective=best_obj,
                        trace=probe.trace,
                        probes_evaluated=probe.evaluated,
                        probes_cached=probe.cached)

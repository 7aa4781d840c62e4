"""Regression mode: re-validate recommendations when the model changes.

A recommended configuration is a claim about the *model that scored
it*.  Editing any ``src/repro`` source changes
:func:`~repro.experiments.sweep.source_fingerprint`, which invalidates
the sweep cache — but a recommendation artifact written by an earlier
process happily outlives that.  This module re-reads the artifact's
pinned fingerprint, forces the in-process fingerprint memo to refresh
(:func:`~repro.experiments.sweep.invalidate_fingerprint` — a long-lived
tuner service would otherwise keep trusting the fingerprint captured at
startup), re-probes every recommended configuration under the current
model and flags the ones whose objective regressed beyond tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tuning.search import OBJECTIVES
from repro.tuning.space import Candidate


@dataclass(frozen=True)
class Recommendation:
    """One previously recommended configuration to re-validate."""

    machine: object          # Machine model to probe on
    nodes: int
    config: object           # Bit1Config workload
    candidate: Candidate
    expected_objective: float
    compute_seconds_per_step: float = 0.0
    seed: int = 0
    label: str = ""


@dataclass(frozen=True)
class RevalidationEntry:
    """The verdict on one recommendation under the current model."""

    label: str
    candidate: Candidate
    expected_objective: float
    observed_objective: float
    regressed: bool

    @property
    def delta_fraction(self) -> float:
        if self.expected_objective == 0:
            return 0.0
        return (self.observed_objective - self.expected_objective) \
            / abs(self.expected_objective)


@dataclass
class RegressionReport:
    """Fingerprint comparison + per-recommendation verdicts."""

    artifact_fingerprint: str
    current_fingerprint: str
    entries: list[RevalidationEntry] = field(default_factory=list)

    @property
    def fingerprint_changed(self) -> bool:
        return self.artifact_fingerprint != self.current_fingerprint

    @property
    def regressed(self) -> list[RevalidationEntry]:
        return [e for e in self.entries if e.regressed]

    def render(self) -> str:
        if not self.fingerprint_changed:
            return ("model sources unchanged since the artifact was "
                    "written; recommendations remain valid")
        lines = [f"model sources changed "
                 f"({self.artifact_fingerprint[:12]} -> "
                 f"{self.current_fingerprint[:12]}); re-validated "
                 f"{len(self.entries)} recommendation(s)"]
        for e in self.entries:
            verdict = "REGRESSED" if e.regressed else "ok"
            lines.append(f"  [{verdict}] {e.label}: "
                         f"{e.expected_objective:.4f} -> "
                         f"{e.observed_objective:.4f} "
                         f"({e.delta_fraction:+.1%})")
        return "\n".join(lines)


def revalidate(recommendations: list[Recommendation],
               artifact_fingerprint: str, objective: str = "throughput",
               tolerance: float = 0.02, point_fn=None,
               jobs: int | None = None, cache_dir: str | None = None
               ) -> RegressionReport:
    """Re-probe recommendations against the *current* model source.

    ``tolerance`` is the allowed fractional objective drop before an
    entry is flagged (probes are deterministic per seed, so with an
    unchanged fingerprint every delta is exactly zero and everything
    resolves from cache).
    """
    # imported here, not at module level: see repro.tuning.search
    from repro.experiments.sweep import (
        invalidate_fingerprint,
        source_fingerprint,
        sweep_batch,
    )

    if point_fn is None:
        from repro.experiments.points import tuning_report
        point_fn = tuning_report
    score = OBJECTIVES[objective][0]
    invalidate_fingerprint()
    report = RegressionReport(artifact_fingerprint=artifact_fingerprint,
                              current_fingerprint=source_fingerprint())
    if not recommendations:
        return report
    points = [r.candidate.params(r.machine, r.nodes, r.config,
                                 r.compute_seconds_per_step, r.seed)
              for r in recommendations]
    batch = sweep_batch(point_fn, points, jobs=jobs, cache_dir=cache_dir)
    for rec, rep in zip(recommendations, batch.results):
        observed = float(score(rep))
        floor = rec.expected_objective - tolerance * abs(
            rec.expected_objective)
        report.entries.append(RevalidationEntry(
            label=rec.label or rec.candidate.label(),
            candidate=rec.candidate,
            expected_objective=rec.expected_objective,
            observed_objective=observed,
            regressed=observed < floor))
    return report

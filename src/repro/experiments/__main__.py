"""Run every experiment driver and print the paper's tables/figures.

Usage::

    python -m repro.experiments            # full sweeps (a few minutes)
    python -m repro.experiments --quick    # reduced sweeps (seconds)
    python -m repro.experiments fig6 fig9  # a subset
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    run_agg_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_gpu,
    run_postproc,
    run_resilience,
    run_resilience_multilevel,
    run_sensitivity,
    run_serving,
    run_streaming,
    run_table2,
    run_tuning,
    run_weak_scaling,
)
from repro.experiments.common import subset
from repro.experiments.paper_data import FIG6_SWEEP, NODE_COUNTS

ALL = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
       "table2", "postproc", "weak_scaling", "sensitivity", "resilience",
       "resilience_ml", "streaming", "serving", "gpu", "agg", "tune")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments",
                                     description=__doc__)
    parser.add_argument("experiments", nargs="*", default=list(ALL),
                        help=f"which to run (default: all of {ALL})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps for a fast look")
    args = parser.parse_args(argv)

    nodes = subset(NODE_COUNTS, args.quick)
    aggrs = subset(FIG6_SWEEP, args.quick)

    def artifact(path: str) -> str | None:
        # a quick sweep is a smoke run: it writes no artifact, so the
        # committed full-sweep files under results/ stay as they are
        return None if args.quick else path

    table = {
        "fig2": lambda: run_fig2(node_counts=nodes).render(),
        "fig3": lambda: run_fig3(node_counts=nodes).render(),
        "fig4": lambda: run_fig4(node_counts=nodes).render(),
        "fig5": lambda: run_fig5().render(),
        "fig6": lambda: run_fig6(aggregators=aggrs).render(
            y_format=lambda v: f"{v:.2f}"),
        "fig7": lambda: run_fig7(node_counts=nodes).render(),
        "fig8": lambda: run_fig8().render(),
        "fig9": lambda: run_fig9().render(),
        "table2": lambda: run_table2(node_counts=nodes).render(),
        "postproc": lambda: run_postproc().render(),
        "weak_scaling": lambda: run_weak_scaling(
            node_counts=subset((1, 5, 20, 50, 200), args.quick)).render(
            y_format=lambda v: f"{v:.4f}"),
        "sensitivity": lambda: run_sensitivity(
            nodes=50 if args.quick else 200).render(),
        "resilience": lambda: run_resilience(quick=args.quick).render(),
        "resilience_ml": lambda: run_resilience_multilevel(
            quick=args.quick,
            artifact_path=artifact("results/resilience_multilevel.json")).render(),
        "streaming": lambda: run_streaming(quick=args.quick).render(),
        "serving": lambda: run_serving(
            quick=args.quick,
            artifact_path=artifact("results/serving.json")).render(),
        "gpu": lambda: run_gpu(
            quick=args.quick,
            artifact_path=artifact("results/gpu_staging.json")).render(),
        "agg": lambda: run_agg_sweep(quick=args.quick).render(),
        "tune": lambda: run_tuning(
            quick=args.quick,
            artifact_path=artifact("results/tuned_configs.json")).render(),
        # service-mode health check: re-validate the existing artifact's
        # recommendations against the current model source, no retuning
        "tune_check": lambda: run_tuning(
            quick=args.quick, regression_only=True,
            artifact_path="results/tuned_configs.json").render(),
    }
    for name in args.experiments:
        fn = table.get(name)
        if fn is None:
            print(f"unknown experiment {name!r}; choose from {ALL}",
                  file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        print(fn())
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

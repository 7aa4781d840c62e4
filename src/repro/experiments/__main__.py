"""Run the experiment drivers: print, write and check the paper's results.

Usage::

    python -m repro.experiments            # all at full size (a minute)
    python -m repro.experiments --quick    # reduced sweeps (seconds)
    python -m repro.experiments fig6 fig9  # a subset

A full-size experiment writes its file under ``results/`` (see
:data:`OUTPUTS`) and runs its check (:mod:`repro.experiments.checks`); a
run that wrote a table rebuilds ``results/REPORT.md``.  After a failed
check the run goes on, then exits 1.  ``--quick`` writes and checks
nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments import (
    ablation,
    checks,
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
    tables,
)
from repro.experiments.common import subset
from repro.experiments.paper_data import FIG6_SWEEP, NODE_COUNTS
from repro.experiments.report import write_report

RESULTS = "results"

#: experiment -> the one file under results/ its full-size run writes
OUTPUTS = {
    **{name: f"{name}.txt" for name in (
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "table1", "table2", "table3_listing1", "backend_comparison",
        "bp4_vs_bp5", "weak_scaling", "sensitivity", "ablation_fsync",
        "ablation_aggregation", "ablation_shuffle", "ablation_stdio_buffer")},
    "postproc": "postproc_restart_read.txt",
    "resilience_ml": "resilience_multilevel.json",
    "serving": "serving.json",
    "gpu": "gpu_staging.json",
    "tune": "tuned_configs.json",
}

ALL = (*OUTPUTS, "resilience", "streaming", "agg")

#: the tables printed at other than ExperimentResult's three places
Y_FORMATS = {"fig6": "{:.2f}".format, "weak_scaling": "{:.4f}".format}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="*", default=list(ALL),
                        help=f"which to run (default: all of {ALL})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps; writes and checks nothing")
    args = parser.parse_args(argv)

    nodes = subset(NODE_COUNTS, args.quick)
    aggrs = subset(FIG6_SWEEP, args.quick)

    def artifact(name: str) -> str | None:
        # a quick sweep is a smoke run: it writes no artifact, so the
        # committed full-sweep files under results/ stay as they are
        return None if args.quick else os.path.join(RESULTS, OUTPUTS[name])

    table = {
        "fig2": lambda: run_fig2(node_counts=nodes),
        "fig3": lambda: run_fig3(node_counts=nodes),
        "fig4": lambda: run_fig4(node_counts=nodes),
        "fig5": run_fig5,
        "fig6": lambda: run_fig6(aggregators=aggrs),
        "fig7": lambda: run_fig7(node_counts=nodes),
        "fig8": run_fig8,
        "fig9": run_fig9,
        "table1": tables.run_table1,
        "table2": lambda: run_table2(node_counts=nodes),
        "table3_listing1": tables.run_table3,
        "postproc": run_postproc,
        "backend_comparison": tables.run_backend_comparison,
        "bp4_vs_bp5": tables.run_bp4_vs_bp5,
        "weak_scaling": lambda: run_weak_scaling(
            node_counts=subset((1, 5, 20, 50, 200), args.quick)),
        "sensitivity": lambda: run_sensitivity(
            nodes=50 if args.quick else 200),
        "ablation_fsync": ablation.run_ablation_fsync,
        "ablation_aggregation": ablation.run_ablation_aggregation,
        "ablation_shuffle": ablation.run_ablation_shuffle,
        "ablation_stdio_buffer": ablation.run_ablation_stdio_buffer,
        "resilience": lambda: run_resilience(quick=args.quick),
        "resilience_ml": lambda: run_resilience_multilevel(
            quick=args.quick, artifact_path=artifact("resilience_ml")),
        "streaming": lambda: run_streaming(quick=args.quick),
        "serving": lambda: run_serving(
            quick=args.quick, artifact_path=artifact("serving")),
        "gpu": lambda: run_gpu(
            quick=args.quick, artifact_path=artifact("gpu")),
        "agg": lambda: run_agg_sweep(quick=args.quick),
        "tune": lambda: run_tuning(
            quick=args.quick, artifact_path=artifact("tune")),
        # service-mode health check: re-validate the existing artifact's
        # recommendations against the current model source, no retuning
        "tune_check": lambda: run_tuning(
            quick=args.quick, regression_only=True,
            artifact_path=os.path.join(RESULTS, OUTPUTS["tune"])),
    }
    unknown = [name for name in args.experiments if name not in table]
    if unknown:
        print(f"unknown experiment(s) {unknown}; choose from {ALL}",
              file=sys.stderr)
        return 2

    failures = []
    wrote_table = False
    for name in args.experiments:
        t0 = time.perf_counter()
        result = table[name]()
        text = (result.render(y_format=Y_FORMATS[name])
                if name in Y_FORMATS else result.render())
        print(text)
        if not args.quick:
            out = OUTPUTS.get(name, "")
            if out.endswith(".txt"):
                os.makedirs(RESULTS, exist_ok=True)
                Path(RESULTS, out).write_text(text + "\n")
                wrote_table = True
            check = getattr(checks, name, None)
            for message in check(result) if check else ():
                print(f"  CHECK FAILED {name}: {message}")
                failures.append(f"{name}: {message}")
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f}s]\n")
    if wrote_table:
        print(f"[report rebuilt: {write_report(RESULTS)}]")
    if failures:
        print(f"{len(failures)} check(s) failed:", *failures,
              sep="\n  ", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

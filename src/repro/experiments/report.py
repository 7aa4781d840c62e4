"""Aggregate report generator: one markdown document for the whole
evaluation.

Collects the experiment tables from ``results/`` (written by
``python -m repro.experiments``) into ``results/REPORT.md``, with the
paper's anchors inlined — a single artifact a reviewer can read top to
bottom.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.paper_data import (
    FIG2_ANCHORS,
    FIG5_BP4,
    FIG5_ORIGINAL,
    FIG6_ANCHORS,
    FIG9_BEST_SECONDS,
    TABLE2_BLOSC_SAVINGS_1NODE,
    TABLE2_BLOSC_SAVINGS_200NODES,
)

SECTIONS: tuple[tuple[str, str, str], ...] = (
    ("fig2", "Fig. 2 — Original file I/O on three machines",
     "Paper anchors: " + "; ".join(
         f"{m}: {a[1]}→{a[200]} GiB/s" for m, a in FIG2_ANCHORS.items())),
    ("fig3", "Fig. 3 — Original vs openPMD+BP4 (Dardel)",
     "Paper: BP4 starts at 0.6 GiB/s; original peaks then declines."),
    ("fig4", "Fig. 4 — BIT1 vs IOR",
     "Paper: original uncompetitive with IOR; BP4+aggregation superior."),
    ("fig5", "Fig. 5 — Per-process I/O cost split (200 nodes)",
     f"Paper: metadata {FIG5_ORIGINAL['meta']} s → {FIG5_BP4['meta']} s "
     f"(−99.92 %); writes {FIG5_ORIGINAL['write']} → {FIG5_BP4['write']} s."),
    ("fig6", "Fig. 6 — Aggregator sweep (200 nodes)",
     "Paper anchors: " + ", ".join(f"{m} → {v} GiB/s"
                                   for m, v in FIG6_ANCHORS.items())),
    ("fig7", "Fig. 7 — Blosc + 1 aggregator",
     "Paper: original overtakes between 10 and 50 nodes."),
    ("fig8", "Fig. 8 — profiling.json memory copies",
     "Paper: memory copies entirely eliminated with compression."),
    ("fig9", "Fig. 9 — Lustre striping grid",
     f"Paper best value: {FIG9_BEST_SECONDS} s per write op."),
    ("table1", "Table I — IOR command lines", ""),
    ("table2", "Table II — File census",
     f"Paper: Blosc saves {TABLE2_BLOSC_SAVINGS_1NODE:.2%} at 1 node, "
     f"{TABLE2_BLOSC_SAVINGS_200NODES:.2%} at 200 nodes."),
    ("table3_listing1", "Table III / Listing 1 — lfs striping", ""),
    ("postproc_restart_read", "Extension — restart-read benchmark",
     "Future work (§VI): parallel post-processing / restart reads."),
    ("backend_comparison", "Extension — openPMD backend comparison",
     "Why the paper picks ADIOS2 over parallel HDF5."),
    ("bp4_vs_bp5", "Extension — BP4 vs BP5",
     "The §II-A efficiency-vs-memory trade-off, measured."),
    ("weak_scaling", "Extension — weak scaling",
     "Fixed per-rank load; ideal is a flat per-node rate."),
    ("sensitivity", "Extension — calibration sensitivity",
     "Elasticity of each anchor to each tuning constant (±50%)."),
    ("ablation_fsync", "Ablation — fsync-per-buffer", ""),
    ("ablation_aggregation", "Ablation — aggregation level", ""),
    ("ablation_shuffle", "Ablation — byte shuffle", ""),
    ("ablation_stdio_buffer", "Ablation — stdio buffer size", ""),
)


def build_report(results_dir: str | Path) -> str:
    """Assemble the markdown report from archived experiment outputs."""
    results_dir = Path(results_dir)
    lines = [
        "# Reproduction report",
        "",
        "Regenerated evaluation of Williams et al., *Enabling "
        "High-Throughput Parallel I/O in PIC MC Simulations with openPMD "
        "and Darshan I/O Monitoring* (CLUSTER 2024), on the virtual "
        "cluster.  See EXPERIMENTS.md for the measured-vs-paper analysis.",
        "",
    ]
    missing = []
    for name, title, anchor in SECTIONS:
        path = results_dir / f"{name}.txt"
        lines.append(f"## {title}")
        lines.append("")
        if anchor:
            lines.append(f"*{anchor}*")
            lines.append("")
        if path.exists():
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            missing.append(name)
            lines.append("_not yet generated — run "
                         "`python -m repro.experiments`_")
        lines.append("")
    if missing:
        lines.append(f"_missing sections: {', '.join(missing)}_")
    return "\n".join(lines)


def write_report(results_dir: str | Path) -> Path:
    """Build and save ``results/REPORT.md``; returns the path."""
    results_dir = Path(results_dir)
    out = results_dir / "REPORT.md"
    out.write_text(build_report(results_dir) + "\n")
    return out


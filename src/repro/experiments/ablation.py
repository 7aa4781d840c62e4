"""Ablations of the reproduction's load-bearing design choices.

Each ablation switches off one mechanism and shows the paper's result
disappears — evidence that the model reproduces the figures for the
*right reason* rather than by curve fitting.  The unablated runs are
the figures' own sweep points, so a warm cache serves them.
"""

from __future__ import annotations

import zlib

from repro.cluster.presets import dardel
from repro.compression import BloscCompressor, probe_block
from repro.experiments.common import TableResult
from repro.experiments.points import openpmd_report, original_report
from repro.experiments.sweep import sweep
from repro.util.tables import Table


def run_ablation_fsync() -> TableResult:
    """Without the fsync-per-buffer behaviour the original path flies —
    the Fig. 5 metadata mountain (Figs. 2/5) is entirely fsync commits."""
    point = {"machine": dardel(), "nodes": 200, "seed": 0}
    on, off = sweep(original_report,
                    [point, {**point, "fsync_checkpoints": False}])
    table = Table(
        ["variant", "GiB/s", "meta s/proc"],
        "Ablation: fsync-per-buffer in the original I/O (200 nodes)",
        [[label, f"{rep['gib']:.3f}", f"{rep['split'].meta_seconds:.2f}"]
         for label, rep in (("8 KiB buffers + fsync (paper)", on),
                            ("fsync disabled", off))])
    return TableResult(table.render(), {"synced": on, "unsynced": off})


def run_ablation_aggregation() -> TableResult:
    """File-per-process BP4 (M = ranks) loses most of the tuned win —
    aggregation, not the engine, is the Fig. 6 speedup."""
    variants = {"tuned (400 aggregators)": 400, "file-per-process": 25600,
                "single file": 1}
    reports = sweep(openpmd_report,
                    [{"machine": dardel(), "nodes": 200,
                      "num_aggregators": m, "seed": 0}
                     for m in variants.values()])
    gib = {label: rep["gib"] for label, rep in zip(variants, reports)}
    table = Table(["variant", "GiB/s"],
                  "Ablation: aggregation level (200 nodes)",
                  [[label, f"{value:.2f}"] for label, value in gib.items()])
    return TableResult(table.render(), gib)


def run_ablation_shuffle() -> TableResult:
    """Deflate without the byte shuffle barely compresses particle
    floats — the shuffle is why Blosc beats bzip2 in Table II."""
    block = probe_block("particle_float32")
    ratios = {
        "shuffle + deflate (Blosc model)":
            len(BloscCompressor().compress_bytes(block)) / len(block),
        "deflate only": len(zlib.compress(block, 1)) / len(block),
    }
    table = Table(["codec", "ratio"],
                  "Ablation: byte shuffle on particle float32 data",
                  [[label, f"{r:.3f}"] for label, r in ratios.items()])
    return TableResult(table.render(), ratios)


def run_ablation_stdio_buffer() -> TableResult:
    """Bigger stdio buffers mean fewer synced flushes — the original
    path's throughput scales with buffer size until transfer dominates."""
    sizes = (4096, 8192, 65536, 1 << 20)
    gib = [rep["gib"] for rep in sweep(
        original_report, [{"machine": dardel(), "nodes": 50, "seed": 0,
                           "bufsize": b} for b in sizes])]
    table = Table(["stdio buffer", "GiB/s"],
                  "Ablation: stdio buffer size, original I/O (50 nodes)",
                  [[str(b), f"{g:.3f}"] for b, g in zip(sizes, gib)])
    return TableResult(table.render(), {"gib": gib})

"""Text rendering of Darshan logs — the ``darshan-parser`` equivalent.

``darshan-parser --total`` style output: job header, per-module counter
totals, and per-file records.  Useful for eyeballing a run and for the
documentation examples; the numeric analysis goes through
:mod:`repro.darshan.report` instead.
"""

from __future__ import annotations

import numpy as np

from repro.darshan.counters import all_counter_names
from repro.darshan.log import DarshanLog
from repro.util.units import format_size


def parse_totals(log: DarshanLog) -> dict[str, float]:
    """All counters summed over ranks, fully-qualified names."""
    out: dict[str, float] = {}
    for mod in log.modules.values():
        for name in all_counter_names(mod.name):
            if name in mod.counters:
                out[f"total_{name}"] = float(mod.counters[name].sum())
    return out


def render_totals(log: DarshanLog) -> str:
    """``darshan-parser --total``-style text dump."""
    lines = [
        "# darshan log version: 3.41 (repro synthetic)",
        f"# exe: {log.exe}",
        f"# jobid: {log.jobid}",
        f"# nprocs: {log.nprocs}",
        f"# run time: {log.runtime_seconds:.6f}",
        f"# machine: {log.machine}",
        f"# config: {log.config}",
        "#",
    ]
    for name, value in parse_totals(log).items():
        if name.endswith("_TIME"):
            lines.append(f"{name}: {value:.6f}")
        else:
            lines.append(f"{name}: {value:.0f}")
    return "\n".join(lines)


def render_file_records(log: DarshanLog, limit: int | None = None) -> str:
    """Per-file record dump, largest writers first."""
    lines = [
        "# <path> <opens> <writes> <fsyncs> <bytes_written> <cumulative_time_s>",
    ]
    files = log.files
    # a stable sort, as ``sorted`` by ``-bytes_written`` was
    order = np.argsort(-files.bytes_written, kind="stable")[:limit]
    for rec in (files[i] for i in order.tolist()):
        lines.append(
            f"{rec.path} {rec.opens:.0f} {rec.writes:.0f} {rec.fsyncs:.0f} "
            f"{rec.bytes_written:.0f} ({format_size(rec.bytes_written)}) "
            f"{rec.cumulative_time:.6f}"
        )
    return "\n".join(lines)


def render(log: DarshanLog, file_limit: int = 20) -> str:
    """Full report: totals plus the top file records."""
    return render_totals(log) + "\n#\n" + render_file_records(log, file_limit)

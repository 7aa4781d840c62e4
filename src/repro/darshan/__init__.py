"""Darshan-like I/O monitoring: runtime counters, logs, parser, reports."""

from repro.darshan.counters import MODULES, all_counter_names
from repro.darshan.dxt import DXTRecorder, Segment
from repro.darshan.log import DarshanLog, FileRecord, FileTable, ModuleRecord
from repro.darshan.parser import parse_totals, render, render_totals
from repro.darshan.report import (
    CostSplit,
    FileStats,
    agg_perf_by_slowest,
    avg_seconds_per_write,
    cost_split,
    file_stats_from_sizes,
    job_summary,
    write_throughput,
    write_throughput_gib,
)
from repro.darshan.runtime import DarshanMonitor

__all__ = [
    "MODULES",
    "CostSplit",
    "DXTRecorder",
    "DarshanLog",
    "DarshanMonitor",
    "FileRecord",
    "FileStats",
    "FileTable",
    "ModuleRecord",
    "Segment",
    "agg_perf_by_slowest",
    "all_counter_names",
    "avg_seconds_per_write",
    "cost_split",
    "file_stats_from_sizes",
    "job_summary",
    "parse_totals",
    "render",
    "render_totals",
    "write_throughput",
    "write_throughput_gib",
]

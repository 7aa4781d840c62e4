"""Shared fixtures for the benchmark harness.

Each ``test_bench_*`` module regenerates one of the paper's tables or
figures.  Every benchmark runs the full experiment once (the sweeps are
themselves many simulated jobs — repeating them adds nothing), renders
the same rows/series the paper reports, and archives the text under
``results/`` next to this directory.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def archive(results_dir):
    """Return a callable that stores one experiment's rendered output."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def paired_ratio(n: int, reference, variant) -> float:
    """Median over ``n`` pairs of ``variant()`` / ``reference()`` wall time.

    Overhead guards compare two variants in one process, so machine
    speed cancels out.  The two runs of a pair go back to back, in
    alternating order, so both see the same host load, and the median
    drops the pairs a burst of load hit on one side only.  On a busy
    shared host the best-of-n time of each side does not cancel that
    noise: one lucky fast reference run is enough to fail the check.
    """
    ratios = []
    for i in range(n):
        pair = [reference, variant] if i % 2 == 0 else [variant, reference]
        seconds = {}
        for fn in pair:
            t0 = time.perf_counter()
            fn()
            seconds[fn] = time.perf_counter() - t0
        ratios.append(seconds[variant] / seconds[reference])
    return statistics.median(ratios)


@pytest.fixture(scope="session", autouse=True)
def final_report(results_dir):
    """After the bench session, assemble results/REPORT.md."""
    yield
    from repro.experiments.report import write_report

    path = write_report(results_dir)
    print(f"\n[aggregate report written to {path}]")

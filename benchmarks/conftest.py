"""Shared helper of the overhead guards: each ``test_bench_*_overhead``
module checks that a feature costs little or nothing when unused."""

from __future__ import annotations

import statistics
import time


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

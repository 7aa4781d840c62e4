"""One workload in a fresh interpreter: ``python -m bench.child``.

The parent (:mod:`bench.harness`) spawns this module with the sweep
cache off, one sweep worker and single-threaded BLAS, and reads one
JSON object from the last line of its standard output.

An untraced run times rounds of the op list until ``--seconds`` have
passed and at least ``--min-rounds`` rounds are done.  A traced run
times ``--min-rounds`` untraced rounds, installs the span wrappers and
times one traced round; the traced round over the fastest untraced one
gives the tracing overhead.  Every round's results must equal the
first round's.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np


def canonical(obj) -> str:
    """Deterministic JSON text of an op result (floats at full precision)."""
    return json.dumps(obj, sort_keys=True, default=_jsonable)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"op result holds a {type(obj).__name__}")


def gib_values(obj) -> list[float]:
    """Every number stored under a ``gib`` key, at any depth."""
    if isinstance(obj, dict):
        return [v for k, x in obj.items()
                for v in ([float(x)] if k == "gib" else gib_values(x))]
    if isinstance(obj, (list, tuple)):
        return [v for x in obj for v in gib_values(x)]
    return []


def _count_darshan(counts: dict) -> None:
    """Sum the bytes of every Darshan log finalized from now on."""
    from repro.darshan.runtime import DarshanMonitor

    finalize = DarshanMonitor.finalize

    def counted(self, *args, **kwargs):
        log = finalize(self, *args, **kwargs)
        counts["darshan.bytes_written"] += float(log.total_bytes_written())
        counts["darshan.bytes_read"] += float(log.total_bytes_read())
        return log

    DarshanMonitor.finalize = counted


def judge(rounds: list[list], check) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every round's op records.

    A record fails when its op raised, when its name or canonical result
    differs from the first round's, or when a ``gib`` it reports is not
    finite and positive.  Each workload-level check message counts as
    one more failure.
    """
    first = rounds[0]
    want = [(r.name, canonical(r.result)) for r in first]
    attempted = failed = 0
    messages: list[str] = []
    for i, records in enumerate(rounds):
        if len(records) != len(first):
            failed += 1
            messages.append(f"round {i} ran {len(records)} ops, round 0 "
                            f"ran {len(first)}")
        for j, rec in enumerate(records):
            attempted += 1
            why = None
            if rec.error is not None:
                why = f"raised:\n{rec.error}"
            elif j >= len(want) or (rec.name, canonical(rec.result)) != want[j]:
                why = "result differs from round 0"
            elif not all(math.isfinite(g) and g > 0
                         for g in gib_values(rec.result)):
                why = "non-finite or non-positive gib"
            if why is not None:
                failed += 1
                messages.append(f"round {i} op {rec.name}: {why}")
        for msg in check(records):
            failed += 1
            messages.append(f"round {i}: {msg}")
    return attempted, min(failed, attempted), messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-rounds", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's time.monotonic() just before spawning")
    args = ap.parse_args(argv)

    import repro
    from bench import spans, workloads

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    wl.warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds: list[list] = []
    round_s: list[float] = []
    counts: dict[str, float] = defaultdict(float)
    tracer = None
    start = time.perf_counter()
    while True:
        if args.trace and len(rounds) == args.min_rounds:
            _count_darshan(counts)
            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        rounds.append(wl.run_round())
        round_s.append(time.perf_counter() - t0)
        if tracer is not None:
            break
        if (not args.trace and len(rounds) >= args.min_rounds
                and time.perf_counter() - start >= args.seconds):
            break
    elapsed_s = time.perf_counter() - start
    traced = tracer.snapshot() if tracer is not None else None

    attempted, failed, messages = judge(rounds, wl.check)
    extra, finish_failures = wl.finish()
    failed = min(failed + len(finish_failures), attempted)
    messages += finish_failures

    digest = hashlib.sha256(canonical(
        [(r.name, r.result) for r in rounds[0]]).encode()).hexdigest()
    untraced = rounds[:-1] if traced is not None else rounds
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "elapsed_s": elapsed_s,
        "round_s": round_s,
        "ops": [{"name": rec.name,
                 "seconds": [r[j].seconds for r in untraced if j < len(r)]}
                for j, rec in enumerate(rounds[0])],
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result_digest": digest,
    }
    if traced is not None:
        counters = dict(counts)
        counters.update(wl.counters(rounds[-1]))
        counters.update(extra)
        out["trace"] = {
            "elapsed_s": round_s[-1],
            "untraced_elapsed_s": min(round_s[:-1]),
            "calls": traced["calls"],
            "self_s": traced["self_s"],
            "edges": traced["edges"],
            "counters": counters,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Parent side of ``python -m bench``: spawn, reduce, report, compare.

Each workload runs in its own fresh child interpreter
(:mod:`bench.child`), one at a time: a closed loop with one client,
where each op starts after the previous one ends, as in a sweep.  The
end-to-end metrics come from an untraced child; ``--trace`` runs a
separate traced child and reports the per-layer metrics instead.

Metric names, units, bounds and workload names are read from the
repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: fresh interpreters whose set-up time is measured per workload
SETUP_RUNS = 3
#: rounds every untraced full-size run makes at least; quick and
#: traced runs make two (a traced run then adds its traced round)
MIN_ROUNDS = 3
#: seconds one child may take before it is killed
CHILD_TIMEOUT = 150


class BenchError(RuntimeError):
    """A child could not produce a result (crash, timeout, bad output)."""


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def child_env(tmpdir: str) -> dict:
    """Environment of every child: serial sweeps, no cache, one thread.

    The two ``MALLOC_*`` settings pin glibc's mmap and trim thresholds
    at the top of the range its dynamic adjustment would reach in a
    long-running process.  Left dynamic, whether a large array comes
    from the heap or from fresh mmap pages depends on the process's
    allocation history, and identical ops differed by up to 2x between
    processes.
    """
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([SRC, ROOT]),
               REPRO_SWEEP_JOBS="1", REPRO_SWEEP_CACHE="",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(128 << 20), TMPDIR=tmpdir)
    return env


def spawn(workload: str, seed: int, *, seconds: float = 0.0,
          quick: bool = False, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one child to completion; its last stdout line as a dict."""
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-rounds", str(2 if quick or trace else MIN_ROUNDS)]
    cmd += ["--quick"] * quick + ["--trace"] * trace
    cmd += ["--setup-only"] * setup_only
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=child_env(tmpdir),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child timed out after "
                         f"{exc.timeout}s") from None
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{workload}: unreadable child output "
                         f"{lines[-1][:200]!r}") from None


def per_op_min(ops: list[dict]) -> list[float]:
    """The min-of-R reducer: each op's fastest round."""
    return [min(op["seconds"]) for op in ops]


def end_to_end(child: dict, setups: list[float]) -> dict:
    """The end-to-end metrics of one untraced child plus set-up runs."""
    mins = per_op_min(child["ops"])
    return {
        "wall_s": sum(mins),
        "op_p50_s": statistics.median(mins),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(child: dict, spec: dict) -> dict:
    """Every per-layer metric named in the spec, from one traced child."""
    tr = child["trace"]
    out = {}
    for layer, n in tr["calls"].items():
        out[f"{layer}.calls"] = n
        out[f"{layer}.self_s"] = tr["self_s"][layer]
    out["unattributed_s"] = tr["elapsed_s"] - sum(tr["self_s"].values())
    out["trace_overhead_frac"] = (tr["elapsed_s"] / tr["untraced_elapsed_s"]
                                  - 1.0)
    out.update(tr["counters"])
    # counters a workload never touches (serving.* outside serving_read,
    # resilience.* outside restart_functional, ...) read as 0
    return {m["name"]: out.get(m["name"], 0.0) for m in spec["per_layer"]}


def measure(workload: str, seed: int, seconds: float, quick: bool,
            trace: bool, spec: dict) -> dict:
    """One workload end to end: children, reduction, checks."""
    if trace:
        child = spawn(workload, seed, quick=quick, trace=True)
        metrics = per_layer(child, spec)
        setups = [child["setup_s"]]
    else:
        child = spawn(workload, seed, seconds=seconds, quick=quick)
        setups = [child["setup_s"]] + [
            spawn(workload, seed, quick=quick, setup_only=True)["setup_s"]
            for _ in range(0 if quick else SETUP_RUNS - 1)]
        metrics = end_to_end(child, setups)
    return {
        "n_ops": len(child["ops"]),
        "rounds": len(child["round_s"]),
        "metrics": metrics,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_frac": child["failed"] / child["attempted"],
        "failures": child["failures"],
        "elapsed_s": child["elapsed_s"],
        "result_digest": child["result_digest"],
        "setup_runs": setups,
        "ops": {op["name"]: op["seconds"] for op in child["ops"]},
        **({"edges": child["trace"]["edges"]} if trace else {}),
    }


def render(name: str, res: dict, spec: dict, trace: bool) -> str:
    """Human-readable block for one workload."""
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    lines = [f"{name}: n={res['n_ops']} ops x {res['rounds']} rounds, "
             f"failed {res['failed']}/{res['attempted']} "
             f"(failed_frac {res['failed_frac']:.3g}), "
             f"elapsed {res['elapsed_s']:.2f} s, "
             f"result_digest {res['result_digest'][:16]}"]
    m = res["metrics"]
    if trace:
        elapsed = m["unattributed_s"] + sum(
            v for k, v in m.items() if k.endswith(".self_s"))
        lines.append(f"  {'layer':<20}{'calls':>10}{'self_s':>11}{'share':>8}")
        layers = sorted((k[:-len(".self_s")] for k in m
                         if k.endswith(".self_s")),
                        key=lambda k: -m[f"{k}.self_s"])
        for layer in layers:
            s = m[f"{layer}.self_s"]
            lines.append(f"  {layer:<20}{m[f'{layer}.calls']:>10}"
                         f"{s:>11.4f}{s / elapsed:>8.1%}")
        rest = [k for k in m if not k.endswith((".self_s", ".calls"))]
    else:
        rest = list(m)
    for key in rest:
        lines.append(f"  {key:<28}{m[key]:>14.6g} {units[key]}")
    lines += [f"  FAILED {msg}" for msg in res["failures"]]
    return "\n".join(lines)


def environment() -> dict:
    """Where a snapshot was taken: code revision, toolchain, host."""
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except OSError:
        rev = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "date": datetime.date.today().isoformat(),
        "git_rev": rev or "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def write_snapshot(path: str, section: str, run: dict) -> str:
    """Store ``run`` as ``section`` ("end_to_end" or "trace") of a snapshot.

    A directory gets ``BENCH_<yyyymmdd>.json``.  An existing snapshot
    keeps its other section, so an untraced and a traced run of one
    commit can share a file.
    """
    env = environment()
    if os.path.isdir(path):
        path = os.path.join(path, f"BENCH_{env['date'].replace('-', '')}.json")
    snapshot = {}
    if os.path.exists(path):
        with open(path) as f:
            snapshot = json.load(f)
    snapshot["env"] = env
    snapshot[section] = run
    with open(path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# -- compare -----------------------------------------------------------------


def _snapshots(path: str) -> list[dict]:
    """A snapshot file, or every ``*.json`` snapshot in a directory."""
    paths = ([os.path.join(path, p) for p in sorted(os.listdir(path))
              if p.endswith(".json")] if os.path.isdir(path) else [path])
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float,
            better: str = "lower") -> tuple[str, float]:
    """(verdict, relative delta) of side ``b`` against base side ``a``.

    ``worse`` when b's median is worse than a's by more than ``bound``;
    ``improved`` when it is better by more than a's quartile spread;
    ``unresolved`` when either side's quartile spread, as a share of its
    median, is wider than ``bound`` — unless every run of b beats (or
    loses to) every run of a; ``unchanged`` otherwise.  A zero bound
    (a failure count: any increase is worse) compares medians exactly,
    and a zero base median makes any worsening infinitely large.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = _quartiles(a), _quartiles(b)
    ma, mb = qa[1], qb[1]
    if ma:
        delta = (mb - ma) / abs(ma)
    else:
        delta = 0.0 if mb == ma else float("inf") * (1 if mb > ma else -1)
    worse_by = sign * delta
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    if bound and spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved", delta
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse", delta
        return "unresolved", delta
    if worse_by > bound:
        return "worse", delta
    if sign * (ma - mb) > (qa[2] - qa[0]) and worse_by < 0:
        return "improved", delta
    return "unchanged", delta


def compare(path_a: str, path_b: str, spec: dict) -> tuple[str, bool]:
    """Table of every workload x end-to-end metric; (text, any worse)."""
    sides = [_snapshots(path_a), _snapshots(path_b)]
    metrics = [(m["name"], m["unit"], m["bound"], m["better"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "1", 0.0, "lower"))
    names = [w["name"] for w in spec["workloads"]]
    head = (f"{'workload':<20}{'metric':<13}{'A median [q1,q3]':>30}"
            f"{'B median [q1,q3]':>30}{'delta':>9}{'bound':>7}  verdict")
    lines = [f"A: {path_a} ({len(sides[0])} snapshots)   "
             f"B: {path_b} ({len(sides[1])} snapshots)", head]
    any_worse = False
    for w in names:
        for metric, unit, bound, better in metrics:
            vals = []
            for snaps in sides:
                runs = [s["end_to_end"]["workloads"][w] for s in snaps
                        if w in s.get("end_to_end", {}).get("workloads", {})]
                vals.append([r["metrics"].get(metric, r.get(metric))
                             for r in runs])
            if not vals[0] or not vals[1] or None in vals[0] + vals[1]:
                continue
            v, delta = verdict(vals[0], vals[1], bound, better)
            any_worse |= v == "worse"
            cells = []
            for side in vals:
                q1, q2, q3 = _quartiles(side)
                cells.append(f"{q2:.4g} [{q1:.4g},{q3:.4g}] {unit}")
            lines.append(f"{w:<20}{metric:<13}{cells[0]:>30}{cells[1]:>30}"
                         f"{delta:>+9.1%}{bound:>7.0%}  {v}")
    return "\n".join(lines), any_worse


# -- command line ------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run the simulator benchmark (all workloads by default).")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (default 0)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of timed rounds per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="report per-layer metrics from a traced run")
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, two rounds (smoke test)")
    ap.add_argument("--out", help="write the snapshot JSON here "
                                  "(a directory gets BENCH_<date>.json)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two snapshots (or directories of them)")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        text, any_worse = compare(*args.compare, spec)
        print(text)
        return 1 if any_worse else 0
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2

    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {names}")
    seconds = (0.0 if args.quick else
               spec["run_seconds"] if args.seconds is None else args.seconds)
    trace = bool(args.trace)

    results = {}
    for name in chosen:
        try:
            results[name] = measure(name, args.seed, seconds, args.quick,
                                    trace, spec)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(render(name, results[name], spec, trace), flush=True)

    if args.out:
        run = {"seed": args.seed, "seconds": seconds, "quick": args.quick,
               "workloads": results}
        path = write_snapshot(args.out, "trace" if trace else "end_to_end",
                              run)
        print(f"wrote {path}")

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}

    def with_units(metrics: dict) -> dict:
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    failed = sum(r["failed"] for r in results.values())
    # one workload (how the benchmark driver calls it): flat metrics;
    # several: one metrics object per workload
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": (with_units(results[chosen[0]]["metrics"])
                    if len(results) == 1 else
                    {n: with_units(r["metrics"]) for n, r in results.items()}),
    }))
    return 0 if failed == 0 else 1

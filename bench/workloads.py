"""The benchmark's workloads: inputs from a seed, timed rounds, checks.

Runs inside the child interpreter only.  Each workload builds its op
list from the seed, pays lazy imports and codec probes in
:meth:`Workload.warmup`, and times one pass over its ops per
:meth:`Workload.run_round`.  Ops call public ``repro`` entry points by
their module-global names at call time, so the traced run's wrappers
(:mod:`bench.spans`) see every call.  The seed only picks inputs that
leave the amount of work unchanged (storage weather, access streams,
the crashed node), so run-to-run spread is host noise.
"""

from __future__ import annotations

import hashlib
import pickle
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

# repro.experiments first: importing repro.tuning on its own hits a
# circular import (repro.tuning -> repro.experiments.tuning -> repro.tuning)
from repro.experiments.points import (
    openpmd_profile,
    openpmd_report,
    original_report,
    tuning_report,
)
from repro.experiments.serving import serving_report
from repro.experiments.tuning import PAPER_CANDIDATE
from repro.cluster.presets import dardel
from repro.darshan import write_throughput_gib
from repro.faults import FaultPlan, NodeCrash
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.resilience import CheckpointPolicy
from repro.trace import TraceSession
from repro.tuning import TuningSpace, tune
from repro.workloads import (
    paper_use_case,
    run_crash_restart,
    run_openpmd_scaled,
    small_use_case,
)

MiB = 1 << 20


@dataclass
class OpRecord:
    """One timed op of one round."""

    name: str
    seconds: float
    result: Any = None
    #: traceback text when the op raised
    error: str | None = None


def timed(name: str, fn: Callable[[], Any]) -> OpRecord:
    """Run one op; an exception is recorded as the op's failure."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:  # one failed op must not stop the benchmark
        return OpRecord(name, time.perf_counter() - t0,
                        error=traceback.format_exc())
    return OpRecord(name, time.perf_counter() - t0, result)


class Workload:
    """An op list run in rounds; subclasses fill :attr:`ops`."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.ops: list[tuple[str, Callable[[], Any]]] = []

    def warmup(self) -> None:
        """One small op so imports and lazy probes land in setup."""

    def run_round(self) -> list[OpRecord]:
        return [timed(name, fn) for name, fn in self.ops]

    def check(self, records: list[OpRecord]) -> list[str]:
        """Workload-specific checks on one round; failure messages."""
        return []

    def counters(self, records: list[OpRecord]) -> dict[str, float]:
        """Per-layer counts derived from one round's results."""
        return {}

    def finish(self) -> tuple[dict[str, float], list[str]]:
        """Untimed work after the last round: (counters, failures)."""
        return {}, []


class PaperFigs(Workload):
    """Cold Dardel points behind Table II and Figs. 3, 6 and 8."""

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        m = dardel()
        nodes = (1, 5) if quick else (1, 10, 50, 200)
        self.top = top = nodes[-1]
        for n in nodes:
            self.ops.append((f"original@{n}", lambda n=n: original_report(
                machine=m, nodes=n, seed=seed)))
        for n in nodes:
            self.ops.append((f"bp4@{n}", lambda n=n: openpmd_report(
                machine=m, nodes=n, seed=seed)))
        for n in (5,) if quick else (10, 200):
            self.ops.append((f"bp4_blosc_1aggr@{n}", lambda n=n: openpmd_report(
                machine=m, nodes=n, num_aggregators=1, compressor="blosc",
                seed=seed)))
        for a in (2 * top, 128 * top):
            self.ops.append((f"bp4_{a}aggr@{top}", lambda a=a: openpmd_report(
                machine=m, nodes=top, num_aggregators=a, seed=seed)))
        for c in (None, "blosc"):
            self.ops.append((f"profile_{c or 'plain'}@{top}",
                             lambda c=c: openpmd_profile(
                                 machine=m, nodes=top, compressor=c,
                                 seed=seed)))

    def warmup(self):
        m = dardel()
        original_report(machine=m, nodes=1, seed=self.seed)
        openpmd_profile(machine=m, nodes=1, compressor="blosc", seed=self.seed)

    def check(self, records):
        res = {r.name: r.result for r in records if r.error is None}
        plain = res.get(f"profile_plain@{self.top}")
        blosc = res.get(f"profile_blosc@{self.top}")
        if plain is None or blosc is None:
            return []  # the raising op already counts as failed
        if not (blosc["memcpy_us"] == 0.0 and plain["memcpy_us"] > 0.0):
            return [f"fig8: memcpy not eliminated by Blosc "
                    f"({plain['memcpy_us']} -> {blosc['memcpy_us']} us)"]
        return []


class TunerCold(Workload):
    """One cold autotuner search; each probe is one op.

    A probe's time is the interval since the previous probe finished
    (or since the search started), so the search's own bookkeeping —
    cache keys, cache writes, ranking — is charged to the probes it
    sits between.  The search itself is seeded with 0, so every seed
    probes the same candidates; the benchmark seed becomes each probe's
    storage-weather seed.
    """

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.machine = dardel()
        self.nodes = 10 if quick else 200
        self.space = (TuningSpace.quick() if quick
                      else TuningSpace()).for_machine(self.machine)
        self.config = paper_use_case().with_(
            last_step=2_000 if quick else 10_000)
        self.population = 4 if quick else 16
        self.baseline = self.space.clip(PAPER_CANDIDATE)
        self.cache: str | None = None
        self.outcome = None

    def warmup(self):
        small = self.config.with_(last_step=self.config.datfile)
        for codec in self.space.axis("compressor"):
            tuning_report(machine=self.machine, nodes=1, config=small,
                          compressor=codec, seed=self.seed)

    def _tune(self, cache: str, records: list[OpRecord] | None):
        last = time.perf_counter()

        def probe(**params):
            nonlocal last
            result = tuning_report(**{**params, "seed": self.seed})
            now = time.perf_counter()
            if records is not None:
                records.append(OpRecord(_probe_name(params), now - last,
                                        result))
            last = now
            return result

        return tune(self.machine, self.nodes, space=self.space,
                    config=self.config, baselines=(self.baseline,),
                    population=self.population, point_fn=probe,
                    seed=0, jobs=1, cache_dir=cache)

    def run_round(self):
        self._drop_cache()
        self.cache = tempfile.mkdtemp(prefix="bench-tune-")
        records: list[OpRecord] = []
        t0 = time.perf_counter()
        try:
            self.outcome = self._tune(self.cache, records)
        except Exception:
            self.outcome = None
            records.append(OpRecord("tune", time.perf_counter() - t0,
                                    error=traceback.format_exc()))
        return records

    def check(self, records):
        if self.outcome is None:
            return []  # the raising op already counts as failed
        paper = [p.objective for p in self.outcome.trace
                 if p.candidate == self.baseline and p.fidelity == 1.0]
        if not paper:
            return ["tuner: paper baseline never probed at full fidelity"]
        if self.outcome.best_objective < paper[0]:
            return [f"tuner: winner {self.outcome.best_objective} below "
                    f"paper baseline {paper[0]}"]
        return []

    def counters(self, records):
        return {"tuning.probes": len(records)}

    def finish(self):
        if self.cache is None:
            return {}, ["tuner: no cold search ran"]
        t0 = time.perf_counter()
        warm = self._tune(self.cache, None)
        warm_s = time.perf_counter() - t0
        self._drop_cache()
        frac = warm.cached_fraction
        failures = ([] if frac >= 0.95 else
                    [f"tuner: warm re-tune resolved only {frac:.0%} of "
                     f"probes from the cache"])
        return {"sweep.warm_hit_frac": frac, "sweep.warm_s": warm_s}, failures

    def _drop_cache(self):
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = None


def _probe_name(params: dict) -> str:
    """Stable probe identity: fidelity plus the candidate's parameters."""
    skip = {"machine", "config", "seed", "nodes"}
    parts = [f"steps={params['config'].last_step}"]
    parts += [f"{k}={params[k]}" for k in sorted(params) if k not in skip]
    return " ".join(parts)


class Scale1M(Workload):
    """One openPMD run at a million simulated ranks in bounded memory."""

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.nodes = 100 if quick else 1000
        config = paper_use_case().with_(last_step=20_000)
        self.ops.append((f"openpmd@{self.nodes}x1000",
                         lambda: self._run(self.nodes, config)))

    def _run(self, nodes, config):
        res = run_openpmd_scaled(
            dardel(), nodes, config=config, ranks_per_node=1000,
            mem_budget=32 * MiB, rank_block_size=8192,
            counter_granularity="node", seed=self.seed)
        sizes = res.file_sizes()
        return {
            "gib": write_throughput_gib(res.log),
            "makespan": res.comm.max_time(),
            "files": int(sizes.size),
            "bytes": float(sizes.sum()),
            "nranks": res.nranks,
            "mem_high_water": {k: v["high_water"]
                               for k, v in res.mem_report.items()},
        }

    def warmup(self):
        self._run(1, paper_use_case().with_(last_step=2_000))

    def counters(self, records):
        # as benchmarks/memdemo.py: the process's peak RSS per simulated
        # rank, the figure the bounded-memory property caps
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        nranks = max((r.result["nranks"] for r in records
                      if r.error is None), default=0)
        return {"mem.bytes_per_rank": peak / nranks if nranks else 0.0}


class ServingRead(Workload):
    """Reader fleets over pattern x prefetch policy."""

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.readers = 4 if quick else 16
        self.requests = 64 if quick else 256
        m = dardel()
        for pattern in ("repeated", "zipfian", "sequential"):
            for policy in ("lru", "markov", "adaptive"):
                self.ops.append((f"{pattern}/{policy}",
                                 lambda p=pattern, q=policy: serving_report(
                                     machine=m, nodes=10 if quick else 200,
                                     pattern=p, policy=q,
                                     readers=self.readers, cache_mib=512,
                                     prefetch_depth=2,
                                     requests_per_reader=self.requests,
                                     seed=self.seed)))

    def warmup(self):
        serving_report(machine=dardel(), nodes=1, pattern="zipfian",
                       policy="adaptive", readers=4, cache_mib=64,
                       prefetch_depth=2, requests_per_reader=16,
                       seed=self.seed)

    def check(self, records):
        want = self.readers * self.requests
        return [f"serving {r.name}: hits + misses = "
                f"{r.result['hits'] + r.result['misses']}, want {want}"
                for r in records if r.error is None
                and r.result["hits"] + r.result["misses"] != want]

    def counters(self, records):
        res = [r.result for r in records if r.error is None]
        hits = sum(r["hits"] for r in res)
        total = hits + sum(r["misses"] for r in res)
        issued = sum(r["prefetch_issued"] for r in res)
        return {
            "serving.hit_rate": hits / total if total else 0.0,
            "serving.prefetch_used_frac":
                sum(r["prefetch_used"] for r in res) / issued
                if issued else 0.0,
        }


#: checkpoint (and diagnostic) cadence of the restart workload
_RESTART_DMPSTEP = 20


class RestartFunctional(Workload):
    """Functional crash/restart runs with real particle payloads.

    The seed picks which node crashes in the partner-recovery case; the
    PFS-ring case crashes the other one, so every seed recovers each
    node once.  The crash step (mid-run, half an interval past a
    checkpoint) and the PIC RNG seed stay fixed: both change how many
    bytes the real-payload writers append, and the virtual filesystem's
    append cost grows faster than linearly with file size, so letting
    the seed move them would make the workload's cost depend on the
    seed.
    """

    CASES = ("fault_free", "partner", "pfs_ring")

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.config = small_use_case(
            ncells=32 if quick else 128,
            particles_per_cell=10 if quick else 40,
            last_step=60 if quick else 100,
            datfile=_RESTART_DMPSTEP, dmpstep=_RESTART_DMPSTEP)
        # an odd number of checkpoint intervals puts mid-run half an
        # interval past a checkpoint (step 50, restored from step 40)
        self.crash_step = self.config.last_step // 2
        for writer in ("original", "openpmd"):
            for case in self.CASES:
                self.ops.append((f"{writer}/{case}",
                                 lambda w=writer, c=case: self._run(
                                     self.config, w, c)))

    def _run(self, config, writer, case):
        fs = mount(dardel().storage_named("lfs"))
        comm = VirtualComm(8, 4)
        posix = PosixIO(fs, comm, trace=TraceSession(comm).bus)
        plan = policy = None
        if case != "fault_free":
            node = self.seed % 2 if case == "partner" else 1 - self.seed % 2
            plan = FaultPlan((NodeCrash(node, self.crash_step),))
            policy = (CheckpointPolicy.partner(l3_interval=0)
                      if case == "partner"
                      else CheckpointPolicy.pfs_only(async_flush=False))
        rep = run_crash_restart(config, comm, posix, "/out", writer=writer,
                                plan=plan, checkpoint_policy=policy)
        return {
            "state": _state_digest(rep.sim),
            "crashes": rep.crashes,
            "sources": [c.source for c in rep.crash_records],
            "pfs_bytes_read": float(fs.vfs.cols.bytes_read.sum()),
            "clock": comm.max_time(),
        }

    def warmup(self):
        tiny = small_use_case(ncells=16, particles_per_cell=4, last_step=4,
                              datfile=2, dmpstep=2)
        for writer in ("original", "openpmd"):
            self._run(tiny, writer, "fault_free")

    def check(self, records):
        res = {r.name: r.result for r in records if r.error is None}
        failures = []
        want_source = {"partner": "l1-partner", "pfs_ring": "l3"}
        for writer in ("original", "openpmd"):
            base = res.get(f"{writer}/fault_free")
            for case, source in want_source.items():
                run = res.get(f"{writer}/{case}")
                if base is None or run is None:
                    continue
                if run["state"] != base["state"]:
                    failures.append(f"restart {writer}/{case}: final state "
                                    f"differs from the fault-free run")
                if run["sources"] != [source]:
                    failures.append(f"restart {writer}/{case}: recovered "
                                    f"via {run['sources']}, want {source}")
                if case == "partner" and run["pfs_bytes_read"] != 0.0:
                    failures.append(f"restart {writer}/partner: read "
                                    f"{run['pfs_bytes_read']} PFS bytes")
        return failures

    def counters(self, records):
        return {"resilience.pfs_bytes_read": sum(
            r.result["pfs_bytes_read"] for r in records if r.error is None)}


def _state_digest(sim) -> str:
    """sha256 over particles, step and RNG stream states."""
    h = hashlib.sha256()
    h.update(str(sim.step_index).encode())
    for rank in range(len(sim.particles)):
        for species, fields in sorted(sim.state_arrays(rank).items()):
            h.update(species.encode())
            for name, arr in sorted(fields.items()):
                h.update(name.encode())
                h.update(arr.tobytes())
    # the snapshot is this process's own pickle of the registry
    root, streams = pickle.loads(sim.rng.snapshot())
    h.update(repr((root, sorted(streams.items(), key=repr))).encode())
    return h.hexdigest()


WORKLOADS: dict[str, type[Workload]] = {
    "paper_figs": PaperFigs,
    "tuner_cold": TunerCold,
    "scale_1m": Scale1M,
    "serving_read": ServingRead,
    "restart_functional": RestartFunctional,
}

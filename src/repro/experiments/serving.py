"""Read-side serving: hit rate and throughput vs pattern × policy.

The write plane answers "how fast can the job put the Table-II bytes on
disk"; this driver answers the mirror question the paper's §I
post-processing motivation implies: once the openPMD series exists,
how fast can a *portal's worth of concurrent analysis clients* get the
bytes back out — and how much does a predictive read cache buy over
re-reading storage every time?

Per (pattern, policy, readers, cache size) the sweep runs a
:class:`~repro.serving.fleet.ReaderFleet` against the Table-II-sized
series of one scaled run and records hit rate, aggregate read
throughput, prefetch accuracy and the Darshan-folded POSIX read volume
underneath the cache.  Points route through the cached sweep executor;
the ambient serving config is part of every cache key, so cells
evaluated under different cache/prefetch settings never alias.

The artifact carries the acceptance checks the serving plane must
hold: Markov beats LRU on repeated/locality patterns, readahead covers
sequential, and the 16-reader adaptive fleet clears 2x the uncached
fleet once the combined working set is cache-resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.presets import dardel
from repro.darshan import DarshanMonitor
from repro.experiments.common import resolve_machine, subset, write_artifact
from repro.experiments.sweep import sweep
from repro.fs import PosixIO, mount
from repro.mpi import VirtualComm
from repro.serving import ReaderFleet, SeriesLayout, ServingConfig
from repro.trace.session import TraceSession
from repro.util.tables import Table
from repro.util.units import MiB, to_gib
from repro.workloads.datamodel import Bit1DataModel
from repro.workloads.presets import paper_use_case

#: access patterns swept (ordering matters for --quick subsetting:
#: endpoints + middle keeps sequential / zipfian / repeated)
PATTERNS = ("sequential", "reverse", "random", "zipfian", "locality",
            "repeated")
#: cache policies swept ("none" is the uncached baseline fleet)
POLICIES = ("none", "lru", "readahead", "markov", "adaptive")
#: concurrent reader counts
READER_COUNTS = (4, 16)
#: shared cache sizes [MiB] — 512 keeps the 16-reader repeated working
#: set thrashing (separates Markov from LRU); 1024 makes it resident
#: (the throughput acceptance point)
CACHE_MIB = (512, 1024)
#: nodes of the producing job (sets the Table-II series size + subfiles)
PRODUCER_NODES = 200
#: requests per reader per fleet run
REQUESTS_PER_READER = 256


def serving_report(machine, nodes: int, pattern: str, policy: str,
                   readers: int, cache_mib: int, prefetch_depth: int,
                   requests_per_reader: int, seed: int,
                   config=None) -> dict:
    """One fleet run: fresh filesystem, fresh cache, exact accounting.

    Module-level and pure so the sweep executor can fork + memoise it.
    """
    m = resolve_machine(machine)
    model = Bit1DataModel(config if config is not None else paper_use_case(),
                          nodes * m.cores_per_node)
    layout = SeriesLayout.from_datamodel(
        model, "/serve/bit1_dat.bp4", n_subfiles=nodes, chunk_bytes=8 * MiB)
    fs = mount(m.storage_named("lfs"))
    comm = VirtualComm(readers, min(readers, m.cores_per_node))
    monitor = DarshanMonitor(readers)
    sess = TraceSession(comm, monitor=monitor)
    posix = PosixIO(fs, comm, trace=sess.bus)
    layout.materialize(fs)
    fleet = ReaderFleet(
        posix, layout, m.node, readers=readers, pattern=pattern,
        config=ServingConfig(cache_bytes=cache_mib * MiB, policy=policy,
                             prefetch_depth=prefetch_depth),
        requests_per_reader=requests_per_reader, seed=seed)
    rep = fleet.run()
    log = monitor.finalize(runtime_seconds=rep.elapsed_s)
    out = rep.to_dict()
    out["series_bytes"] = layout.total_bytes
    out["n_chunks"] = layout.n_chunks
    out["darshan_bytes_read"] = float(log.total_bytes_read())
    return out


@dataclass
class ServingRow:
    """One (pattern, policy, readers, cache size) cell."""

    pattern: str
    policy: str
    readers: int
    cache_mib: int
    hit_rate: float
    agg_throughput_gibps: float
    mean_latency_ms: float
    prefetch_issued: int
    prefetch_used: int
    prefetch_wasted: int
    evictions: int
    bytes_requested_gib: float
    darshan_read_gib: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ServingResult:
    """The serving-plane sweep on one machine."""

    machine: str
    series_gib: float
    n_chunks: int
    prefetch_depth: int
    requests_per_reader: int
    seed: int
    rows: list[ServingRow] = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def row(self, pattern: str, policy: str, readers: int,
            cache_mib: int) -> ServingRow | None:
        for r in self.rows:
            if (r.pattern, r.policy, r.readers, r.cache_mib) == (
                    pattern, policy, readers, cache_mib):
                return r
        return None

    def _check_cells(self) -> dict:
        """Acceptance checks, evaluated over whichever cells were swept.

        * predictive policies beat plain LRU hit-rate on the repeated
          and locality patterns at the thrashing cache size;
        * sequential readahead covers >= 90% of a sequential scan;
        * the 16-reader adaptive fleet clears 2x the uncached fleet's
          aggregate throughput at its best swept cache size.
        """
        checks: dict = {}
        caches = sorted({r.cache_mib for r in self.rows})
        readerss = sorted({r.readers for r in self.rows})
        if not caches or not readerss:
            return checks
        small = caches[0]
        many = readerss[-1]
        for pat in ("repeated", "locality"):
            for pol in ("markov", "adaptive"):
                a = self.row(pat, pol, many, small)
                b = self.row(pat, "lru", many, small)
                if a is not None and b is not None:
                    checks[f"{pol}_gt_lru_{pat}"] = {
                        "pass": a.hit_rate > b.hit_rate,
                        "hit_rate": a.hit_rate, "lru_hit_rate": b.hit_rate}
        for c in caches:
            r = self.row("sequential", "readahead", many, c)
            if r is not None:
                checks["readahead_sequential"] = {
                    "pass": r.hit_rate >= 0.9, "hit_rate": r.hit_rate,
                    "cache_mib": c}
                break
        best = None
        for c in caches:
            a = self.row("repeated", "adaptive", many, c)
            b = self.row("repeated", "none", many, c)
            if a is None or b is None or not b.agg_throughput_gibps:
                continue
            ratio = a.agg_throughput_gibps / b.agg_throughput_gibps
            if best is None or ratio > best[0]:
                best = (ratio, c)
        if best is not None:
            checks[f"adaptive{many}_speedup"] = {
                "pass": best[0] >= 2.0, "speedup": best[0],
                "cache_mib": best[1], "readers": many}
        return checks

    def to_artifact(self) -> dict:
        return {
            "experiment": "serving",
            "machine": self.machine,
            "series_gib": self.series_gib,
            "n_chunks": self.n_chunks,
            "prefetch_depth": self.prefetch_depth,
            "requests_per_reader": self.requests_per_reader,
            "seed": self.seed,
            "checks": self.checks,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_table(self) -> Table:
        t = Table(["pattern", "policy", "readers", "cache [MiB]", "hit",
                   "thr [GiB/s]", "lat [ms]", "pf used/issued", "evict",
                   "darshan read [GiB]"],
                  title=f"Serving plane on {self.machine} "
                        f"({self.series_gib:.2f} GiB series, "
                        f"{self.n_chunks} chunks, "
                        f"{self.requests_per_reader} req/reader)")
        for r in self.rows:
            t.add_row([r.pattern, r.policy, r.readers, r.cache_mib,
                       f"{r.hit_rate:.3f}",
                       f"{r.agg_throughput_gibps:.2f}",
                       f"{r.mean_latency_ms:.2f}",
                       f"{r.prefetch_used}/{r.prefetch_issued}",
                       r.evictions, f"{r.darshan_read_gib:.2f}"])
        return t

    def render(self) -> str:
        out = self.to_table().render()
        for name, c in sorted(self.checks.items()):
            status = "pass" if c.get("pass") else "FAIL"
            detail = ", ".join(f"{k}={v:.3f}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in c.items()
                               if k != "pass")
            out += f"\n  check {name}: {status} ({detail})"
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def run_serving(machine=None, patterns=PATTERNS, policies=POLICIES,
                reader_counts=READER_COUNTS, cache_mib=CACHE_MIB,
                prefetch_depth: int = 2, nodes: int = PRODUCER_NODES,
                requests_per_reader: int = REQUESTS_PER_READER,
                quick: bool = False, seed: int = 0, config=None,
                artifact_path: str | None = None) -> ServingResult:
    """Sweep pattern × policy × readers × cache size over one series."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    patterns = subset(tuple(patterns), quick)
    policies = subset(tuple(policies), quick)
    reader_counts = subset(tuple(reader_counts), quick)
    cache_mib = subset(tuple(cache_mib), quick)
    if quick:
        requests_per_reader = min(requests_per_reader, 96)

    points = [{"machine": machine, "nodes": nodes, "pattern": pat,
               "policy": pol, "readers": n, "cache_mib": c,
               "prefetch_depth": prefetch_depth,
               "requests_per_reader": requests_per_reader, "seed": seed,
               "config": config}
              for pat in patterns for pol in policies
              for n in reader_counts for c in cache_mib]
    reports = sweep(serving_report, points)

    result = ServingResult(
        machine=machine.name,
        series_gib=to_gib(reports[0]["series_bytes"]) if reports else 0.0,
        n_chunks=reports[0]["n_chunks"] if reports else 0,
        prefetch_depth=prefetch_depth,
        requests_per_reader=requests_per_reader, seed=seed)
    for point, rep in zip(points, reports):
        result.rows.append(ServingRow(
            pattern=point["pattern"], policy=point["policy"],
            readers=point["readers"], cache_mib=point["cache_mib"],
            hit_rate=rep["hit_rate"],
            agg_throughput_gibps=to_gib(rep["agg_throughput_bps"]),
            mean_latency_ms=rep["mean_latency_s"] * 1e3,
            prefetch_issued=rep["prefetch_issued"],
            prefetch_used=rep["prefetch_used"],
            prefetch_wasted=rep["prefetch_wasted"],
            evictions=rep["evictions"],
            bytes_requested_gib=to_gib(rep["bytes_requested"]),
            darshan_read_gib=to_gib(rep["darshan_bytes_read"])))

    result.checks = result._check_cells()
    failed = [k for k, c in result.checks.items() if not c.get("pass")]
    result.notes.append(
        f"{len(result.checks) - len(failed)}/{len(result.checks)} "
        f"acceptance checks pass"
        + (f"; failing: {failed}" if failed else ""))
    if artifact_path is not None:
        write_artifact(artifact_path, result.to_artifact())
        result.notes.append(f"artifact written to {artifact_path}")
    return result

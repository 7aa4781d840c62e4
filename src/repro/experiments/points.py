"""Shared sweep points — the unit of work the experiment drivers cache.

Every figure boils down to evaluating the model at (machine, nodes,
adaptor options) and reading one metric off the run.  Defining the
evaluation as a handful of module-level *point functions* (picklable by
reference, parameters canonicalisable) lets all drivers route through
:func:`repro.experiments.sweep.sweep`, which parallelises cache misses
and memoises results on disk.

Each point returns the *full* report of its run (throughput, cost
split, file census, per-write time) rather than one metric, so a point
evaluated for Fig. 3 is a cache hit when Table II or Fig. 5 asks about
the same configuration — the drivers just read different fields.
"""

from __future__ import annotations

from repro.darshan.report import (
    avg_seconds_per_write,
    cost_split,
    file_stats_from_sizes,
    write_throughput_gib,
)
from repro.ior.benchmark import run_ior
from repro.ior.config import table1_file_per_proc, table1_shared
from repro.workloads.datamodel import Bit1DataModel
from repro.workloads.presets import paper_use_case
from repro.workloads.runner import run_openpmd_scaled, run_original_scaled


def _report(res) -> dict:
    """The metrics every driver might want from one scaled run."""
    return {
        "gib": write_throughput_gib(res.log),
        "split": cost_split(res.log),
        "files": file_stats_from_sizes(res.file_sizes()),
        "seconds_per_write": avg_seconds_per_write(res.log),
    }


def original_report(machine, nodes, **run) -> dict:
    """One original-I/O run (Figs. 2-5, 7, Table II, weak scaling, the
    ablations); ``run`` is any :func:`run_original_scaled` keyword."""
    return _report(run_original_scaled(machine, nodes, **run))


def openpmd_report(machine, nodes, **run) -> dict:
    """One openPMD run; ``run`` is any :func:`run_openpmd_scaled` keyword.

    On top of :func:`_report`'s metrics: the makespan, the folded
    aggregation-phase cost and the async-drain accounting; with a summary
    trace also Fig. 8's per-rank memcpy/compress time and the per-layer
    breakdown, and for a hybrid run its GPU staging report.
    """
    res = run_openpmd_scaled(machine, nodes, **run)
    out = _report(res)
    out.update(
        makespan=res.comm.max_time(),
        aggregation_s=sum(p.total_us("aggregation") for p in res.profiles)
        / 1e6,
        peak_host_bytes=res.peak_host_bytes,
        drain_wait_s=res.drain_wait_seconds,
    )
    profile = res.trace.stream_profile
    if profile is not None:
        out.update(
            memcpy_us=profile.total_us("memcpy") / profile.nranks,
            compress_us=profile.total_us("compress") / profile.nranks,
            breakdown=res.trace.render_breakdown(),
        )
    if run.get("hybrid") is not None:
        out["gpu"] = res.gpu_report
    return out


def tuning_report(machine, nodes, aggs_per_node=1.0, async_drain=False,
                  queue_depth=2, ranks_per_node=128, **run) -> dict:
    """One joint-configuration probe of the I/O autotuner.

    Translates the tuner's units for :func:`openpmd_report`.
    ``aggs_per_node`` (not an absolute aggregator count) keeps candidates
    comparable across node counts; ``queue_depth`` is the number of
    per-step staging buffers each aggregator may hold while
    async-draining — it maps onto the engine's ``host_memory_bound``
    (BP5 ``MaxShmSize``) as ``depth × the aggregator's per-step
    diagnostic volume`` and is inert when ``async_drain`` is off.
    """
    num_aggregators = max(1, int(round(nodes * aggs_per_node)))
    host_memory_bound = None
    if async_drain:
        model = Bit1DataModel(run.get("config") or paper_use_case(),
                              nodes * ranks_per_node)
        step_bytes = (model.diag_bytes_per_rank_per_event()
                      * nodes * ranks_per_node / num_aggregators)
        host_memory_bound = max(int(queue_depth * step_bytes), 1 << 20)
    out = openpmd_report(
        machine, nodes, ranks_per_node=ranks_per_node,
        num_aggregators=num_aggregators, async_drain=async_drain,
        host_memory_bound=host_memory_bound, **run)
    out["host_memory_bound"] = host_memory_bound
    return out


def openpmd_profile(machine, nodes, **run) -> dict:
    """One profiled single-aggregator openPMD run (Fig. 8)."""
    return openpmd_report(machine, nodes, num_aggregators=1, profiling=True,
                          trace_mode="summary", **run)


def streaming_report(machine, nodes, config=None, queue_depth=4,
                     policy="block", compute_seconds_per_step=0.0,
                     seed=0) -> dict:
    """One in-situ streaming run (the repro.streaming experiment)."""
    from repro.streaming import run_streaming_scaled

    res = run_streaming_scaled(
        machine, nodes, config=config, queue_depth=queue_depth,
        policy=policy, compute_seconds_per_step=compute_seconds_per_step,
        seed=seed)
    return {
        "makespan": res.makespan,
        "producer_seconds": res.producer_seconds,
        "ttfi": res.time_to_first_insight,
        "peak_staging_bytes": res.peak_staging_bytes,
        "stalls": res.stalls,
        "stall_seconds": res.stall_seconds,
        "dropped": res.dropped,
        "published": res.published,
        "stored_bytes": res.stored_bytes,
        "storage_bytes_avoided": res.storage_bytes_avoided,
    }


def posthoc_report(machine, nodes, config=None,
                   compute_seconds_per_step=0.0, analysis_rate=None,
                   seed=0) -> dict:
    """One file-based run + modelled post-hoc read/analyse pass.

    The streaming experiment's baseline: the same job writes its output
    through openPMD+BP4, then a post-processing pass re-reads the series
    (read parallelism bounded by the subfile count, as in
    :mod:`repro.experiments.postproc`) and runs the same reductions at
    the same analysis rate.  First insight only exists once the run has
    finished *and* the first snapshot has been read back.
    """
    from repro.streaming.consumers import ANALYSIS_RATE

    if analysis_rate is None:
        analysis_rate = ANALYSIS_RATE
    res = run_openpmd_scaled(machine, nodes, config=config, seed=seed)
    cfg = config
    model = Bit1DataModel(cfg, res.nranks)
    compute_total = compute_seconds_per_step * cfg.last_step
    job_makespan = res.comm.max_time() + compute_total
    # restart-read mechanics: streams bounded by the written subfiles
    # (diag: one per node, ckpt: one) and the reader count
    read_rate = float(res.fs.perf.aggregate_write_rate(
        min(nodes + 1, 128), 1))
    total_bytes = model.openpmd_ondisk_bytes()
    first_bytes = res.nranks * model.diag_bytes_per_rank_per_event()
    read_all = total_bytes / read_rate
    analyze_all = total_bytes / analysis_rate
    return {
        "write_wall": res.comm.max_time(),
        "job_makespan": job_makespan,
        "ttfi": job_makespan + first_bytes / read_rate
        + first_bytes / analysis_rate,
        "makespan": job_makespan + read_all + analyze_all,
        "storage_bytes": total_bytes,
        "gib": write_throughput_gib(res.log),
    }


def ior_gib(machine, ntasks, file_per_proc, seed=0) -> float:
    """One Table I IOR reference run (Fig. 4), GiB/s."""
    config = (table1_file_per_proc(ntasks) if file_per_proc
              else table1_shared(ntasks))
    return run_ior(machine, config, seed=seed).write_gib_s

"""The paper's claims as checks on the full-size experiment results.

``python -m repro.experiments`` passes each full-size result to the
function here named after its experiment, which returns the messages of
the claims that fail (plain conditions: ``python -O`` strips
``assert``).  The checks read the full sweeps, so ``--quick`` skips them.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import paper_data as paper
from repro.ior import table1_file_per_proc, table1_shared


def _failed(*claims) -> list[str]:
    """The messages of the ``(holds, message)`` claims that do not hold."""
    return [message for holds, message in claims if not holds]


def fig2(r) -> list[str]:
    dardel, disco = r.get("Dardel"), r.get("Discoverer")
    return _failed(
        (dardel.y_at(200) > dardel.y_at(1), "Dardel must rise (0.09->0.41)"),
        (disco.y_at(200) < disco.y_at(1), "Discoverer must decline (-23%)"),
        *((0.4 * want <= r.get(m).y_at(n) <= 2.5 * want,
           f"{m}@{n}: {r.get(m).y_at(n):.3f} vs paper {want}")
          for m, anchors in paper.FIG2_ANCHORS.items()
          for n, want in anchors.items()))


def fig3(r) -> list[str]:
    orig, bp4 = r.get("BIT1 Original I/O"), r.get("BIT1 openPMD + BP4")
    peak_nodes, peak = orig.peak()
    return _failed(
        (0.4 <= bp4.y_at(1) <= 0.8, f"BP4 @1 node: {bp4.y_at(1):.2f}"),
        *((bp4.y_at(n) > orig.y_at(n), f"BP4 trails the original @{n}")
          for n in paper.NODE_COUNTS),
        (1 < peak_nodes < 200, f"the original peaks at {peak_nodes} nodes"),
        (orig.y_at(200) < peak, "the original must decline after its peak"),
        (bp4.y_at(200) > 5 * bp4.y_at(1), "BP4 must gain 5x by 200 nodes"))


def fig4(r) -> list[str]:
    orig, bp4 = r.get("BIT1 Original I/O"), r.get("BIT1 openPMD + BP4")
    fpp, shared = r.get("IOR FilePerProc"), r.get("IOR Shared")
    return _failed(
        *((orig.y_at(n) < ior.y_at(n), f"original >= {ior.label} @{n}")
          for ior in (fpp, shared) for n in paper.NODE_COUNTS),
        (bp4.y_at(200) > bp4.y_at(1) * 5, "BP4 must gain 5x by 200 nodes"),
        # IOR FPP at 25600 tasks is Fig. 6's extreme-aggregation regime
        (1.0 <= fpp.y_at(200) <= 10.0, f"IOR FPP @200: {fpp.y_at(200):.2f}"))


def fig5(r) -> list[str]:
    meta, want = r.original.meta_seconds, paper.FIG5_ORIGINAL["meta"]
    reads = r.bp4.read_seconds / max(r.original.read_seconds, 1e-12)
    return _failed(
        (abs(meta - want) <= 0.25 * want, f"original metadata {meta} s"),
        (r.meta_reduction >= paper.FIG5_META_REDUCTION - 0.005, "meta cut"),
        (r.write_reduction >= paper.FIG5_WRITE_REDUCTION - 0.03, "write cut"),
        (0.8 <= reads <= 1.2, f"BP4/original read time {reads:.3f}"),
        (meta > 5 * r.original.write_seconds, "metadata must dominate"))


def fig6(r) -> list[str]:
    s = r.series[0]
    peak_m, _ = s.peak()
    return _failed(
        *((0.6 * want <= s.y_at(m) <= 1.6 * want,
           f"M={m}: {s.y_at(m):.2f} vs paper {want}")
          for m, want in paper.FIG6_ANCHORS.items()),
        (200 <= peak_m <= 800, f"peak at {peak_m}, paper says 400"),
        (s.y_at(25600) > 3 * s.y_at(1), "25600 aggregators under 3x one"))


def fig7(r) -> list[str]:
    orig = r.get("BIT1 Original I/O")
    blosc = r.get("openPMD+BP4 + Blosc + 1 AGGR")
    # the original overtakes "from 10 to 50 nodes"
    crossover = [n for n in orig.xs if orig.y_at(n) >= blosc.y_at(n)]
    return _failed(
        *((blosc.y_at(n) > orig.y_at(n), f"BP4+Blosc trails @{n} nodes")
          for n in (1, 5)),
        (max(blosc.ys) / min(blosc.ys) < 1.6, "BP4+Blosc is not ~flat"),
        (crossover, "the original curve must overtake BP4+1AGGR"),
        (not crossover or 5 <= min(crossover) <= 100, f"at {crossover}"))


def fig8(r) -> list[str]:
    return _failed(
        (r.memcpy_eliminated, "memory copies not eliminated"),
        (r.memcpy_us_compressed == 0.0, "the compressed run copies"),
        (r.memcpy_us_uncompressed > 0.0, "the plain run copies nothing"),
        (r.compress_us_compressed > 0.0, "Blosc compresses nothing"),
        (r.compress_us_uncompressed == 0.0, "the plain run compresses"))


def fig9(r) -> list[str]:
    t = r.seconds
    by_count = t.max(axis=1) / t.min(axis=1)
    by_size = t.max(axis=0) / t.min(axis=0)
    return _failed(
        (t.shape == (5, 7), f"grid shape {t.shape}"),
        (np.all(t > 0), "every write time must be positive"),
        (t.min() <= paper.FIG9_BEST_SECONDS <= t.max(), "paper best off grid"),
        *((t[0, j] < t[-1, j], f"1 MiB stripes lose in column {j}")
          for j in range(t.shape[1])),
        (by_size.min() > by_count.max(), "OST count outweighs stripe size"))


def table1(r) -> list[str]:
    (fpp, shared), (gib_fpp, gib_shared) = r.values["configs"], r.values["gib"]
    return _failed(
        (gib_fpp > gib_shared, "IOR file-per-process must beat shared"),
        (fpp.file_per_proc and not shared.file_per_proc, "-F misparsed"),
        (fpp == table1_file_per_proc(fpp.num_tasks) and shared
         == table1_shared(shared.num_tasks), "IOR runs another command"))


def table2(r) -> list[str]:
    def saving(nodes):
        blosc, plain = (r.stats[k][nodes]
                        for k in ("bp4_blosc_1aggr", "bp4_1aggr"))
        return 1 - (blosc.total_files * blosc.avg_size_bytes
                    / (plain.total_files * plain.avg_size_bytes))

    s1, s200, cells = saving(1), saving(200), paper.TABLE2
    return _failed(
        *((r.stats[k][n].total_files == files, f"{k}@{n}: file count")
          for k in cells for n, files in cells[k]["files"].items()),
        *((abs(r.stats[k][n].avg_size_bytes - avg) <= 0.10 * avg,
           f"{k}@{n}: average size") for k in cells
          for n, avg in cells[k]["avg"].items()),
        (s1 > s200, "the Blosc saving must shrink with nodes"),
        (abs(s1 - 0.1111) <= 0.04, f"Blosc saving @1 node {s1:.4f}"),
        (abs(s200 - 0.0368) <= 0.03, f"Blosc saving @200 nodes {s200:.4f}"))


def table3_listing1(r) -> list[str]:
    st = r.values["stat"]
    return _failed(
        (st.stripe_count == paper.LISTING1_STRIPE_COUNT, "stripe count"),
        (st.stripe_size == paper.LISTING1_STRIPE_SIZE, "stripe size"),
        ("raid0" in r.values["listing"], "no raid0 pattern in the listing"))


def postproc(r) -> list[str]:
    rates = dict(zip(r.aggregators, r.read_gib_s))
    return _failed(
        (rates[400] > 10 * rates[1], "400 subfiles under 10x one"),
        (rates[25600] < rates[400], "25600 subfiles must restart slower"),
        (all(g > 0 for g in r.read_gib_s), "a restart rate is not positive"))


def backend_comparison(r) -> list[str]:
    bp4, h5 = r.values["BP4"], r.values["HDF5"]
    return _failed(
        (max(h5) / min(h5) < 1.5, "HDF5's shared file must not scale"),
        (bp4[-1] > 10 * h5[-1], "BP4 must beat HDF5 10x at 200 nodes"),
        (0.2 < h5[0] < 2 * bp4[0], f"HDF5 @1 node {h5[0]:.2f} GiB/s"))


def bp4_vs_bp5(r) -> list[str]:
    pairs = list(enumerate(zip(r.values["BP4"], r.values["BP5"])))
    return _failed(
        *((b5 <= b4 * 1.001, f"BP5 beats BP4 in row {i}")
          for i, (b4, b5) in pairs),
        *((b5 > 0.5 * b4, f"BP5 collapses in row {i}") for i, (b4, b5) in pairs))


def weak_scaling(r) -> list[str]:
    orig, bp4 = r.get("BIT1 Original I/O"), r.get("BIT1 openPMD + BP4")
    return _failed(
        (orig.y_at(200) < 0.3 * orig.y_at(1), "the original must collapse"),
        (bp4.y_at(200) / bp4.y_at(1) > 2 * (orig.y_at(200) / orig.y_at(1)),
         "BP4 must retain twice the original's share"),
        *((bp4.y_at(n) > orig.y_at(n), f"BP4 trails per node @{n}")
          for n in orig.xs))


#: (constant, anchor, |elasticity| bound, whether its mechanism owns the
#: anchor and so exceeds the bound); the single-stream cap's response is
#: partial: past +14% the OST term takes over, so at +50% it is ~0.2
_ELASTICITY_BOUNDS = (
    ("sync_latency", "orig meta s @200", 0.5, True),
    ("sync_latency", "BP4 @400 aggr", 0.1, False),
    ("agg_beta", "BP4 @400 aggr", 0.1, True),
    ("agg_beta", "orig tput @200", 0.1, False),
    ("interleave_gamma", "BP4 @25600 aggr", 0.2, True),
    ("interleave_gamma", "BP4 @1 aggr", 0.1, False),
    ("client_stream_bandwidth", "BP4 @1 aggr", 0.15, True),
    ("client_stream_bandwidth", "orig tput @200", 0.1, False),
)


def sensitivity(r) -> list[str]:
    e = r.elasticities
    return _failed(
        (all(r.shape_survives.values()), f"shape lost: {r.shape_survives}"),
        *((abs(e[c][a]) > bound if owned else abs(e[c][a]) < bound,
           f"|e({c}, {a})| = {abs(e[c][a]):.3f} against {bound}")
          for c, a, bound, owned in _ELASTICITY_BOUNDS))


def ablation_fsync(r) -> list[str]:
    on, off = r.values["synced"], r.values["unsynced"]
    return _failed(
        (off["gib"] > 3 * on["gib"], "without fsync under 3x faster"),
        (off["split"].meta_seconds < on["split"].meta_seconds / 3, "meta"))


def ablation_aggregation(r) -> list[str]:
    tuned = r.values["tuned (400 aggregators)"]
    return _failed(
        (tuned > 2.5 * r.values["file-per-process"], "under 2.5x FPP"),
        (tuned > 10 * r.values["single file"], "under 10x a single file"))


def ablation_shuffle(r) -> list[str]:
    shuffled = r.values["shuffle + deflate (Blosc model)"]
    return _failed(
        (shuffled < 0.92, "the shuffle must recover structure"),
        (r.values["deflate only"] > shuffled + 0.05, "deflate keeps up"))


def ablation_stdio_buffer(r) -> list[str]:
    gib = r.values["gib"]
    return _failed(
        (gib[-1] > gib[0], "larger buffers must help"),
        (np.all(np.diff(gib) > -1e-9), "monotone improvement expected"))


def _failing_cells(r) -> list[str]:
    """One message per acceptance cell of ``r.checks`` that fails: the
    GPU and serving drivers evaluate their own cells."""
    return [f"{name}: {cell}" for name, cell in sorted(r.checks.items())
            if not cell.get("pass")]


def gpu(r) -> list[str]:
    return _failing_cells(r)


def serving(r) -> list[str]:
    return _failing_cells(r)

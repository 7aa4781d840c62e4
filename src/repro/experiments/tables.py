"""Tables beside the figures: Tables I and III and the backend choices.

Table I runs the paper's IOR command lines as parsed; Table III sets
the paper's striping and lists a file under it.  The other two show why
the paper writes through ADIOS2 BP4: HDF5's one shared file cannot
scale (§II-B), and BP5's bounded staging costs throughput (§II-A).
"""

from __future__ import annotations

from repro.cluster.presets import dardel
from repro.experiments.common import TableResult
from repro.experiments.paper_data import TABLE3_COMMAND
from repro.experiments.points import ior_gib, openpmd_report
from repro.experiments.sweep import sweep
from repro.fs import SyntheticPayload, mount
from repro.ior import parse_command_line
from repro.util.tables import Table

#: Table I: the IOR reference command lines, file per process and shared
TABLE1_COMMANDS = ("srun -n 25600 ior -N=25600 -a POSIX -F -C -e",
                   "srun -n 25600 ior -N=25600 -a POSIX -C -e")

def run_table1() -> TableResult:
    """Table I: both IOR command lines on Dardel at 25 600 tasks."""
    configs = [parse_command_line(cmd) for cmd in TABLE1_COMMANDS]
    gib = sweep(ior_gib, [{"machine": dardel(), "ntasks": c.num_tasks,
                           "file_per_proc": c.file_per_proc, "seed": 0}
                          for c in configs])
    lines = ["Table I: IOR command lines on Dardel LFS (200 nodes)"]
    for cmd, value in zip(TABLE1_COMMANDS, gib):
        lines += [f"$ {cmd}", f"  -> {value:.2f} GiB/s write"]
    return TableResult("\n".join(lines), {"configs": configs, "gib": gib})


def run_table3() -> TableResult:
    """Table III / Listing 1: ``lfs setstripe`` then ``lfs getstripe``."""
    lfs = mount(dardel().storage_named("lfs"))
    lfs.vfs.mkdir("/io_openPMD")
    lfs.lfs_setstripe("/io_openPMD", stripe_count=8, stripe_size="16M")
    lfs.vfs.mkdir("/io_openPMD/dat_file.bp4")
    path = "/io_openPMD/dat_file.bp4/data.0"
    lfs.vfs.write(lfs.vfs.create(path), 0, SyntheticPayload(64 * 2**20))
    listing = lfs.lfs_getstripe(path)
    text = f"$ {TABLE3_COMMAND}\n$ lfs getstripe {path[1:]}\n{listing}"
    return TableResult(text, {"stat": lfs.vfs.stat(path), "listing": listing})


def run_backend_comparison() -> TableResult:
    """openPMD+BP4 (one aggregator per node) vs openPMD+HDF5 on Dardel."""
    points = [{"machine": dardel(), "nodes": n, "seed": 0}
              for n in (1, 10, 50, 200)]
    bp4 = sweep(openpmd_report, [{**p, "num_aggregators": p["nodes"]}
                                 for p in points])
    h5 = sweep(openpmd_report, [{**p, "engine_ext": ".h5"} for p in points])
    table = Table(["nodes", "openPMD+BP4 GiB/s", "openPMD+HDF5 GiB/s"],
                  "openPMD backend comparison on Dardel",
                  [[str(p["nodes"]), f"{a['gib']:.2f}", f"{b['gib']:.2f}"]
                   for p, a, b in zip(points, bp4, h5)])
    return TableResult(table.render(), {"BP4": [r["gib"] for r in bp4],
                                        "HDF5": [r["gib"] for r in h5]})


def run_bp4_vs_bp5() -> TableResult:
    """The aggregator sweep on both engines, Dardel at 200 nodes."""
    points = [{"machine": dardel(), "nodes": 200, "num_aggregators": m,
               "seed": 0} for m in (1, 100, 400, 25600)]
    bp4 = [r["gib"] for r in sweep(openpmd_report, points)]
    bp5 = [r["gib"] for r in sweep(openpmd_report, [
        {**p, "engine_ext": ".bp5"} for p in points])]
    table = Table(["aggregators", "BP4 GiB/s", "BP5 GiB/s", "BP5/BP4"],
                  "BP4 vs BP5 on Dardel (200 nodes)",
                  [[str(p["num_aggregators"]), f"{a:.2f}", f"{b:.2f}",
                    f"{b / a:.3f}"] for p, a, b in zip(points, bp4, bp5)])
    return TableResult(table.render(), {"BP4": bp4, "BP5": bp5})

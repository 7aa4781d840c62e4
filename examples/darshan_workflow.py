#!/usr/bin/env python
"""The paper's monitoring methodology, end to end.

"We evaluate the I/O performance of BIT1 in terms of write throughput by
extracting the throughput and amount of data stored by each file on the
file system using Darshan 3.4.2 logs" (§III-D).  This example walks the
complete workflow:

1. run a BIT1 job with Darshan attached (plus DXT extended tracing, a
   second subscriber on the same event bus);
2. finalize and save the log (gzip-JSON, like Darshan's per-job files);
3. reload it and extract the paper's metrics — write throughput
   (agg_perf_by_slowest), per-process cost split, per-file census;
4. dump darshan-parser text and a DXT trace excerpt;
5. show the timeline histogram DXT enables (when did the bytes move?).
"""

import tempfile
from pathlib import Path

from repro import (
    Bit1Simulation,
    DarshanMonitor,
    PosixIO,
    VirtualComm,
    cost_split,
    dardel,
    mount,
    small_use_case,
    write_throughput_gib,
)
from repro.darshan import DarshanLog, DXTRecorder, render_totals
from repro.darshan.parser import render_file_records
from repro.io_adaptor import Bit1OpenPMDWriter, OriginalIOWriter


def main() -> None:
    # -- 1. run with monitoring attached -----------------------------------
    config = small_use_case(ncells=64, particles_per_cell=20,
                            last_step=150, datfile=50, dmpstep=150)
    machine = dardel()
    fs = mount(machine.default_storage)
    comm = VirtualComm(8, ranks_per_node=4)
    monitor = DarshanMonitor(comm.size, jobid=4242, exe="bit1")
    posix = PosixIO(fs, comm, monitor)
    dxt = posix.trace.subscribe(DXTRecorder())  # DXT beside the counters

    sim = Bit1Simulation(config, comm, writers=[
        OriginalIOWriter(posix, comm, "/scratch/orig"),
        Bit1OpenPMDWriter(posix, comm, "/scratch/pmd"),
    ])
    sim.run()

    # -- 2. finalize + save the per-job log ---------------------------------
    log = monitor.finalize(runtime_seconds=comm.max_time(),
                           machine=machine.name, config="both-paths")
    log_path = Path(tempfile.mkdtemp()) / "bit1_4242.darshan.json.gz"
    log.save(log_path)
    print(f"darshan log saved: {log_path} "
          f"({log_path.stat().st_size} bytes on the host disk)")

    # -- 3. reload and extract the paper's metrics ----------------------------
    loaded = DarshanLog.load(log_path)
    split = cost_split(loaded)
    print(f"\nwrite throughput (agg_perf_by_slowest): "
          f"{write_throughput_gib(loaded):.4f} GiB/s")
    print(f"per-process costs: read {split.read_seconds:.4f}s | "
          f"meta {split.meta_seconds:.4f}s | write {split.write_seconds:.4f}s")
    stdio = loaded.counter_total("STDIO_BYTES_WRITTEN")
    posix_b = loaded.counter_total("POSIX_BYTES_WRITTEN")
    print(f"module split: STDIO (original path) {stdio:.0f} B, "
          f"POSIX (openPMD path) {posix_b:.0f} B")

    # -- 4. parser-style outputs -----------------------------------------------
    print("\n--- darshan-parser --total (excerpt) ---")
    print("\n".join(render_totals(loaded).splitlines()[7:19]))
    print("\n--- per-file records (top writers) ---")
    print(render_file_records(loaded, limit=5))

    print("\n--- DXT trace (first segments) ---")
    print(dxt.render(limit=5))

    # -- 5. the timeline DXT enables ----------------------------------------------
    hist = dxt.timeline_histogram(bins=10)
    peak = hist.max() or 1.0
    print("\nI/O timeline (bytes per virtual-time bin):")
    for i, v in enumerate(hist):
        bar = "#" * int(40 * v / peak)
        print(f"  bin {i:2d} | {bar} {v:.0f}")
    busiest = dxt.busiest_files(3)
    print("\nbusiest files:")
    for path, nbytes in busiest:
        print(f"  {nbytes:>10.0f} B  {path}")


if __name__ == "__main__":
    main()

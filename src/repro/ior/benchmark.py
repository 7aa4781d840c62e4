"""IOR benchmark executor over the virtual cluster (Fig. 4 reference).

"The IOR benchmark is a configurable tool that can be tailored to
simulate the read and write operations of real-world applications"
(§IV-A).  The executor drives the same POSIX layer as BIT1:

* **FilePerProc** (``-F``) — every task streams its block into its own
  file; the collective write-rate model applies with one file per task
  (at 25600 tasks this is exactly the paper's extreme-aggregation regime,
  which is why the IOR-FPP number lands near the 25600-aggregator point
  of Fig. 6).
* **Shared** — all tasks write disjoint segments of one wide-striped
  file; parallelism is bounded by the stripe count and extent-lock
  churn costs a fixed efficiency factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import Machine
from repro.darshan.log import DarshanLog
from repro.darshan.report import write_throughput_gib
from repro.darshan.runtime import DarshanMonitor
from repro.fs.lustre import LustreFilesystem
from repro.fs.mount import mount
from repro.fs.posix import PosixIO
from repro.ior.config import IORConfig
from repro.mpi.comm import VirtualComm
from repro.util.rng import RngRegistry, stream_seed

#: efficiency of shared-file writes relative to independent streams
#: (extent-lock ping-pong between clients touching adjacent stripes)
SHARED_FILE_LOCK_EFFICIENCY = 0.55


@dataclass
class IORResult:
    """Outcome of one IOR run."""

    config: IORConfig
    machine: str
    log: DarshanLog
    write_gib_s: float

    def summary(self) -> str:
        return (f"IOR {self.config.command_line()} on {self.machine}: "
                f"{self.write_gib_s:.2f} GiB/s write")


def run_ior(machine: Machine, config: IORConfig,
            ranks_per_node: int = 128,
            storage_name: str | None = None,
            seed: int = 0) -> IORResult:
    """Execute one IOR write test on a machine's storage."""
    storage = (machine.default_storage if storage_name is None
               else machine.storage_named(storage_name))
    rng = RngRegistry(stream_seed(seed, machine.name, config.command_line()))
    fs = mount(storage, rng)
    nodes = -(-config.num_tasks // ranks_per_node)
    comm = VirtualComm(config.num_tasks, ranks_per_node,
                       latency=machine.network.latency,
                       bandwidth=machine.network.nic_bandwidth)
    monitor = DarshanMonitor(comm.size, exe="ior")
    posix = PosixIO(fs, comm, monitor)
    outdir = "/scratch/ior"
    posix.mkdir(0, outdir, parents=True)
    ranks = np.arange(comm.size)

    with posix.phase(writers=comm.size, md_clients=comm.size):
        if config.file_per_proc:
            paths = [f"{outdir}/testFile.{r:08d}" for r in ranks]
            fds = posix.open_group(ranks, paths, create=True)
            for _segment in range(config.segment_count):
                posix.write_aggregate(ranks, fds, config.block_size)
            if config.fsync:
                # fsync-on-close (-e): one commit per task
                sync = fs.perf.fsync_cost(comm.size, 1, n_ops=1)
                posix.charge(ranks, np.full(comm.size, float(sync)), "fsync")
            posix.close_group(ranks, fds)
        else:
            shared_path = f"{outdir}/testFile"
            if isinstance(fs, LustreFilesystem):
                fs.lfs_setstripe(outdir, stripe_count=storage.num_osts,
                                 stripe_size="1M")
            fd = posix.open(0, shared_path, create=True)
            ino = posix.ino_of(fd)
            stripe_count = int(fs.vfs.cols.stripe_count[ino])
            # disjoint segments: parallelism bounded by the stripe count,
            # derated by extent-lock churn
            rate = float(fs.perf.aggregate_write_rate(stripe_count,
                                                      stripe_count))
            rate *= SHARED_FILE_LOCK_EFFICIENCY
            per_rank_bytes = np.full(comm.size, config.bytes_per_task,
                                     dtype=np.int64)
            fs.vfs.write_group(np.full(comm.size, ino), per_rank_bytes)
            costs = (per_rank_bytes / (rate / comm.size)
                     * fs.perf.noise(comm.size))
            posix.charge(ranks, costs, "write", nbytes=per_rank_bytes,
                         inos=np.full(comm.size, ino),
                         n_ops=config.writes_per_task)
            if config.fsync:
                sync = fs.perf.fsync_cost(comm.size, stripe_count, n_ops=1)
                posix.charge(ranks, np.full(comm.size, float(sync)), "fsync")
            posix.close(0, fd)

    log = monitor.finalize(runtime_seconds=comm.max_time(),
                           machine=machine.name,
                           config=config.command_line())
    return IORResult(config=config, machine=machine.name, log=log,
                     write_gib_s=write_throughput_gib(log))

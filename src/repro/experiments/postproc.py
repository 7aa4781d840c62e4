"""Parallel post-processing / restart-read benchmark (future work, §VI).

"Future research can enhance BIT1's capabilities by … investigating
parallel post processing performance benchmarks [and] continuing with
checkpoint restarts."  This driver measures the *read* side that the
paper leaves open: a restart job re-reading the checkpoint series that a
prior run wrote, as a function of the aggregation level used when
writing.

The mechanism mirrors the write side: a single-subfile checkpoint must
be fanned out from one stream, while an aggregated layout lets every
reader pull its share from its node's subfile in parallel — so write-side
aggregation tuning pays off again at restart time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.presets import dardel
from repro.darshan.runtime import DarshanMonitor
from repro.experiments.common import resolve_machine
from repro.fs.mount import mount
from repro.fs.posix import PosixIO
from repro.mpi.comm import comm_for_nodes
from repro.util.rng import RngRegistry, stream_seed
from repro.util.tables import Table
from repro.util.units import to_gib
from repro.workloads.datamodel import Bit1DataModel
from repro.workloads.presets import paper_use_case


@dataclass
class PostprocResult:
    """Restart-read throughput per writer-side aggregation level."""

    machine: str
    nodes: int
    aggregators: tuple[int, ...]
    read_gib_s: tuple[float, ...]

    def to_table(self) -> Table:
        t = Table(["writer aggregators", "restart read GiB/s"],
                  title=f"Restart-read throughput on {self.machine} "
                        f"({self.nodes} nodes)")
        for m, g in zip(self.aggregators, self.read_gib_s):
            t.add_row([m, f"{g:.2f}"])
        return t

    def render(self) -> str:
        return self.to_table().render()


def _read_rate(perf, n_subfiles: int, readers: int) -> float:
    """Aggregate read bytes/s: same stream/OST mechanics as writes.

    Reads are cheaper per RPC (no commit), modelled as the write-side
    aggregate rate with read-RPC latency — the stream parallelism is
    bounded by the number of subfiles the checkpoint was written into.
    """
    streams = min(n_subfiles, readers)
    return float(perf.aggregate_write_rate(streams, 1))


def run_postproc(nodes: int = 200,
                 aggregators: tuple[int, ...] = (1, 10, 100, 400, 25600),
                 machine=None, ranks_per_node: int = 128,
                 seed: int = 0) -> PostprocResult:
    """Measure restart-read throughput for several checkpoint layouts."""
    machine = resolve_machine(machine) if machine is not None else dardel()
    config = paper_use_case()
    results = []
    for m in aggregators:
        rng = RngRegistry(stream_seed(seed, machine.name, nodes, "postproc", m))
        fs = mount(machine.default_storage, rng)
        comm = comm_for_nodes(nodes, ranks_per_node,
                              latency=machine.network.latency,
                              bandwidth=machine.network.nic_bandwidth)
        monitor = DarshanMonitor(comm.size, exe="bit1-restart")
        posix = PosixIO(fs, comm, monitor)
        model = Bit1DataModel(config, comm.size)
        posix.mkdir(0, "/scratch", parents=True)

        # lay the checkpoint down with M subfiles (content sizes only)
        n_sub = min(m, comm.size)
        posix.mkdir(0, "/scratch/dmp_file.bp4")
        sub_ranks = np.linspace(0, comm.size - 1, n_sub).astype(np.int64)
        fds = posix.open_group(sub_ranks,
                               [f"/scratch/dmp_file.bp4/data.{i}"
                                for i in range(n_sub)])
        per_sub = model.state_bytes // n_sub
        posix.fs.vfs.write_group(posix.ino_of(fds), per_sub)

        # the restart: every rank reads its share; parallelism bounded by
        # the subfile count
        rate = _read_rate(fs.perf, n_sub, comm.size)
        share = model.ckpt_bytes_per_rank()
        costs = share / (rate / comm.size) * fs.perf.noise(comm.size)
        posix.charge(np.arange(comm.size), costs, "read", nbytes=share)
        posix.close_group(sub_ranks, fds)

        log = monitor.finalize(machine=machine.name,
                               config=f"restart-read {m} subfiles")
        total = log.total_bytes_read()
        slowest = float(log.per_rank_time("F_READ_TIME").max())
        results.append(to_gib(total / slowest) if slowest else 0.0)
    return PostprocResult(machine=machine.name, nodes=nodes,
                          aggregators=tuple(aggregators),
                          read_gib_s=tuple(results))

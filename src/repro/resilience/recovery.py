"""Failure-domain-aware recovery over a MultiLevelStore.

The planner scopes the restore to what the crash actually destroyed:

========================  =========================================
failure domain            recovery source
========================  =========================================
crash inside redundancy   memory tiers — survivors reload their own
(partner/parity covers    L0 shard, crashed nodes rebuild from the
every lost node)          L1 partner copy or L2 XOR parity; **zero**
                          PFS traffic
crash beyond redundancy   newest L3 generation whose async flush had
(buddy pair lost, two     landed by crash time, CRC-verified; a
group members lost, …)    refused file walks back through the ring
ring exhausted /          scratch restart from step 0
all L3 refused
========================  =========================================

Memory-tier rebuild traffic is emitted as ``rebuild`` events on the
``faults`` layer (Darshan-invisible, as real node-local recovery would
be); the L3 path reads through PosixIO and is Darshan-visible.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.io_adaptor.checkpoint import apply_node_state
from repro.resilience.store import (
    CheckpointGeneration,
    MultiLevelStore,
    RingCheckpointError,
)

#: recovery sources ordered cheapest-first; a mixed-source plan reports
#: the most expensive tier any *crashed* node needed
_TIER_ORDER = ("l0", "l1-partner", "l2-xor")


@dataclass
class RecoveryOutcome:
    """What one recovery did: where it restored from, at what cost."""

    step: int
    generation: int
    source: str               # "l0" | "l1-partner" | "l2-xor" | "l3"
    pfs_bytes_read: int = 0
    #: ring generations refused on the way here (CRC failures), as
    #: (generation id, error message) pairs
    refused: list[tuple[int, str]] = field(default_factory=list)


def recover(store: MultiLevelStore, sim, failed_nodes) -> RecoveryOutcome | None:
    """Restore ``sim`` from the cheapest tier that survives the crash.

    Returns None when nothing recoverable remains (scratch restart is
    the caller's job).  ``fail_nodes`` must already have been applied to
    the store so the planner sees the post-crash tier state.
    """
    failed = {int(n) for n in np.atleast_1d(np.asarray(failed_nodes))}
    comm = store.comm
    refused: list[tuple[int, str]] = []

    gen = store.latest
    if gen is not None:
        sources = gen.memory_sources(failed)
        if sources is not None:
            _restore_from_memory(store, sim, gen, sources, failed)
            worst = max(
                (sources[n] for n in sorted(sources) if n in failed),
                key=_TIER_ORDER.index, default="l0")
            return RecoveryOutcome(step=gen.step, generation=gen.generation,
                                   source=worst, refused=refused)

    # beyond redundancy: walk the L3 ring, newest generation first.  A
    # flush still in flight at crash time never landed — skip it.
    t_crash = comm.max_time()
    for gen in reversed(store.generations):
        if gen.l3_path is None or gen.l3_ready_at > t_crash:
            continue
        try:
            nbytes = _restore_from_l3(store, sim, gen)
        except RingCheckpointError as exc:
            refused.append((gen.generation, str(exc)))
            continue
        return RecoveryOutcome(step=gen.step, generation=gen.generation,
                               source="l3", pfs_bytes_read=nbytes,
                               refused=refused)
    if refused:
        # surface the walk-back even though it ended at scratch
        return RecoveryOutcome(step=0, generation=-1, source="scratch",
                               refused=refused)
    return None


def _restore_from_memory(store: MultiLevelStore, sim,
                         gen: CheckpointGeneration,
                         sources: dict[int, str], failed: set[int]) -> None:
    comm = store.comm
    shm_bw = comm.shm_bandwidth()
    for node, source in sorted(sources.items()):
        blob = gen.rebuild_shard(node)
        ranks = comm.ranks_on_node(node)
        if source == "l0":
            cost = len(blob) / shm_bw
            api = "L0"
        elif source == "l1-partner":
            # the replacement node pulls the replica from the buddy
            cost = comm.transfer_seconds(len(blob))
            api = "L1"
        else:  # l2-xor: stream the survivors + parity through XOR
            group = next(g for g in gen.xor_groups if node in g)
            cost = comm.transfer_seconds(len(blob)) * max(1, len(group) - 1)
            api = "L2"
        store.posix.charge(ranks, cost, "rebuild", api=api, layer="faults",
                           nbytes=len(blob) / max(1, len(ranks)))
        apply_node_state(sim, blob)
        if store.hybrid is not None:
            # device-resident state: pay the H2D restore onto the
            # (replacement) node's devices after the host copy lands
            h2d = store.hybrid.h2d_node(node, len(blob))
            store.posix.charge(ranks, h2d, "h2d", api="GPU", layer="gpu",
                               nbytes=len(blob) / max(1, len(ranks)))
    sim.rng.restore(gen.rng_blob)
    sim.step_index = gen.step


def _restore_from_l3(store: MultiLevelStore, sim,
                     gen: CheckpointGeneration) -> int:
    """Read one ring file back through the PFS; raises on CRC refusal."""
    posix = store.posix
    path = gen.l3_path
    fd = posix.open(0, path)
    size = posix.fs.vfs.size_of(posix.ino_of(fd))
    raw = posix.read(0, fd, size)
    posix.close(0, fd)
    try:
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl].decode())
        body = raw[nl + 1:]
        if zlib.crc32(body) != int(header["body_crc"]):
            raise RingCheckpointError(
                f"ring generation {gen.generation}: body checksum mismatch "
                f"— checkpoint refused",
                path=path, generation=gen.generation,
                expected=int(header["body_crc"]), actual=zlib.crc32(body))
        rng_blob = base64.b64decode(header["rng"])
        pos = 0
        for node, length in zip(header["nodes"], header["lengths"]):
            apply_node_state(sim, body[pos:pos + length])
            if store.hybrid is not None:
                ranks = store.comm.ranks_on_node(node)
                h2d = store.hybrid.h2d_node(node, length)
                store.posix.charge(ranks, h2d, "h2d", api="GPU", layer="gpu",
                                   nbytes=length / max(1, len(ranks)))
            pos += length
    except (ValueError, KeyError) as exc:
        raise RingCheckpointError(
            f"ring generation {gen.generation}: unreadable header ({exc})",
            path=path, generation=gen.generation) from exc
    sim.rng.restore(rng_blob)
    sim.step_index = int(header["step"])
    store._emit("rebuild", np.asarray([0]), api="L3", nbytes=size)
    return size

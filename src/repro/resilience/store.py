"""MultiLevelStore — tiered checkpoint staging over the virtual cluster.

Every checkpoint is first staged node-locally (**L0**, memory speed,
charged to the ``resilience`` memory account), then promoted per the
:class:`~repro.resilience.policy.CheckpointPolicy`:

- **L1** copies each node's shard to a buddy node over the NIC;
- **L2** folds each node group's shards into one XOR parity block
  (ring-reduce at NIC speed) — any single lost member per group is
  rebuildable from the survivors plus parity;
- **L3** serialises the whole generation into an fsynced file on the
  parallel filesystem, drained asynchronously behind compute (the BP5
  ``AsyncWrite`` idiom via :meth:`~repro.fs.posix.PosixIO.
  write_scheduled`) and retained as a ring of generations.

Tier traffic that never touches the PFS is emitted as ``ckpt_store`` /
``ckpt_flush`` / ``rebuild`` events on the ``faults`` layer — invisible
to the Darshan fold, exactly as node-local staging is invisible to real
Darshan — while L3 bytes go through PosixIO and are counted normally.
With a hybrid stager attached (:class:`repro.gpu.hybrid.HybridStager`),
device checkpoints additionally pay the D2H drain into L0 (``d2h``
events on the ``gpu`` layer) and the H2D restore at recovery.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.fs.payload import RealPayload
from repro.fs.posix import PosixIO
from repro.io_adaptor.checkpoint import serialize_node_state
from repro.mem import current_budget
from repro.mpi.comm import VirtualComm
from repro.resilience.policy import CheckpointPolicy

#: stdio-style chunking of the L3 generation file
L3_CHUNK = 4 << 20


class RingCheckpointError(RuntimeError):
    """An L3 generation file failed its checksum during recovery."""

    def __init__(self, message: str, *, path: str, generation: int,
                 expected: int | None = None, actual: int | None = None):
        super().__init__(message)
        self.context = {"path": path, "generation": generation,
                        "expected": expected, "actual": actual}


@dataclass
class CheckpointGeneration:
    """One stored checkpoint: per-node shards plus redundancy state.

    ``shards`` maps node → serialized state (dropped for crashed nodes
    by :meth:`MultiLevelStore.fail_nodes`); ``partner_copies`` maps an
    *owner* node to the replica of its shard hosted on
    ``partner_host[owner]``.  ``xor_parity`` holds one XOR block per
    node group; a group can rebuild at most one lost member.
    ``l3_ready_at`` is the virtual time the async flush completes —
    a crash before that instant finds no usable PFS copy.
    """

    generation: int
    step: int
    rng_blob: bytes
    shards: dict[int, bytes] = field(default_factory=dict)
    shard_crc: dict[int, int] = field(default_factory=dict)
    partner_copies: dict[int, bytes] = field(default_factory=dict)
    partner_host: dict[int, int] = field(default_factory=dict)
    xor_groups: list[tuple[int, ...]] = field(default_factory=list)
    xor_parity: dict[int, bytes] = field(default_factory=dict)
    xor_lengths: dict[int, dict[int, int]] = field(default_factory=dict)
    l3_path: str | None = None
    l3_ready_at: float = float("inf")
    #: resident bytes billed to the ``resilience`` account for this
    #: generation (released when its memory tiers are evicted)
    resident_bytes: int = 0

    def lost_members(self, group: tuple[int, ...]) -> list[int]:
        return [n for n in group if n not in self.shards]

    def memory_sources(self, failed_nodes: set[int]) -> dict[int, str] | None:
        """node → tier that can produce its shard without PFS traffic.

        None when any node is unrecoverable from the memory tiers —
        the failure exceeded the redundancy level for this generation.
        """
        sources: dict[int, str] = {}
        all_nodes = set(self.shards) | set(self.partner_copies) | {
            n for g in self.xor_groups for n in g} | failed_nodes
        for node in sorted(all_nodes):
            if node in self.shards and node not in failed_nodes:
                sources[node] = "l0"
            elif node in self.partner_copies:
                sources[node] = "l1-partner"
            else:
                group = next((g for g in self.xor_groups if node in g), None)
                if (group is not None and group[0] in self.xor_parity
                        and self.lost_members(group) == [node]):
                    sources[node] = "l2-xor"
                else:
                    return None
        return sources

    def rebuild_shard(self, node: int) -> bytes:
        """Recover one node's shard from partner or parity."""
        if node in self.shards:
            return self.shards[node]
        if node in self.partner_copies:
            return self.partner_copies[node]
        group = next(g for g in self.xor_groups if node in g)
        lengths = self.xor_lengths[group[0]]
        parity = bytearray(self.xor_parity[group[0]])
        width = len(parity)
        for other in group:
            if other == node:
                continue
            blob = self.shards[other]
            pad = np.frombuffer(blob.ljust(width, b"\0"), dtype=np.uint8)
            arr = np.frombuffer(parity, dtype=np.uint8)
            parity = bytearray(np.bitwise_xor(arr, pad).tobytes())
        return bytes(parity[: lengths[node]])


class MultiLevelStore:
    """Tiered checkpoint store bound to one run's posix/comm stack."""

    def __init__(self, posix: PosixIO, comm: VirtualComm, outdir: str,
                 policy: CheckpointPolicy, hybrid=None):
        self.posix = posix
        self.comm = comm
        self.outdir = outdir.rstrip("/")
        self.policy = policy
        #: optional :class:`repro.gpu.hybrid.HybridStager` — when set,
        #: the simulation state is device-resident: L0 staging pays the
        #: D2H drain first, tier recovery pays the H2D restore after
        self.hybrid = hybrid
        self.ring_dir = f"{self.outdir}/.ring"
        self._account = current_budget().account("resilience")
        self._generations: list[CheckpointGeneration] = []  # oldest first
        self._count = 0          # store() calls, drives the tier schedule
        self._flush_end = 0.0    # virtual end time of the last L3 drain
        self.flush_wait_seconds = 0.0
        self.flush_seconds = 0.0
        if not posix.exists(self.ring_dir):
            posix.mkdir(0, self.ring_dir, parents=True)

    # -- event plumbing ------------------------------------------------------

    def _emit(self, kind: str, ranks: np.ndarray, *, api: str,
              nbytes=0.0, duration=0.0, start=None,
              layer: str = "faults") -> None:
        bus = self.posix.trace
        if bus is None or not bus.wants(kind):
            return
        if start is None:
            ranks = np.atleast_1d(np.asarray(ranks))
            start = self.comm.clocks[ranks] - np.broadcast_to(
                np.asarray(duration, dtype=np.float64), ranks.shape)
        bus.emit(kind, ranks, nbytes=nbytes, duration=duration, start=start,
                 api=api, layer=layer)

    # -- store ---------------------------------------------------------------

    @property
    def generations(self) -> list[CheckpointGeneration]:
        return list(self._generations)

    @property
    def latest(self) -> CheckpointGeneration | None:
        return self._generations[-1] if self._generations else None

    def store(self, sim, step: int) -> CheckpointGeneration:
        """Stage one checkpoint through the policy's tier schedule."""
        index = self._count
        self._count += 1
        policy = self.policy
        comm = self.comm
        gen = CheckpointGeneration(generation=index, step=int(step),
                                   rng_blob=sim.rng.snapshot())

        # L0: node-local staging at memory speed
        shm_bw = comm.shm_bandwidth()
        for node in range(comm.nnodes):
            ranks = comm.ranks_on_node(node)
            if not len(ranks):
                continue
            blob = serialize_node_state(sim, ranks)
            gen.shards[node] = blob
            gen.shard_crc[node] = zlib.crc32(blob)
            gen.resident_bytes += len(blob)
            share = len(blob) / len(ranks)
            if self.hybrid is not None:
                # device-resident state drains over the host link first
                self.posix.charge(
                    ranks, self.hybrid.d2h_node(node, len(blob)), "d2h",
                    nbytes=share, api="GPU", layer="gpu")
            self.posix.charge(ranks, len(blob) / shm_bw, "ckpt_store",
                              nbytes=share, api="L0", layer="faults")

        # L1: partner replication over the NIC
        if policy.partner_due(index):
            nnodes = comm.nnodes
            for node, blob in gen.shards.items():
                host = (node + policy.partner_distance) % nnodes
                if host == node:
                    continue  # single-node job: no buddy to copy to
                gen.partner_copies[node] = blob
                gen.partner_host[node] = host
                gen.resident_bytes += len(blob)
                ranks = comm.ranks_on_node(node)
                self.posix.charge(
                    ranks, comm.transfer_seconds(len(blob)), "ckpt_store",
                    nbytes=len(blob) / len(ranks), api="L1", layer="faults")

        # L2: XOR parity per node group (ring-reduce at NIC speed)
        if policy.xor_due(index):
            nodes = sorted(gen.shards)
            for lo in range(0, len(nodes), policy.group_size):
                group = tuple(nodes[lo:lo + policy.group_size])
                if len(group) < 2:
                    continue
                gen.xor_groups.append(group)
                width = max(len(gen.shards[n]) for n in group)
                parity = np.zeros(width, dtype=np.uint8)
                for n in group:
                    blob = gen.shards[n]
                    parity ^= np.frombuffer(blob.ljust(width, b"\0"),
                                            dtype=np.uint8)
                gen.xor_parity[group[0]] = parity.tobytes()
                gen.xor_lengths[group[0]] = {
                    n: len(gen.shards[n]) for n in group}
                gen.resident_bytes += width
                for n in group:
                    ranks = comm.ranks_on_node(n)
                    nbytes = len(gen.shards[n])
                    self.posix.charge(
                        ranks, comm.transfer_seconds(nbytes), "ckpt_store",
                        nbytes=nbytes / len(ranks), api="L2", layer="faults")

        self._account.charge(gen.resident_bytes)

        # L3: serialize the generation onto the PFS (ring of files)
        if policy.l3_due(index):
            self._flush_l3(gen)

        # memory tiers live for the latest generation only (the SCR
        # cache); older generations persist solely through the L3 ring
        for old in self._generations:
            self._evict_memory(old)
        self._generations.append(gen)
        self._trim_ring()
        return gen

    # -- L3 flush / ring -----------------------------------------------------

    def _l3_payload(self, gen: CheckpointGeneration) -> bytes:
        nodes = sorted(gen.shards)
        body = b"".join(gen.shards[n] for n in nodes)
        header = {
            "generation": gen.generation,
            "step": gen.step,
            "rng": base64.b64encode(gen.rng_blob).decode("ascii"),
            "nodes": nodes,
            "lengths": [len(gen.shards[n]) for n in nodes],
            "body_crc": zlib.crc32(body),
        }
        return (json.dumps(header) + "\n").encode() + body

    def _flush_l3(self, gen: CheckpointGeneration) -> None:
        posix = self.posix
        payload = self._l3_payload(gen)
        gen.l3_path = f"{self.ring_dir}/gen{gen.generation:06d}.l3"
        fd = posix.open(0, gen.l3_path, create=True, truncate=True)
        if not self.policy.async_flush:
            posix.write(0, fd, RealPayload(payload, "particle_float32"),
                        chunk_size=L3_CHUNK, sync_each_chunk=True)
            posix.close(0, fd)
            gen.l3_ready_at = float(self.comm.clocks[0])
            self._emit("ckpt_flush", np.asarray([0]), api="L3",
                       nbytes=len(payload))
            return
        # async drain: the flush runs in the background, serialized
        # after any still-running drain; the checkpointing rank stalls
        # only when it catches an unfinished flush (the staging buffer
        # holds one generation, as the BP5 AsyncWrite path holds one
        # subfile batch)
        now = float(self.comm.clocks[0])
        wait = max(0.0, self._flush_end - now)
        if wait > 0.0:
            posix.charge(0, wait, "ckpt_flush", api="WAIT", layer="faults")
            self.flush_wait_seconds += wait
            now += wait
        start = max(now, self._flush_end)
        cost = posix.write_scheduled(
            0, fd, RealPayload(payload, "particle_float32"),
            start_at=start, chunk_size=L3_CHUNK, sync_each_chunk=True)
        posix.close(0, fd)
        self._flush_end = start + cost
        self.flush_seconds += cost
        gen.l3_ready_at = self._flush_end
        self._emit("ckpt_flush", np.asarray([0]), api="L3",
                   nbytes=len(payload), duration=cost, start=start)

    def settle_flushes(self) -> None:
        """Block until the last async flush lands (run finalisation)."""
        now = float(self.comm.clocks[0])
        if self._flush_end > now:
            self.posix.charge(0, self._flush_end - now)

    def _trim_ring(self) -> None:
        keep_l3 = [g for g in self._generations if g.l3_path is not None]
        while len(keep_l3) > self.policy.ring_depth:
            victim = keep_l3.pop(0)
            if self.posix.exists(victim.l3_path):
                self.posix.unlink(0, victim.l3_path)
            victim.l3_path = None
        # drop generations that retain no tier at all (memory evicted,
        # no L3 file): nothing can be recovered from them
        self._generations = [
            g for g in self._generations
            if g is self.latest_ref() or g.l3_path is not None]

    def latest_ref(self) -> CheckpointGeneration | None:
        return self._generations[-1] if self._generations else None

    def _evict_memory(self, gen: CheckpointGeneration) -> None:
        if gen.resident_bytes:
            self._account.release(gen.resident_bytes)
            gen.resident_bytes = 0
        gen.shards.clear()
        gen.partner_copies.clear()
        gen.partner_host.clear()
        gen.xor_parity.clear()
        gen.xor_groups.clear()
        gen.xor_lengths.clear()

    # -- failure bookkeeping -------------------------------------------------

    def fail_nodes(self, nodes) -> None:
        """Drop every tier resident on the crashed nodes.

        L0 shards of the crashed nodes are gone; so are partner copies
        *hosted* on them (an L1 replica is only as durable as its
        host).  XOR parity is distributed across the group, so it
        survives exactly when the group lost at most one member — the
        recovery planner checks that condition, not this method.
        """
        failed = {int(n) for n in np.atleast_1d(np.asarray(nodes))}
        # an async flush still in flight died with the job: the PFS file
        # is torn, so recovery (this crash's or any later one's) must
        # never read it.  The bytes stay in the census — a real torn
        # file lingers until cleanup — but the ring forgets it.
        now = self.comm.max_time()
        for gen in self._generations:
            if gen.l3_path is not None and gen.l3_ready_at > now:
                gen.l3_path = None
        self._flush_end = min(self._flush_end, now)
        for gen in self._generations:
            freed = 0
            for node in list(gen.shards):
                if node in failed:
                    freed += len(gen.shards.pop(node))
                    gen.shard_crc.pop(node, None)
            for owner in list(gen.partner_copies):
                if gen.partner_host.get(owner) in failed:
                    freed += len(gen.partner_copies.pop(owner))
                    gen.partner_host.pop(owner, None)
            if freed:
                self._account.release(min(freed, gen.resident_bytes))
                gen.resident_bytes = max(0, gen.resident_bytes - freed)

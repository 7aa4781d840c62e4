"""Two-level aggregation: N ranks funnel into M subfiles.

"For optimal I/O performance in BIT1, N processes must distribute their
output across M files" (§IV-C).  ADIOS2's default allocates one
aggregator per node (a single shared file among the MPI processes of each
node); the ``OPENPMD_ADIOS2_BP5_NumAgg`` parameter overrides the desired
number of output files.  This module computes the rank→aggregator map and
the per-aggregator byte loads; the engines use it every flush.

Two cost models are provided:

* :func:`gather_cost_seconds` — the one-level (BP4-style) shuffle where
  every rank ships its chunk straight to its subfile owner.  Intra-node
  legs run over shared memory; cross-node legs serialise on the sending
  node's NIC.
* :func:`two_level_gather_cost` — the BP5 shuffle: ranks first funnel to
  a node-local staging leader at memory bandwidth (level 1), then node
  leaders ship the per-subfile volumes to the subfile owners (level 2) —
  again shm within a node, NIC across nodes.  With one rank per node the
  funnel is empty and the model degenerates *bit-exactly* to the
  one-level cost (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.mpi.comm import VirtualComm
from repro.util.scatter import scatter_add


@dataclass(frozen=True)
class AggregationPlan:
    """Immutable rank→aggregator assignment for one engine instance."""

    num_ranks: int
    aggregator_ranks: np.ndarray   # (M,) global ranks that own subfiles
    agg_index_of_rank: np.ndarray  # (N,) subfile index each rank sends to
    #: node index of each rank; ``None`` degrades locality checks to rank
    #: equality (every rank its own node — the pre-topology behaviour)
    node_of_rank: np.ndarray | None = None

    @property
    def num_aggregators(self) -> int:
        return len(self.aggregator_ranks)

    @cached_property
    def aggregator_stride(self) -> int | None:
        """The step between consecutive aggregator ranks when they form
        an increasing arithmetic progression, else None (a failed-over
        plan: its survivors appear more than once)."""
        owners = self.aggregator_ranks
        if len(owners) == 1:
            return 1
        step = int(owners[1]) - int(owners[0])
        if step >= 1 and (np.diff(owners) == step).all():
            return step
        return None

    def per_aggregator_bytes(self, per_rank_bytes: np.ndarray) -> np.ndarray:
        """Sum each subfile's incoming bytes (vectorised bincount)."""
        per_rank_bytes = np.asarray(per_rank_bytes)
        if per_rank_bytes.shape != (self.num_ranks,):
            raise ValueError(
                f"expected ({self.num_ranks},) byte array, "
                f"got {per_rank_bytes.shape}"
            )
        return np.bincount(self.agg_index_of_rank, weights=per_rank_bytes,
                           minlength=self.num_aggregators).astype(np.int64)

    def _node_ids(self) -> np.ndarray:
        if self.node_of_rank is not None:
            return self.node_of_rank
        return np.arange(self.num_ranks)

    def remote_bytes(self, per_rank_bytes: np.ndarray) -> np.ndarray:
        """Bytes each rank ships to a different *node* (NIC traffic).

        Same-node transfers — including to a different rank on the same
        node — go over shared memory, not the interconnect, so they do
        not count as remote.
        """
        per_rank_bytes = np.asarray(per_rank_bytes)
        own_agg_rank = self.aggregator_ranks[self.agg_index_of_rank]
        node = self._node_ids()
        is_local = node[own_agg_rank] == node
        return np.where(is_local, 0, per_rank_bytes)

    def failover(self, dead_ranks) -> "AggregationPlan":
        """Reassign dead aggregators' subfiles to surviving aggregators.

        The subfile set is immutable mid-run (BP subfiles already exist
        on disk), so recovery keeps every subfile index alive but hands
        the dead owners' subfiles round-robin to surviving aggregator
        ranks — a survivor then drives two (or more) subfile streams and
        pays the bandwidth skew in both the gather and the write phase.
        Returns self when no owner died.
        """
        dead = set(int(r) for r in np.atleast_1d(np.asarray(dead_ranks)))
        owners = self.aggregator_ranks
        survivors = [int(r) for r in owners if int(r) not in dead]
        if len(survivors) == len(owners):
            return self
        if not survivors:
            raise RuntimeError("all aggregators died; no failover target")
        new_owners = owners.copy()
        j = 0
        for i, r in enumerate(owners):
            if int(r) in dead:
                new_owners[i] = survivors[j % len(survivors)]
                j += 1
        return AggregationPlan(
            num_ranks=self.num_ranks,
            aggregator_ranks=new_owners,
            agg_index_of_rank=self.agg_index_of_rank,
            node_of_rank=self.node_of_rank,
        )


def plan_aggregation(comm: VirtualComm,
                     num_aggregators: int | None = None) -> AggregationPlan:
    """Build the aggregation plan ADIOS2 would use.

    ``num_aggregators=None`` reproduces the BP4 default: one aggregator
    (and hence one subfile) per node.  Explicit values spread aggregators
    evenly over nodes first (so 2 per node at M = 2×nodes, matching the
    paper's observation that the 400-aggregator optimum on 200 nodes is
    "two aggregators per node"), and ranks are assigned to the nearest
    aggregator on their node where possible.
    """
    n = comm.size
    if num_aggregators is None:
        agg_ranks = comm.node_leaders()
        if comm.has_block_topology():
            # the nearest at-or-below leader of rank r is its own node's
            # leader, so the subfile map *is* the topology array — alias
            # it (O(nodes) resident) instead of materialising an O(ranks)
            # searchsorted result; the values are provably identical
            return AggregationPlan(
                num_ranks=n,
                aggregator_ranks=agg_ranks,
                agg_index_of_rank=comm.node_of_rank,
                node_of_rank=comm.node_of_rank,
            )
    else:
        if not 1 <= num_aggregators <= n:
            raise ValueError(
                f"num_aggregators must be in [1, {n}], got {num_aggregators}"
            )
        if num_aggregators == 1:
            # single-subfile degenerate case: everyone sends to rank 0 —
            # a stride-0 broadcast view instead of an O(ranks) zeros map
            return AggregationPlan(
                num_ranks=n,
                aggregator_ranks=np.zeros(1, dtype=np.int64),
                agg_index_of_rank=np.broadcast_to(
                    np.zeros(1, dtype=np.int64), (n,)),
                node_of_rank=comm.node_of_rank,
            )
        # evenly spaced ranks: this lands ceil(M/nodes) aggregators per
        # node for M >= nodes and spreads across nodes for M < nodes
        agg_ranks = np.unique(
            np.floor(np.arange(num_aggregators) * (n / num_aggregators))
            .astype(np.int64)
        )
    # each rank sends to the closest aggregator at or below it
    agg_index = np.searchsorted(agg_ranks, np.arange(n), side="right") - 1
    agg_index = np.clip(agg_index, 0, len(agg_ranks) - 1)
    return AggregationPlan(
        num_ranks=n,
        aggregator_ranks=agg_ranks,
        agg_index_of_rank=agg_index,
        node_of_rank=comm.node_of_rank,
    )


def gather_cost_seconds(plan: AggregationPlan, per_rank_bytes: np.ndarray,
                        comm: VirtualComm) -> np.ndarray:
    """Per-rank virtual seconds for the one-level shuffle to aggregators.

    Sender legs: shipping to yourself is free; shipping to another rank
    on the same node runs at shared-memory bandwidth; shipping across
    nodes pays one message latency plus the sending node's total NIC
    egress (the NIC is time-shared among that node's senders, so every
    cross-node sender on a node observes the node's serialised egress).
    Receiver legs: each aggregator pays its incoming volume at the
    transport that leg arrived on (shm for same-node, NIC for
    cross-node).
    """
    n = comm.size
    b = np.asarray(per_rank_bytes, dtype=np.float64)
    nic = comm.effective_bandwidth()
    shm = comm.shm_bandwidth()
    lat = comm.config.latency
    node = plan.node_of_rank if plan.node_of_rank is not None \
        else comm.node_of_rank
    owner = plan.aggregator_ranks[plan.agg_index_of_rank]
    self_mask = owner == np.arange(n)
    same_node = node[owner] == node
    local = same_node & ~self_mask & (b > 0)
    cross = ~same_node & (b > 0)
    out = np.zeros(n, dtype=np.float64)
    out[local] = b[local] / shm
    if cross.any():
        nnodes = int(node.max()) + 1
        egress = np.bincount(node[cross], weights=b[cross],
                             minlength=nnodes)
        out[cross] = lat + egress[node[cross]] / nic
    # receiver legs: per-entry division before the scatter so the
    # two-level degenerate case (one rank per node) is bit-identical
    scatter_add(out, owner[cross], b[cross] / nic)
    scatter_add(out, owner[local], b[local] / shm)
    return out


def two_level_gather_cost(plan: AggregationPlan, per_rank_bytes: np.ndarray,
                          comm: VirtualComm) -> np.ndarray:
    """Per-rank seconds for the BP5 two-level (shm + inter-node) shuffle.

    Level 1 — node funnel: every rank that is not its node's staging
    leader copies its chunk into the leader's shared-memory segment; the
    leader pays the matching ingress.  The leader is the node's first
    subfile-owner rank when one exists (it already holds a staging
    buffer), else the node's first rank.

    Level 2 — subfile shuffle: each node leader ships one consolidated
    message per destination subfile.  A leader that owns the subfile
    itself moves nothing; a same-node destination runs both legs over
    shm; cross-node destinations serialise on the leader's NIC (one
    latency per message plus the node's total cross-node egress) and the
    owner pays NIC ingress.

    With one rank per node, level 1 is empty and level 2 reduces term by
    term to :func:`gather_cost_seconds` — bit-identical, property-tested.
    """
    n = comm.size
    b = np.asarray(per_rank_bytes, dtype=np.float64)
    nic = comm.effective_bandwidth()
    shm = comm.shm_bandwidth()
    lat = comm.config.latency
    node = plan.node_of_rank if plan.node_of_rank is not None \
        else comm.node_of_rank
    nnodes = int(node.max()) + 1
    m = plan.num_aggregators
    owners = plan.aggregator_ranks

    # staging leader per node: first subfile owner on the node, if any
    leader = np.full(nnodes, n, dtype=np.int64)
    np.minimum.at(leader, node[owners], owners)
    missing = leader == n
    if missing.any():
        first = np.full(nnodes, n, dtype=np.int64)
        np.minimum.at(first, node, np.arange(n))
        leader[missing] = first[missing]

    out = np.zeros(n, dtype=np.float64)

    # level 1: non-leader ranks funnel into the leader's shm segment
    is_leader = np.zeros(n, dtype=bool)
    is_leader[leader] = True
    l1 = ~is_leader & (b > 0)
    out[l1] = b[l1] / shm
    scatter_add(out, leader[node[l1]], b[l1] / shm)

    # level 2: sparse (node, subfile) volumes (int64: node maps may be
    # int32 and node*m overflows 32 bits at scale)
    keys = node.astype(np.int64, copy=False) * m + plan.agg_index_of_rank
    vol = np.bincount(keys, weights=b, minlength=nnodes * m)
    vol = vol.reshape(nnodes, m)
    src, agg = np.nonzero(vol)
    if src.size == 0:
        return out
    v = vol[src, agg]
    dst_rank = owners[agg]
    dst_node = node[dst_rank]
    src_leader = leader[src]
    self_leg = src_leader == dst_rank
    samenode = (dst_node == src) & ~self_leg
    crossnode = dst_node != src

    scatter_add(out, src_leader[samenode], v[samenode] / shm)
    scatter_add(out, dst_rank[samenode], v[samenode] / shm)

    if crossnode.any():
        nmsg = np.bincount(src[crossnode], minlength=nnodes)
        egress = np.bincount(src[crossnode], weights=v[crossnode],
                             minlength=nnodes)
        busy = np.nonzero(nmsg)[0]
        scatter_add(out, leader[busy], nmsg[busy] * lat + egress[busy] / nic)
        scatter_add(out, dst_rank[crossnode], v[crossnode] / nic)
    return out


@dataclass(frozen=True)
class ShuffleDerivation:
    """What a rank-blocked shuffle derives from one step's stored bytes.

    O(nodes + aggregators), never O(ranks): the per-subfile loads, the
    NIC egress of each node (one-level) or each node's staging leader
    (two-level), and one receiver-leg sum per receiving rank.  Each is
    a pure function of the stored bytes, the plan and the NIC bandwidth
    ``nic`` the legs were costed at, so the flush memo hands one record
    to every step that declares the same bytes.  The arrays are
    read-only.
    """

    #: bytes each subfile receives (int64)
    per_agg: np.ndarray
    #: the ranks that receive, sorted (the subfile owners; two-level
    #: adds the staging leaders), and each one's receiver-leg sum
    uranks: np.ndarray
    recv: np.ndarray
    nic: float
    #: one-level: cross-node bytes each node's NIC sends
    egress: np.ndarray | None = None
    #: two-level: each node's staging leader, and the leaders sorted
    leader: np.ndarray | None = None
    sorted_leaders: np.ndarray | None = None

    def __post_init__(self) -> None:
        for arr in self._arrays():
            arr.setflags(write=False)

    def _arrays(self) -> list[np.ndarray]:
        return [a for a in (self.per_agg, self.uranks, self.recv,
                            self.egress, self.leader, self.sorted_leaders)
                if a is not None]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())


class BlockedShuffle:
    """Streaming evaluation of the gather cost over rank blocks.

    Produces *bit-identical* per-rank costs to :func:`gather_cost_seconds`
    (or :func:`two_level_gather_cost` with ``two_level=True``) while only
    ever holding O(block + nodes + aggregators) state — the memory plane's
    chunked flush path.  The exactness argument has two halves:

    * byte tallies (NIC egress, sparse (node, subfile) volumes, per-
      aggregator loads) are sums of integer-valued floats below 2**53,
      so accumulating per-block partial sums is exact regardless of how
      the blocks split the element stream;
    * receiver-side time legs are *non*-integer floats, so those chains
      are kept in per-owner accumulator slots and extended block by
      block in exactly the element order the unchunked ``scatter_add``
      calls would use (all cross-node legs in global rank order, then
      all same-node legs), collapsing to one clock add per owner — the
      same single add the unchunked path performs.

    The work splits in two.  :meth:`derive` makes the window passes
    that produce the tallies and the receiver sums and returns them as
    a :class:`ShuffleDerivation`; it is pure, so the engine memoises it
    per step declaration.  :meth:`send_legs` is the per-step sender
    pass, also pure: one window's sender legs from its stored bytes and
    the derivation's egress or leaders.

    Protocol (the engine drives it)::

        sh = BlockedShuffle(plan, comm, two_level=...)
        d = sh.derive(windows, stored, nic)   # or a memoised record
        for lo, hi in windows:
            clocks[lo:hi] += sh.send_legs(d, lo, hi, stored(lo, hi))
        clocks[d.uranks] += d.recv
    """

    def __init__(self, plan: AggregationPlan, comm: VirtualComm,
                 two_level: bool = False):
        self.plan = plan
        self.two_level = two_level
        self.shm = comm.shm_bandwidth()
        self.lat = comm.config.latency
        self.node = plan.node_of_rank if plan.node_of_rank is not None \
            else comm.node_of_rank
        self.owners = plan.aggregator_ranks
        self.agg_index = plan.agg_index_of_rank
        self.m = plan.num_aggregators
        self.nnodes = int(self.node.max()) + 1

    def _tally_loads(self, per_agg: np.ndarray, lo: int, hi: int,
                     b: np.ndarray) -> np.ndarray:
        """Add ranks ``[lo, hi)``'s bytes to the per-subfile loads;
        returns the ranks' subfile indices."""
        idx_blk = np.ascontiguousarray(self.agg_index[lo:hi])
        per_agg += np.bincount(
            idx_blk, weights=b, minlength=self.m).astype(np.int64)
        return idx_blk

    def _masks(self, lo: int, hi: int, b: np.ndarray):
        owner_blk = self.owners[self.agg_index[lo:hi]]
        node_blk = self.node[lo:hi]
        same = self.node[owner_blk] == node_blk
        self_mask = owner_blk == np.arange(lo, hi)
        local = same & ~self_mask & (b > 0)
        cross = ~same & (b > 0)
        return owner_blk, node_blk, local, cross

    @staticmethod
    def _funnel(sorted_leaders: np.ndarray, uranks: np.ndarray, lo: int,
                hi: int, b: np.ndarray):
        """Level-1 senders among ranks ``[lo, hi)`` (non-leaders with
        bytes), those of them that also receive, and every rank's slot."""
        r = np.arange(lo, hi)
        pos = np.minimum(np.searchsorted(sorted_leaders, r),
                         len(sorted_leaders) - 1)
        l1 = (sorted_leaders[pos] != r) & (b > 0)
        upos = np.searchsorted(uranks, r)
        diverted = l1 & (uranks[np.minimum(upos, len(uranks) - 1)] == r)
        return l1, diverted, upos

    # -- derivation (pure; memoised by the engine) ---------------------

    def derive(self, windows, stored, nic: float) -> ShuffleDerivation:
        """Tallies and receiver sums over ``windows`` at NIC rate ``nic``.

        ``stored(lo, hi)`` gives a window's stored bytes; it is asked
        once per window per pass.  The first window pass tallies the
        loads and extends the receiver chains the senders open, in rank
        order: the cross-node NIC legs (one-level), or the level-1
        funnel legs with each non-leader owner's own funnel leg first in
        its slot (two-level).  Then a second window pass adds the
        same-node legs (one-level), or the level-2 legs follow from the
        tallied volumes (two-level), so every slot's chain runs in the
        unchunked evaluation's element order.
        """
        if self.two_level:
            return self._derive_two_level(windows, stored, nic)
        per_agg = np.zeros(self.m, dtype=np.int64)
        egress = np.zeros(self.nnodes)
        uranks = np.unique(self.owners)
        recv = np.zeros(len(uranks))
        for lo, hi in windows:
            b = stored(lo, hi)
            self._tally_loads(per_agg, lo, hi, b)
            owner_blk, node_blk, _local, cross = self._masks(lo, hi, b)
            if cross.any():
                egress += np.bincount(node_blk[cross], weights=b[cross],
                                      minlength=self.nnodes)
                np.add.at(recv, np.searchsorted(uranks, owner_blk[cross]),
                          b[cross] / nic)
        for lo, hi in windows:
            b = stored(lo, hi)
            owner_blk, _node_blk, local, _cross = self._masks(lo, hi, b)
            if local.any():
                np.add.at(recv, np.searchsorted(uranks, owner_blk[local]),
                          b[local] / self.shm)
        return ShuffleDerivation(per_agg=per_agg, uranks=uranks, recv=recv,
                                 nic=nic, egress=egress)

    def _derive_two_level(self, windows, stored,
                          nic: float) -> ShuffleDerivation:
        n = self.plan.num_ranks
        # staging leader per node: first subfile owner, else first rank
        # — found window by window so no O(ranks) index temporary
        leader = np.full(self.nnodes, n, dtype=np.int64)
        np.minimum.at(leader, self.node[self.owners], self.owners)
        missing = leader == n
        if missing.any():
            first = np.full(self.nnodes, n, dtype=np.int64)
            for lo, hi in windows:
                np.minimum.at(first, self.node[lo:hi], np.arange(lo, hi))
            leader[missing] = first[missing]
        sorted_leaders = np.sort(leader)
        uranks = np.unique(np.concatenate([leader, self.owners]))
        recv = np.zeros(len(uranks))
        per_agg = np.zeros(self.m, dtype=np.int64)
        vol: dict[int, float] = {}
        for lo, hi in windows:
            b = stored(lo, hi)
            idx_blk = self._tally_loads(per_agg, lo, hi, b)
            node_blk = self.node[lo:hi]
            keys = node_blk.astype(np.int64) * self.m + idx_blk
            uk, inv = np.unique(keys, return_inverse=True)
            sums = np.bincount(inv, weights=b)
            for k, s in zip(uk.tolist(), sums.tolist()):
                vol[k] = vol.get(k, 0.0) + s
            l1, diverted, upos = self._funnel(sorted_leaders, uranks,
                                              lo, hi, b)
            # a non-leader *owner* chains its funnel leg ahead of its
            # receiver legs in the unchunked evaluation (0.0 + x == x)
            if diverted.any():
                np.add.at(recv, upos[diverted], b[diverted] / self.shm)
            if l1.any():
                tgt = leader[node_blk[l1]]
                np.add.at(recv, np.searchsorted(uranks, tgt),
                          b[l1] / self.shm)
        if vol:
            keys = np.array(sorted(vol), dtype=np.int64)
            v = np.array([vol[k] for k in keys.tolist()])
            nz = v != 0.0  # np.nonzero(vol) skips zero-volume cells
            keys, v = keys[nz], v[nz]
            if keys.size:
                self._level_two(recv, uranks, leader, keys, v, nic)
        return ShuffleDerivation(per_agg=per_agg, uranks=uranks, recv=recv,
                                 nic=nic, leader=leader,
                                 sorted_leaders=sorted_leaders)

    def _level_two(self, recv: np.ndarray, uranks: np.ndarray,
                   leader: np.ndarray, keys: np.ndarray, v: np.ndarray,
                   nic: float) -> None:
        """Add the leaders' per-subfile legs (sparse volumes ``v`` at
        ``node * m + subfile`` ``keys``) to the receiver sums."""
        def slots(ranks):
            return np.searchsorted(uranks, ranks)

        src = keys // self.m
        agg = keys % self.m
        dst_rank = self.owners[agg]
        dst_node = self.node[dst_rank]
        src_leader = leader[src]
        self_leg = src_leader == dst_rank
        samenode = (dst_node == src) & ~self_leg
        crossnode = dst_node != src
        np.add.at(recv, slots(src_leader[samenode]), v[samenode] / self.shm)
        np.add.at(recv, slots(dst_rank[samenode]), v[samenode] / self.shm)
        if crossnode.any():
            nmsg = np.bincount(src[crossnode], minlength=self.nnodes)
            egress = np.bincount(src[crossnode], weights=v[crossnode],
                                 minlength=self.nnodes)
            busy = np.nonzero(nmsg)[0]
            np.add.at(recv, slots(leader[busy]),
                      nmsg[busy] * self.lat + egress[busy] / nic)
            np.add.at(recv, slots(dst_rank[crossnode]), v[crossnode] / nic)

    # -- sender pass (per step) ----------------------------------------

    def send_legs(self, d: ShuffleDerivation, lo: int, hi: int,
                  b: np.ndarray) -> np.ndarray:
        """Sender legs of ranks ``[lo, hi)`` with stored bytes ``b``.

        Receivers add nothing here: their legs are ``d.recv``.
        """
        out = np.zeros(hi - lo)
        if self.two_level:
            l1, diverted, _upos = self._funnel(d.sorted_leaders, d.uranks,
                                               lo, hi, b)
            out[l1] = b[l1] / self.shm
            # a non-leader owner's funnel leg opens its receiver sum;
            # its sender add is an exact +0.0
            out[diverted] = 0.0
            return out
        _owner_blk, node_blk, local, cross = self._masks(lo, hi, b)
        out[local] = b[local] / self.shm
        if cross.any():
            out[cross] = self.lat + d.egress[node_blk[cross]] / d.nic
        return out

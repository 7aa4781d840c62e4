"""Hybrid CPU+GPU staging: the device → host → storage drain, in virtual time.

On a hybrid node the particle blocks live in device (HBM) memory, but
the I/O funnel — ADIOS2's shm aggregation, the POSIX layer underneath —
runs on the host.  Before any of the existing write machinery sees a
byte, that byte has to cross the host↔device link (PCIe or Infinity
Fabric), through a bounded pinned *bounce buffer* whose refill has to
wait for the previous buffer to drain into the aggregation funnel.  The
:class:`HybridStager` models exactly that leg and nothing else: it
charges per-rank virtual clocks for the D2H drain (checkpoint) and H2D
restore (restart), bills the pinned staging residency to the ``gpu``
account of the ambient :class:`~repro.mem.budget.MemoryBudget`, and
emits ``d2h``/``h2d``/``gds``/``gpu_stall`` events on the ``gpu`` trace
layer — which Darshan ignores, just as real Darshan never sees PCIe
traffic.

Two modes (:class:`HybridConfig.mode`):

``"host"``
    Bounce-buffer staging.  Each GPU serialises its ranks' bytes ``S``
    through a double-buffered pinned window of ``staging_bytes``; a
    drain takes ``ceil(S/s)`` turnarounds, each paying the link latency,
    plus ``S / (link_bandwidth · h2d_factor)`` of wire time.  From the
    second turnaround on, the refill stalls until the previous buffer
    has drained out of the node — ``g`` devices share the node's NIC
    into the aggregation funnel, so each stall costs
    ``s · g / nic_bandwidth`` (emitted as ``gpu_stall``).  Host
    residency is ``min(S, 2·staging_bytes)`` per device (the double
    buffer), billed to the ``gpu`` account for the duration of the
    drain.

``"gds"``
    GPUDirect Storage.  Device bytes DMA straight to/from storage at
    ``gds_bandwidth``: one link-latency setup, **zero** host staging
    residency, no turnaround stalls — but a slower wire than the host
    link, so host staging wins back once per-device payloads shrink
    (many GPUs per node) and the turnaround count stops mattering.

Exactness contract: with infinite ``link_bandwidth``, zero
``link_latency`` and unbounded staging, every charge is exactly
``0.0`` seconds (``S / inf == 0.0`` in IEEE-754), so a hybrid run is
bit-identical to the plain CPU run — the property
:mod:`tests.test_gpu_plane` pins with Hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import GpuSpec
from repro.mem.budget import current_budget
from repro.util.units import MiB

#: smallest link derate an H2DStall window can apply — keeps the
#: effective bandwidth finite-positive so charges stay well-defined
_MIN_FACTOR = 1e-12


@dataclass(frozen=True)
class HybridConfig:
    """How the device-resident particle blocks reach the host funnel.

    ``staging_bytes`` bounds one pinned bounce buffer (the drain double
    buffers, so peak host residency per device is twice this); ``None``
    means unbounded staging — a whole device payload is drained in one
    turnaround and resides on the host in full.  Ignored in GDS mode,
    which never touches host memory.
    """

    mode: str = "host"  # "host" | "gds"
    staging_bytes: int | None = 2 * MiB

    def __post_init__(self) -> None:
        if self.mode not in ("host", "gds"):
            raise ValueError(f"HybridConfig.mode must be 'host' or 'gds', "
                             f"got {self.mode!r}")
        if self.staging_bytes is not None and self.staging_bytes <= 0:
            raise ValueError("staging_bytes must be positive or None")


class HybridStager:
    """Drains per-rank device-resident bytes into the host I/O funnel.

    One stager serves one run: it owns the rank→GPU mapping (ranks of a
    node round-robin over its devices), the per-GPU leg-time
    accumulators the experiment reads back, and the ``gpu`` memory
    account.  The runner calls :meth:`stage_step` immediately before
    handing the same bytes to the engine write path; the resilience
    plane calls :meth:`d2h_node`/:meth:`h2d_node` for the node-blob
    transfers of device checkpoints into the L0/L1 memory tiers.
    """

    def __init__(self, comm, gpus: tuple[GpuSpec, ...],
                 config: HybridConfig | None = None, bus=None):
        if not gpus:
            raise ValueError("HybridStager needs at least one GpuSpec; "
                             "CPU-only nodes run the plain write path")
        self.comm = comm
        self.gpus = tuple(gpus)
        self.config = config or HybridConfig()
        self.bus = bus
        if self.config.mode == "gds":
            missing = [g.name for g in self.gpus if g.gds_bandwidth is None]
            if missing:
                raise ValueError(
                    f"GDS mode on devices without GDS support: {missing}")
        self.g = len(self.gpus)
        rpn = comm.config.ranks_per_node
        self.nnodes = comm.config.nnodes
        self.n_gpus_total = self.nnodes * self.g
        ranks = np.arange(comm.size)
        #: global GPU index of each rank: node-major, ranks of a node
        #: round-robin over its g devices
        self.gpu_of_rank = ((ranks // rpn) * self.g
                            + (ranks % rpn) % self.g).astype(np.int64)
        self.account = current_budget().account("gpu")
        # per-GPU accumulated leg seconds (the experiment's throughput
        # denominators are maxima over these)
        self._d2h_seconds = np.zeros(self.n_gpus_total)
        self._stall_seconds = np.zeros(self.n_gpus_total)
        self._gds_seconds = np.zeros(self.n_gpus_total)
        self.staged_bytes = 0.0
        self.turnarounds = 0
        self.peak_staging_bytes = 0

    # -- link state -----------------------------------------------------

    def _factor(self) -> float:
        """Live host↔device link derate (H2DStall windows), clamped."""
        state = getattr(self.comm, "fault_state", None)
        if state is None:
            return 1.0
        return min(max(float(getattr(state, "h2d_factor", 1.0)),
                       _MIN_FACTOR), 1.0)

    def _link_eff(self, spec: GpuSpec, factor: float) -> float:
        bw = float(spec.link_bandwidth)
        return bw if math.isinf(bw) else bw * factor

    def _gds_eff(self, spec: GpuSpec, factor: float) -> float:
        bw = float(spec.gds_bandwidth)
        return bw if math.isinf(bw) else bw * factor

    # -- the step-loop drain --------------------------------------------

    def stage_step(self, bytes_per_rank) -> None:
        """Charge one drain of per-rank device bytes into the host funnel.

        ``bytes_per_rank`` is anything with per-rank byte counts — a
        :class:`~repro.mem.spans.SplitValues`, an ndarray, or a scalar
        broadcast over all ranks.  Adds the per-GPU drain time to every
        clock of the ranks sharing that GPU (the device serialises its
        ranks' blocks through one staging stream).
        """
        if hasattr(bytes_per_rank, "materialize"):
            b = np.asarray(bytes_per_rank.materialize(), dtype=np.float64)
        else:
            b = np.broadcast_to(
                np.asarray(bytes_per_rank, dtype=np.float64),
                (self.comm.size,))
        total = float(b.sum())
        if total <= 0.0:
            return
        self.staged_bytes += total
        per_gpu = np.bincount(self.gpu_of_rank, weights=b,
                              minlength=self.n_gpus_total)
        active = per_gpu > 0.0
        factor = self._factor()
        if self.config.mode == "gds":
            self._stage_gds(per_gpu, active, factor, total)
        else:
            self._stage_host(per_gpu, active, factor, total)

    def _stage_gds(self, per_gpu, active, factor, total) -> None:
        # devices of a node are addressed node-major: gpu G is device
        # G % g, so per-device specs index with a tiled pattern
        t = np.zeros_like(per_gpu)
        for j, spec in enumerate(self.gpus):
            sel = active & (np.arange(self.n_gpus_total) % self.g == j)
            if not sel.any():
                continue
            t[sel] = (spec.link_latency
                      + per_gpu[sel] / self._gds_eff(spec, factor))
        self._gds_seconds += t
        self.turnarounds += int(active.sum())
        self._charge_and_emit("gds", t, total)

    def _stage_host(self, per_gpu, active, factor, total) -> None:
        s = self.config.staging_bytes
        if s is None:
            c = active.astype(np.float64)  # one turnaround, whole payload
            resident = total
        else:
            c = np.where(active, np.ceil(per_gpu / s), 0.0)
            resident = int(np.minimum(per_gpu, 2 * s).sum())
        t = np.zeros_like(per_gpu)
        for j, spec in enumerate(self.gpus):
            sel = active & (np.arange(self.n_gpus_total) % self.g == j)
            if not sel.any():
                continue
            t[sel] = (per_gpu[sel] / self._link_eff(spec, factor)
                      + c[sel] * spec.link_latency)
        # refill stall: from the second turnaround on, the pinned buffer
        # is only free again once the previous window has drained out of
        # the node — g devices share the node NIC into the funnel
        if s is None:
            stall = np.zeros_like(per_gpu)
        else:
            stall = ((c - 1.0).clip(min=0.0) * s * self.g
                     / self.comm.config.bandwidth)
        self._d2h_seconds += t
        self._stall_seconds += stall
        self.turnarounds += int(c.sum())
        resident = int(resident)
        if resident > 0:
            self.account.charge(resident)
            self.peak_staging_bytes = max(self.peak_staging_bytes, resident)
        try:
            self._charge_and_emit("d2h", t, total)
            if stall.any():
                self._charge_and_emit("gpu_stall", stall, total)
        finally:
            if resident > 0:
                self.account.release(resident)

    def _charge_and_emit(self, kind: str, per_gpu_seconds, nbytes) -> None:
        """Add per-GPU seconds to their ranks' clocks; emit the event.

        Every rank is charged, so the add is one whole-array pass; a
        :meth:`~repro.fs.posix.PosixIO.charge` scatter would scan the
        rank index on top of it.
        """
        dur = per_gpu_seconds[self.gpu_of_rank]
        self.comm.clocks += dur
        bus = self.bus
        if bus is not None and bus.wants(kind):
            ranks = np.arange(self.comm.size)
            bus.emit(kind, ranks, nbytes=int(nbytes),
                     duration=dur, start=self.comm.clocks - dur,
                     api="GPU", layer="gpu")

    # -- node-blob transfers (resilience plane) -------------------------

    def _node_link_seconds(self, nbytes: float) -> float:
        """Seconds to move one node blob across the host↔device links.

        The blob splits evenly over the node's ``g`` devices, which
        transfer in parallel — the node waits for the slowest link.
        """
        per_dev = float(nbytes) / self.g
        if per_dev <= 0.0:
            return 0.0
        factor = self._factor()
        s = self.config.staging_bytes
        worst = 0.0
        for spec in self.gpus:
            c = 1.0 if s is None else math.ceil(per_dev / s)
            worst = max(worst, c * spec.link_latency
                        + per_dev / self._link_eff(spec, factor))
        return worst

    def d2h_node(self, node: int, nbytes: float) -> float:
        """Drain seconds for ``nbytes`` of device checkpoint state of
        one node into host memory (the L0 tier staging leg)."""
        return self._node_link_seconds(nbytes)

    def h2d_node(self, node: int, nbytes: float) -> float:
        """Restore seconds for ``nbytes`` of recovered node state back
        onto the node's devices (the restart H2D leg)."""
        return self._node_link_seconds(nbytes)

    # -- reporting ------------------------------------------------------

    def report(self) -> dict:
        """Leg-time totals the gpu experiment folds into its rows."""
        return {
            "mode": self.config.mode,
            "gpus_per_node": self.g,
            "staging_bytes": self.config.staging_bytes,
            "staged_bytes": int(self.staged_bytes),
            "turnarounds": int(self.turnarounds),
            "d2h_seconds_max": float(self._d2h_seconds.max(initial=0.0)),
            "stall_seconds_max": float(self._stall_seconds.max(initial=0.0)),
            "gds_seconds_max": float(self._gds_seconds.max(initial=0.0)),
            "drain_seconds_max": float(
                (self._d2h_seconds + self._stall_seconds
                 + self._gds_seconds).max(initial=0.0)),
            "peak_staging_bytes": int(self.peak_staging_bytes),
        }

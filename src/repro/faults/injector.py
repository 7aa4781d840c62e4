"""Runtime fault injection and in-place recovery.

The :class:`FaultInjector` interprets a declarative
:class:`~repro.faults.plan.FaultPlan` against the live virtual machine:

* ``begin_step(step)`` applies step-pinned faults — opens/closes OST
  outage and slowdown windows (updating the shared :class:`FaultState`
  that the perf model and communicator consult), flips bytes for silent
  corruption, kills aggregators, and raises :class:`NodeCrashError` for
  node crashes.
* ``guard(posix, op, ranks, inos, api)`` sits in front of every PosixIO
  data operation.  It raises :class:`InjectedIOError` for armed transient
  errors and for operations touching files striped over dead OSTs —
  unless a :class:`~repro.faults.retry.RetryPolicy` is installed, in
  which case it charges seeded backoff to the affected clocks, performs
  the recovery action (re-striping files off dead OSTs), and retries up
  to the policy budget.

Every injected fault and every recovery action is emitted as a typed
event on the :mod:`repro.trace` bus (kinds ``fault``, ``retry``,
``failover``; the runner emits ``restart``), all on the dedicated
``faults`` layer so Darshan-style POSIX counters are unaffected but
timeline exports show the full failure story.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import (
    AggregatorFailure,
    DeviceOOM,
    EccRetirement,
    FaultPlan,
    H2DStall,
    MDSSlowdown,
    NICFlap,
    NodeCrash,
    OSTFault,
    SilentCorruption,
    TransientError,
)
from repro.faults.retry import RetryPolicy
from repro.fs.vfs import FSError
from repro.util.scatter import rank_array

_ERRNO = {"EIO": errno.EIO, "ETIMEDOUT": errno.ETIMEDOUT}


class NodeCrashError(RuntimeError):
    """A :class:`~repro.faults.plan.NodeCrash` fired — the job is dead.

    Only :func:`repro.workloads.runner.run_crash_restart` (or an
    equivalent orchestrator) can recover, by restarting from the last
    valid checkpoint.
    """

    def __init__(self, node: int, step: int, nodes: tuple[int, ...] = ()):
        nodes = tuple(nodes) or (node,)
        label = (f"node {node}" if len(nodes) == 1
                 else f"nodes {', '.join(str(n) for n in nodes)}")
        super().__init__(f"{label} crashed at step {step}")
        #: first crashed node (back-compat for single-crash plans)
        self.node = node
        self.step = step
        #: every node lost at this step — the failure domain the
        #: resilience plane scopes recovery to
        self.nodes = nodes


class InjectedIOError(OSError):
    """An injected I/O fault exhausted its retry budget (or had none)."""

    def __init__(self, errno_code: int, message: str, context: dict):
        super().__init__(errno_code, message)
        #: structured failure context: op, step, ranks, attempt, fault kind
        self.context = context


@dataclass
class FaultState:
    """Live derating factors shared with the perf model and communicator.

    The injector recomputes these at every ``begin_step``; they are read
    by :meth:`repro.fs.perfmodel.StoragePerfModel._bw_derate`,
    :meth:`repro.fs.perfmodel.StoragePerfModel.metadata_op_cost` and
    :meth:`repro.mpi.comm.VirtualComm.effective_bandwidth`.
    """

    #: aggregate storage bandwidth multiplier (degraded/dead OSTs)
    bw_factor: float = 1.0
    #: metadata op cost multiplier (MDS slowdown windows)
    mds_factor: float = 1.0
    #: interconnect bandwidth multiplier (NIC flaps)
    nic_factor: float = 1.0
    #: host↔device staging link multiplier (H2D stall windows) — read by
    #: :class:`repro.gpu.hybrid.HybridStager` on every staged transfer
    h2d_factor: float = 1.0


class FaultInjector:
    """Interprets one FaultPlan against one virtual machine."""

    def __init__(self, plan: FaultPlan, fs, comm=None, bus=None,
                 policy: RetryPolicy | None = None):
        self.plan = plan
        self.fs = fs
        self.comm = comm
        self.bus = bus
        self.policy = policy
        self.state = FaultState()
        self.step = -1
        #: remaining shot count per TransientError spec
        self._transient_remaining = {
            spec: spec.count for spec in plan.of_type(TransientError)}
        #: whether begin_step has anything to apply; transient errors
        #: act only in the per-op guard
        self._step_faults = any(not isinstance(spec, TransientError)
                                for spec in plan.specs)
        self._corruptions_done: set[SilentCorruption] = set()
        self._agg_failures_done: set[AggregatorFailure] = set()
        self._crashes_done: set[NodeCrash] = set()
        self._guard_active = False

    # -- event plumbing ------------------------------------------------------

    def _emit(self, kind: str, ranks, *, api: str, duration=0.0,
              inos=None) -> None:
        bus = self.bus
        if bus is None or not bus.wants(kind):
            return
        start = None
        if self.comm is not None:
            r = np.atleast_1d(rank_array(ranks))
            start = self.comm.clocks[r] - np.broadcast_to(
                np.asarray(duration, dtype=np.float64), r.shape)
        bus.emit(kind, ranks, duration=duration, start=start, api=api,
                 layer="faults", inos=inos)

    # -- step boundary -------------------------------------------------------

    def begin_step(self, step: int) -> list[AggregatorFailure]:
        """Apply all faults pinned to ``step``; refresh the fault state.

        Returns the aggregator failures firing this step (the caller —
        the runner — forwards them to the live engines, which own the
        aggregation plans).  Raises :class:`NodeCrashError` last, after
        every other fault of the step has been applied, so a crash step's
        corruption/outage state is already in place for the restart.
        """
        self.step = step
        if not self._step_faults and not self.fs.dead_osts:
            # nothing opens, closes, flips or crashes: every factor
            # stays 1.0 and only the transient-error guard re-arms
            self._arm_guard(step)
            return []

        # stateless window factors: recomputed, not accumulated, so a
        # restart replaying from an earlier step sees identical state
        ost_factors = []
        active_outage: set[int] = set()
        for spec in self.plan.of_type(OSTFault):
            if not spec.active(step):
                continue
            if spec.bw_factor == 0.0:
                active_outage.add(spec.ost)
                ost_factors.append(0.0)
            else:
                ost_factors.append(spec.bw_factor)
        n_osts = self.fs.system.num_osts
        dead_or_slow = ost_factors + [1.0] * (n_osts - len(ost_factors))
        self.state.bw_factor = float(np.mean(dead_or_slow)) if n_osts else 1.0
        self.state.mds_factor = max(
            [s.factor for s in self.plan.of_type(MDSSlowdown)
             if s.active(step)], default=1.0)
        self.state.nic_factor = min(
            [s.factor for s in self.plan.of_type(NICFlap)
             if s.active(step)], default=1.0)
        self.state.h2d_factor = min(
            [s.factor for s in self.plan.of_type(H2DStall)
             if s.active(step)], default=1.0)

        # OST outage windows opening/closing
        for ost in sorted(active_outage - self.fs.dead_osts):
            self.fs.fail_ost(ost)
            ranks = (np.arange(self.comm.size) if self.comm is not None
                     else 0)
            self._emit("fault", ranks, api="OST")
        for ost in sorted(self.fs.dead_osts - active_outage):
            self.fs.restore_ost(ost)

        # silent corruption: flip the bytes, tell no one but the trace
        for spec in self.plan.of_type(SilentCorruption):
            if spec.step != step or spec in self._corruptions_done:
                continue
            self._corruptions_done.add(spec)
            try:
                self.fs.vfs.corrupt(spec.path, spec.offset, spec.nbytes)
            except (FSError, ValueError, KeyError):
                continue  # target not created yet: the fault is a no-op
            ino = self.fs.vfs.lookup(spec.path)
            self._emit("fault", 0, api="CORRUPT", inos=ino)

        directives = []
        for spec in self.plan.of_type(AggregatorFailure):
            if spec.step == step and spec not in self._agg_failures_done:
                self._agg_failures_done.add(spec)
                self._emit("fault", spec.rank, api="AGG")
                directives.append(spec)

        self._arm_guard(step)

        # node crashes: all specs pinned to this step fire together as
        # ONE failure domain (a rack power event takes several nodes at
        # once) — the error carries every lost node so recovery can be
        # scoped to what redundancy actually survives.  GPU device-fatal
        # faults (device OOM, ECC page retirement) take the whole node's
        # job step with them, so they join the same domain.
        crashed: list[int] = []
        for spec in self.plan.of_type(NodeCrash):
            if spec.step == step and spec not in self._crashes_done:
                self._crashes_done.add(spec)
                ranks = (self.comm.ranks_on_node(spec.node)
                         if self.comm is not None else 0)
                self._emit("fault", ranks, api="NODE")
                crashed.append(spec.node)
        for spec in self.plan.of_type((DeviceOOM, EccRetirement)):
            if spec.step == step and spec not in self._crashes_done:
                self._crashes_done.add(spec)
                ranks = (self.comm.ranks_on_node(spec.node)
                         if self.comm is not None else 0)
                self._emit("fault", ranks, api="GPU")
                if spec.node not in crashed:
                    crashed.append(spec.node)
        if crashed:
            raise NodeCrashError(crashed[0], step, nodes=tuple(crashed))
        return directives

    # -- per-op guard --------------------------------------------------------

    def _arm_guard(self, step: int) -> None:
        """Arm the per-op guard only when it can actually fire."""
        self._guard_active = bool(self.fs.dead_osts) or any(
            n > 0 and spec.step <= step
            for spec, n in self._transient_remaining.items())

    def _match(self, op: str, ranks, inos):
        """First armed fault hit by this op, or None.

        Transient errors take priority (they are explicitly scheduled);
        dead-OST hits follow for write/fsync/read ops whose stripe
        windows overlap a dead OST.
        """
        for spec, remaining in self._transient_remaining.items():
            if remaining <= 0 or spec.op != op or spec.step > self.step:
                continue
            if spec.rank is not None:
                r = np.atleast_1d(rank_array(ranks))
                if spec.rank not in r:
                    continue
            return spec
        if self.fs.dead_osts and inos is not None:
            cols = self.fs.vfs.cols
            ino_arr = np.atleast_1d(np.asarray(inos))
            starts = cols.ost_start[ino_arr].astype(np.int64)
            counts = cols.stripe_count[ino_arr].astype(np.int64)
            n = self.fs.system.num_osts
            dead = np.fromiter(self.fs.dead_osts, dtype=np.int64)
            # file hits OST d iff (d - start) mod n < stripe_count;
            # unplaced files (start < 0) cannot hit anything yet
            hit = (((dead[None, :] - starts[:, None]) % n)
                   < counts[:, None]) & (starts[:, None] >= 0)
            if np.any(hit):
                return ("ost", ino_arr[np.any(hit, axis=1)])
        return None

    def guard(self, posix, op: str, ranks, inos, api: str) -> None:
        """Fault check in front of one data operation; retries in place."""
        if not self._guard_active:
            return
        attempt = 0
        while True:
            match = self._match(op, ranks, inos)
            if match is None:
                return
            if isinstance(match, TransientError):
                self._transient_remaining[match] -= 1
                kind, errno_name = "IO", match.errno_name
                self._emit("fault", ranks, api=kind, inos=inos)
            else:
                kind, errno_name = "OST", "EIO"
                self._emit("fault", ranks, api=kind, inos=match[1])
            context = {
                "op": op, "api": api, "step": self.step, "attempt": attempt,
                "fault": kind, "errno": errno_name,
                "ranks": np.atleast_1d(rank_array(ranks)).tolist(),
            }
            policy = self.policy
            if policy is None or attempt >= policy.max_retries:
                raise InjectedIOError(
                    _ERRNO[errno_name],
                    f"injected {errno_name} on {op} (step {self.step}, "
                    f"attempt {attempt})", context)
            delay = policy.delay(attempt)
            if errno_name == "ETIMEDOUT":
                delay += policy.timeout_charge()
            posix.charge(ranks, delay, "retry", api=api, layer="faults",
                         inos=inos)
            if kind == "OST":
                # recovery: migrate the affected files off the dead OSTs
                for ino in np.atleast_1d(match[1]):
                    self.fs.restripe_surviving(int(ino))
                self._emit("failover", ranks, api="OST", inos=match[1])
            attempt += 1


def install_faults(posix, plan: FaultPlan,
                   policy: RetryPolicy | None = None) -> FaultInjector:
    """Wire a FaultPlan into a live PosixIO stack.

    Creates the injector over the stack's filesystem/communicator/trace
    bus, hooks the shared :class:`FaultState` into the perf model and the
    communicator, and installs the per-op guard on the syscall layer.
    """
    inj = FaultInjector(plan, posix.fs, comm=posix.comm, bus=posix.trace,
                        policy=policy)
    posix.faults = inj
    posix.fs.perf.fault_state = inj.state
    if posix.comm is not None:
        posix.comm.fault_state = inj.state
    return inj


def uninstall_faults(posix) -> None:
    """Detach fault injection from a PosixIO stack."""
    posix.faults = None
    posix.fs.perf.fault_state = None
    if posix.comm is not None:
        posix.comm.fault_state = None

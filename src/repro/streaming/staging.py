"""Staged producer→consumer transport with virtual-time backpressure.

The SST engine (:mod:`repro.adios2.sst`) gives the raw mechanics —
bounded staging buffer, per-consumer cursors, block/discard policies.
This module adds the *time model*: consumers are virtual-time entities
with their own ready clocks, every delivery pays an ingress transfer
over a :class:`NetworkPath` (the ``repro.cluster`` network model — NIC
latency/bandwidth with live fault derating — never the storage model),
and producer backpressure becomes measurable virtual seconds:

* **block** — publishing into a full buffer stalls the producer until
  the laggard consumer has copied the oldest step out of the staging
  buffer (its pickup transfer completes and the slot retires); the
  stall is charged to every producer clock and emitted as a ``stall``
  trace event.
* **discard** — consumer pickups are committed only up to the producer's
  current time before each publish (a consumer is never scheduled into
  the future it hasn't reached), then the engine drops the oldest
  buffered steps as needed, emitting ``drop`` events.

Delivery scheduling is greedy and deterministic: a consumer picks up
the next step at ``max(consumer ready, step available)``, pays the
ingress transfer, runs its per-step analysis (the consumer reports the
cost), and becomes ready again.  Staging-slot release times and the
per-entry residency intervals give peak staging memory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adios2.sst import SSTEngine, StepData
from repro.mpi.comm import VirtualComm


@dataclass
class NetworkPath:
    """Consumer-side ingress path: latency + bandwidth, fault-aware.

    When ``comm`` is set, an installed fault state's NIC derating
    applies live (a NIC flap slows stream deliveries exactly as it
    slows collectives).
    """

    latency: float = 2.0e-6
    bandwidth: float = 25.0e9
    comm: VirtualComm | None = None

    @classmethod
    def of(cls, comm: VirtualComm) -> "NetworkPath":
        return cls(latency=comm.config.latency,
                   bandwidth=comm.config.bandwidth, comm=comm)

    def seconds(self, nbytes: float) -> float:
        bw = self.bandwidth
        if self.comm is not None and self.comm.fault_state is not None:
            bw *= max(self.comm.fault_state.nic_factor, 1e-6)
        return self.latency + float(nbytes) / max(bw, 1e-6)


@dataclass
class ConsumerStats:
    """What one consumer did over the run (virtual time)."""

    name: str
    delivered: int = 0
    missed: int = 0
    first_completion: float | None = None
    last_completion: float = 0.0
    busy_seconds: float = 0.0


@dataclass
class _ConsumerState:
    consumer: object
    cid: int
    slot: int  # stable ordinal: trace rank = nranks + slot
    ready: float = 0.0
    attached: bool = True
    stats: ConsumerStats = field(default_factory=lambda: ConsumerStats(""))


class StagedTransport:
    """Couples one SST engine to in-situ consumers in virtual time.

    Producer-side it forwards the BP step API (``begin_step`` / ``put``
    / ``put_group`` / ``put_attribute`` / ``end_step`` / ``close``);
    ``end_step`` applies the stream's backpressure policy *before*
    publishing, so block-policy stalls and discard-policy drops land in
    the virtual timeline (and on the trace bus) at the right moment.
    """

    def __init__(self, engine: SSTEngine, path: NetworkPath | None = None,
                 bus=None):
        self.engine = engine
        self.stream = engine.stream
        self.path = path if path is not None else NetworkPath.of(engine.comm)
        self.bus = bus
        self._consumers: list[_ConsumerState] = []
        self._by_name: dict[str, _ConsumerState] = {}
        #: publish index → (availability time, slot release time, bytes)
        self._avail: dict[int, float] = {}
        self._release: dict[int, float] = {}
        self._bytes: dict[int, int] = {}
        self.stalls = 0
        self.stall_seconds = 0.0
        self._closed = False

    # -- consumers --------------------------------------------------------

    def attach(self, consumer, name: str | None = None) -> ConsumerStats:
        """Attach an in-situ consumer; its cursor starts at the oldest
        buffered step and its clock at the producer's current time."""
        name = name or getattr(consumer, "name", None) or \
            f"consumer{len(self._consumers)}"
        if name in self._by_name:
            raise ValueError(f"consumer {name!r} already attached")
        cs = _ConsumerState(consumer=consumer, cid=self.stream.attach(),
                            slot=len(self._consumers),
                            ready=self.engine.comm.max_time())
        cs.stats.name = name
        self._consumers.append(cs)
        self._by_name[name] = cs
        return cs.stats

    def detach(self, name: str) -> None:
        """Drop one consumer's cursor (crash or planned departure)."""
        cs = self._by_name[name]
        if cs.attached:
            self.stream.detach(cs.cid)
            cs.attached = False

    def reattach(self, name: str) -> None:
        """Bring a detached consumer back at the oldest surviving step."""
        cs = self._by_name[name]
        if not cs.attached:
            cs.cid = self.stream.attach()
            cs.attached = True
            cs.ready = max(cs.ready, self.engine.comm.max_time())

    def stats(self) -> dict[str, ConsumerStats]:
        out = {}
        for name, cs in self._by_name.items():
            cs.stats.missed = self.stream.published - cs.stats.delivered
            out[name] = cs.stats
        return out

    # -- producer-side step API ------------------------------------------

    def begin_step(self) -> int:
        return self.engine.begin_step()

    def put(self, *args, **kw):
        return self.engine.put(*args, **kw)

    def put_group(self, *args, **kw):
        return self.engine.put_group(*args, **kw)

    def put_attribute(self, *args, **kw):
        return self.engine.put_attribute(*args, **kw)

    def end_step(self) -> StepData:
        comm = self.engine.comm
        if self.stream.policy == "block":
            t_ready = comm.max_time()
            release = self._make_room_blocking()
            if release > t_ready:
                stall = release - t_ready
                self.stalls += 1
                self.stall_seconds += stall
                if self.bus is not None and self.bus.wants("stall"):
                    ranks = np.arange(comm.size)
                    with self.bus.step(self.engine._step):
                        self.bus.emit("stall", ranks, duration=stall,
                                      start=comm.clocks, api="SST",
                                      layer="stream")
                # every producer rank waits for the staging slot
                np.maximum(comm.clocks, release, out=comm.clocks)
        else:
            # commit only the pickups consumers have reached by *now* —
            # never schedule a consumer into a future where a step it
            # would have taken has already been dropped
            self._commit(until=comm.max_time())
        data = self.engine.end_step()
        idx = self.stream.published - 1
        now = comm.max_time()
        self._avail[idx] = now
        self._bytes[idx] = data.total_bytes
        for old_idx, _old in self.engine.last_dropped:
            # dropped entries leave the buffer at publish time
            self._release.setdefault(old_idx, now)
        return data

    def close(self) -> None:
        """Close the producer and drain every remaining delivery."""
        if self._closed:
            return
        self.engine.close()
        self._commit(until=None)
        self._closed = True

    # -- delivery scheduling ----------------------------------------------

    def _deliver_next(self, cs: _ConsumerState,
                      until: float | None) -> bool:
        """Schedule one pickup for one consumer; False when none fits."""
        peek = self.stream.peek_for(cs.cid)
        if peek is None:
            return False
        idx, data = peek
        start = max(cs.ready, self._avail.get(idx, 0.0))
        if until is not None and start > until:
            return False
        transfer = self.path.seconds(data.total_bytes)
        # the staging slot frees once the consumer's copy completes
        self._release[idx] = max(self._release.get(idx, 0.0),
                                 start + transfer)
        cost = cs.consumer.process(data, start + transfer)
        end = start + transfer + max(float(cost), 0.0)
        self.stream.advance(cs.cid)
        cs.ready = end
        cs.stats.delivered += 1
        cs.stats.busy_seconds += end - start
        if cs.stats.first_completion is None:
            cs.stats.first_completion = end
        cs.stats.last_completion = end
        if self.bus is not None and self.bus.wants("deliver"):
            rank = self.engine.comm.size + cs.slot
            with self.bus.step(data.step):
                self.bus.emit("deliver", np.array([rank]),
                              nbytes=data.total_bytes,
                              duration=end - start, start=start,
                              api="SST", layer="stream")
        return True

    def _commit(self, until: float | None) -> None:
        progressed = True
        while progressed:
            progressed = False
            for cs in self._consumers:
                if cs.attached and self._deliver_next(cs, until):
                    progressed = True

    def _make_room_blocking(self) -> float:
        """Drain the oldest entries until the buffer can accept one more;
        returns the virtual time the last needed slot is released."""
        release = 0.0
        while not self.stream.can_accept():
            active = [cs for cs in self._consumers if cs.attached]
            if not active:
                # nothing will ever drain the buffer: surface the
                # engine's own deadlock error
                break
            target = self.stream.base
            for cs in active:
                while self.stream.cursors[cs.cid] <= target:
                    if not self._deliver_next(cs, until=None):
                        break
            release = max(release, self._release.get(target, 0.0))
        return release

    # -- metrics ----------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self.stream.dropped

    @property
    def published(self) -> int:
        return self.stream.published

    def producer_seconds(self) -> float:
        return self.engine.comm.max_time()

    def makespan(self) -> float:
        """End of the whole pipeline: producer and every consumer done."""
        last = max((cs.stats.last_completion for cs in self._consumers),
                   default=0.0)
        return max(self.producer_seconds(), last)

    def time_to_first_insight(self) -> float | None:
        """Earliest completed delivery of an insight-bearing consumer."""
        firsts = [cs.stats.first_completion for cs in self._consumers
                  if getattr(cs.consumer, "insight", True)
                  and cs.stats.first_completion is not None]
        return min(firsts) if firsts else None

    def peak_staging_bytes(self) -> int:
        """Max bytes resident in the staging buffer at any instant."""
        events: list[tuple[float, int, int]] = []
        for idx, t0 in self._avail.items():
            t1 = self._release.get(idx, t0)
            nbytes = self._bytes.get(idx, 0)
            events.append((t0, 0, nbytes))   # additions before removals
            events.append((max(t1, t0), 1, -nbytes))
        events.sort()
        peak = cur = 0
        for _t, _o, delta in events:
            cur += delta
            peak = max(peak, cur)
        return peak

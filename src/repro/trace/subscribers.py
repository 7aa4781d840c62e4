"""Reusable spine subscribers.

The heavyweight consumers (Darshan counter fold, DXT segment tracer)
live next to their data models in ``repro.darshan``; this module holds
the small generic ones: the bounded in-memory recorder the exporters
read from and the engine-profile fold.
"""

from __future__ import annotations

from collections import deque

from repro.trace.events import IOEvent, StepBatch


class EventRecorder:
    """Bounded in-memory event log (mirrors the DXT ring-buffer design).

    Keeps the most recent ``capacity`` events; ``dropped`` counts what
    the ring evicted so exporters can flag truncation instead of
    silently presenting a partial trace as complete.  With ``spill_to``
    set (a path or writable text file), evicted events are appended
    there as one-line summaries instead of vanishing — the full stream
    survives on disk while residency stays bounded at ``capacity``.
    An optional ``mem_account`` (a :class:`repro.mem.MemoryAccount`)
    is charged a nominal per-retained-event cost so the trace
    subsystem shows up in the run's memory report.
    """

    kinds = None  # record everything

    #: nominal resident cost of one retained event (object + views)
    EVENT_COST = 512

    def __init__(self, capacity: int = 65536, spill_to=None,
                 mem_account=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[IOEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.spilled = 0
        self.mem_account = mem_account
        self._spill_fh = None
        self._spill_path = None
        if spill_to is not None:
            if hasattr(spill_to, "write"):
                self._spill_fh = spill_to
            else:
                self._spill_path = spill_to

    def _spill(self, event: IOEvent) -> None:
        if self._spill_fh is None:
            if self._spill_path is None:
                return
            self._spill_fh = open(self._spill_path, "a")
        self._spill_fh.write(repr(event) + "\n")
        self.spilled += 1

    def on_event(self, event: IOEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
            self._spill(self._events[0])
        elif self.mem_account is not None:
            self.mem_account.charge(self.EVENT_COST)
        self._events.append(event)

    @property
    def events(self) -> list[IOEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def clear(self) -> None:
        if self.mem_account is not None:
            self.mem_account.release(len(self._events) * self.EVENT_COST)
        self._events.clear()
        self.dropped = 0

    def close(self) -> None:
        """Flush and close the spill file (opened lazily, if any)."""
        if self._spill_fh is not None and self._spill_path is not None:
            self._spill_fh.close()
            self._spill_fh = None


class ProfileFold:
    """Folds engine-plane events into an ``EngineProfile``.

    ``scope=None`` folds every engine event on the bus (useful for a
    whole-run roll-up); a string folds only events attributed to that
    scope, which is how each engine keeps its own ``profiling.json``
    while sharing one bus.
    """

    kinds = frozenset({"memcpy", "compress", "shuffle", "collective_write"})

    def __init__(self, profile, scope: str | None = None):
        self.profile = profile
        self.scope = scope

    def on_event(self, event: IOEvent) -> None:
        if self.scope is not None and event.scope != self.scope:
            return
        self.profile.fold_event(event)

    def on_steps(self, batch: StepBatch) -> None:
        rows = [row for row in batch.rows if row.kind in self.kinds
                and (self.scope is None or row.scope == self.scope)]
        if rows:
            self.profile.fold_steps(rows, batch.nsteps)

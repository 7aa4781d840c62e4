"""The event bus: producers emit, subscribers fold.

Design constraints, in priority order:

1. **Zero-cost when disabled.**  With no subscribers, ``emit`` is one
   attribute load and a truthiness check — no event object, no
   broadcasting, no timestamp gather.  Producers on hot paths guard
   expensive argument preparation with :meth:`TraceBus.wants`.
2. **Deterministic.**  Subscribers are dispatched in subscription
   order; the monotonically increasing ``seq`` stamps a global total
   order over events so two runs with the same seed produce an
   identical stream.
3. **Typed.**  Kinds outside :data:`~repro.trace.events.EVENT_KINDS`
   raise immediately.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.trace.events import (
    EVENT_KINDS,
    IOEvent,
    StepBatch,
    StepRow,
    make_event,
)


class TraceBus:
    """Dispatches typed I/O events to an ordered list of subscribers.

    A subscriber is any object with an ``on_event(event)`` method.
    Optional attributes refine dispatch:

    - ``kinds``: a set of event kinds the subscriber cares about
      (``None`` or absent means *all* kinds);
    - ``register_file(ino, path)`` / ``register_files(inos, paths)``:
      called when producers name the files behind inode numbers, so
      path-keyed subscribers (Darshan file table, DXT) can label
      records;
    - ``on_scalar(kind, layer, api, rank, nbytes, duration, start, n_ops,
      ino)``: folds one single-rank event given as plain scalars (see
      :meth:`emit_scalar`).  Subscribers that need the event's scope,
      step or sequence id leave it out and receive an :class:`IOEvent`;
    - ``on_steps(batch)``: folds a :class:`StepBatch`, a run of flush
      steps (see :meth:`emit_steps`).

    Producers come in through three entries, one per shape of input:

    - :meth:`emit`, one event over any ranks.  It stays the general
      form because the subscribers that keep raw events (an
      ``EventRecorder`` under ``trace_mode="full"``, a ``DXTRecorder``)
      need each event's per-rank starts, which a step batch lacks;
    - :meth:`emit_scalar`, one event of one rank, given as scalars: the
      bulk of a serving run's folds, where building an event per call
      would cost more than the fold;
    - :meth:`emit_steps`, a run of flush steps folded at once.
    """

    __slots__ = ("_subs", "_dispatch", "_wanted", "_scope_stack", "_step",
                 "_path_batches", "_paths_dict", "_paths_folded",
                 "_path_rows", "node_of_rank", "_seq")

    #: unfolded registration rows tolerated before compacting into the
    #: dedup dict — a group open over 10^6 ranks of one shared file
    #: would otherwise pin the whole ino/path batch in memory
    PATH_COMPACT_THRESHOLD = 65536

    def __init__(self, node_of_rank=None):
        self._subs: list = []
        self._dispatch: list = []
        self._wanted: frozenset | None = frozenset()
        self._scope_stack: list[str] = []
        self._step: int | None = None
        # ino→path registrations, kept as appended batches so group
        # opens stay O(1) here; folded incrementally into a cached dict
        # the first time a path-keyed consumer looks one up
        self._path_batches: list[tuple] = []
        self._paths_dict: dict[int, str] = {}
        self._paths_folded = 0
        self._path_rows = 0
        self.node_of_rank = node_of_rank
        self._seq = 0

    # -- subscription ---------------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subs)

    @property
    def seq(self) -> int:
        """Number of events emitted so far (next event's sequence id)."""
        return self._seq

    def subscribe(self, subscriber):
        """Attach a subscriber; returns it for chaining.

        Replays the ino→path registry into the new subscriber so late
        joiners can still label files opened before they attached.
        """
        if not hasattr(subscriber, "on_event"):
            raise TypeError(
                f"{type(subscriber).__name__} has no on_event(), so it "
                "cannot subscribe")
        if subscriber not in self._subs:
            self._subs.append(subscriber)
            self._refresh_wanted()
            if hasattr(subscriber, "register_file") or hasattr(
                    subscriber, "register_files"):
                if self._paths_dict:
                    # batches already compacted away: replay the dedup
                    # dict (insertion order = first-registration order)
                    self._forward_registration(
                        subscriber, list(self._paths_dict.keys()),
                        list(self._paths_dict.values()))
                for inos, paths in self._path_batches:
                    self._forward_registration(subscriber, inos, paths)
        return subscriber

    def unsubscribe(self, subscriber) -> None:
        try:
            self._subs.remove(subscriber)
        except ValueError:
            pass
        self._refresh_wanted()

    def _refresh_wanted(self) -> None:
        """Precompute dispatch pairs and the union of interests."""
        self._dispatch = [
            (sub.on_event, getattr(sub, "kinds", None),
             getattr(sub, "on_scalar", None), getattr(sub, "on_steps", None))
            for sub in self._subs
        ]
        if any(kinds is None for _, kinds, _, _ in self._dispatch):
            self._wanted = None  # someone wants everything
        else:
            union: set[str] = set()
            for _, kinds, _, _ in self._dispatch:
                union |= set(kinds)
            self._wanted = frozenset(union)

    def wants(self, kind: str) -> bool:
        """True if any subscriber would receive an event of ``kind``.

        Producers use this to skip expensive argument preparation (clock
        gathers, byte tallies) on the disabled path.
        """
        return self._wanted is None or kind in self._wanted

    # -- attribution context --------------------------------------------

    @contextmanager
    def scope(self, token: str):
        """Attribute events emitted inside the block to ``token``.

        Scopes nest; the innermost wins.  Engines use this to tag the
        filesystem events triggered by their flushes, so profile folds
        can tell two concurrently open engines apart.
        """
        self._scope_stack.append(token)
        try:
            yield self
        finally:
            self._scope_stack.pop()

    @contextmanager
    def step(self, step: int):
        """Attribute events emitted inside the block to a timestep."""
        prev, self._step = self._step, step
        try:
            yield self
        finally:
            self._step = prev

    @property
    def current_scope(self) -> str | None:
        return self._scope_stack[-1] if self._scope_stack else None

    # -- file registry ---------------------------------------------------

    @staticmethod
    def _forward_registration(subscriber, inos, paths) -> None:
        regs = getattr(subscriber, "register_files", None)
        if regs is not None:
            regs(inos, paths)
            return
        reg = getattr(subscriber, "register_file", None)
        if reg is not None:
            for ino, path in zip(inos, paths):
                reg(ino, path)

    def register_file(self, ino: int, path: str) -> None:
        self._path_batches.append(((int(ino),), (path,)))
        self._path_rows += 1
        for sub in self._subs:
            reg = getattr(sub, "register_file", None)
            if reg is not None:
                reg(ino, path)

    def register_files(self, inos, paths) -> None:
        """Register a batch (one group open); O(1) on the bus itself."""
        self._path_batches.append((inos, paths))
        self._path_rows += len(paths)
        for sub in self._subs:
            self._forward_registration(sub, inos, paths)
        if self._path_rows > self.PATH_COMPACT_THRESHOLD:
            self._compact_paths()

    def _compact_paths(self) -> None:
        """Fold every pending batch and drop the raw rows.

        A chunked group-open loop registers the same few files once per
        rank block; after compaction only the dedup dict (one entry per
        distinct file) stays resident.
        """
        self._fold_paths()
        self._path_batches = []
        self._paths_folded = 0
        self._path_rows = 0

    def _fold_paths(self) -> dict[int, str]:
        """Fold unseen registration batches into the cached dict.

        Each batch is folded exactly once, so per-record lookups are
        O(1) amortised instead of O(total registrations) per call.
        First registration wins, matching Darshan's file-table
        semantics.
        """
        batches = self._path_batches
        if self._paths_folded < len(batches):
            out = self._paths_dict
            for inos, paths in batches[self._paths_folded:]:
                for ino, path in zip(inos, paths):
                    out.setdefault(int(ino), path)
            self._paths_folded = len(batches)
        return self._paths_dict

    def paths(self) -> dict[int, str]:
        """The materialised ino→path registry (a copy; mutate freely)."""
        return dict(self._fold_paths())

    def path_of(self, ino: int, default: str | None = None) -> str | None:
        return self._fold_paths().get(int(ino), default)

    # -- emission --------------------------------------------------------

    def emit(self, kind: str, ranks, *, nbytes=0, duration=0.0, start=None,
             n_ops=1, api: str = "POSIX", layer: str = "posix",
             inos=None) -> IOEvent | None:
        """Build and dispatch one event; returns it (None when disabled).

        The scope/step attribution comes from the ambient context
        managers, so producers never thread those through call chains.
        """
        wanted = self._wanted
        if wanted is not None and kind not in wanted:
            if kind not in EVENT_KINDS:  # keep typo detection on the
                raise ValueError(        # disabled path too
                    f"unknown trace event kind {kind!r}")
            return None
        event = make_event(
            kind, ranks, nbytes=nbytes, duration=duration, start=start,
            n_ops=n_ops, api=api, layer=layer, inos=inos,
            scope=self.current_scope, step=self._step, seq=self._seq)
        self._seq += 1
        for on_event, kinds, _, _ in self._dispatch:
            if kinds is None or kind in kinds:
                on_event(event)
        return event

    def emit_scalar(self, kind: str, rank, *, nbytes=0, duration=0.0,
                    start=None, n_ops=1, api: str = "POSIX",
                    layer: str = "posix", ino=None) -> None:
        """Dispatch one single-rank event whose fields are all scalars.

        The scalar lane of :meth:`emit`: ``emit(kind, [rank], ...)``
        with the same scalars (``ino`` a single inode or None) gives
        every subscriber the same fold and takes the same sequence id.
        Subscribers with an ``on_scalar`` hook get the scalars as they
        are; everyone else gets the :class:`IOEvent` :meth:`emit` would
        build, built only if one of them wants the kind.
        """
        if kind not in EVENT_KINDS:  # typos raise, wanted or not
            raise ValueError(f"unknown trace event kind {kind!r}")
        wanted = self._wanted
        if wanted is not None and kind not in wanted:
            return
        seq = self._seq
        self._seq = seq + 1
        event = None
        for on_event, kinds, on_scalar, _ in self._dispatch:
            if kinds is not None and kind not in kinds:
                continue
            if on_scalar is not None:
                on_scalar(kind, layer, api, rank, nbytes, duration, start,
                          n_ops, ino)
                continue
            if event is None:
                event = make_event(
                    kind, rank, nbytes=nbytes, duration=duration,
                    start=start, n_ops=n_ops, api=api, layer=layer,
                    inos=ino, scope=self.current_scope, step=self._step,
                    seq=seq)
            on_event(event)

    def takes_steps(self, kinds) -> bool:
        """True when every subscriber that wants one of ``kinds`` folds
        step batches (has ``on_steps``), so :meth:`emit_steps` can
        carry a run of steps of those kinds."""
        kinds = frozenset(kinds)
        return all(
            on_steps is not None
            or (sub_kinds is not None and kinds.isdisjoint(sub_kinds))
            for _, sub_kinds, _, on_steps in self._dispatch)

    def emit_steps(self, rows: list[StepRow], steps) -> StepBatch | None:
        """Dispatch a run of steps as one :class:`StepBatch`.

        Stands for emitting each step's ``rows`` as events, in order,
        step ``k`` under trace step ``steps[k]``: rows no subscriber
        wants are dropped, the rows left take consecutive sequence ids
        step after step, and each subscriber wanting one of them folds
        the whole batch through its ``on_steps`` hook.  Producers check
        :meth:`takes_steps` first; a subscriber without the hook raises.
        """
        for row in rows:  # typos raise, wanted or not
            if row.kind not in EVENT_KINDS:
                raise ValueError(f"unknown trace event kind {row.kind!r}")
        rows = tuple(row for row in rows if self.wants(row.kind))
        if not rows:
            return None
        batch = StepBatch(rows, tuple(steps), self._seq)
        self._seq += len(batch)
        kinds = {row.kind for row in rows}
        for on_event, sub_kinds, _, on_steps in self._dispatch:
            if sub_kinds is not None and kinds.isdisjoint(sub_kinds):
                continue
            if on_steps is None:
                raise TypeError(
                    f"{getattr(on_event, '__self__', on_event)!r} folds no "
                    "step batch (no on_steps)")
            on_steps(batch)
        return batch

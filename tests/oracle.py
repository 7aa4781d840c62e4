"""One oracle for the four fast lanes: one reference switch, one
observation, one census.

The I/O stream runs through four lanes, each bit-identical to a
reference path (docs/architecture.md, "Invariants the test suite pins"):

- the scalar lane: a single-rank op charges its clock and emits scalars
  (:meth:`~repro.fs.posix.PosixIO.charge`, ``TraceBus.emit_scalar``,
  ``DarshanMonitor.on_scalar``), costed through the perf model's memo;
  the reference charges one-element rank and seconds arrays, costed on
  the perf model's array path;
- the flush memo: a span-only BP flush reuses the derivation of an
  earlier step; the reference derives afresh at every use and asserts
  the memo's entry equals it bit for bit;
- the range lane: producers hand ``range`` ranks to the I/O layers; the
  reference makes ``VirtualComm.rank_range`` build ``np.arange``;
- the step lane: a run of diagnostics flushes in one engine pass; the
  reference flushes step by step (``_steps_batchable`` never holds).

:func:`reference_paths` switches all four at once, :func:`observe` runs
a run and returns everything it leaves behind as named facets,
:func:`assert_same` compares two observations facet by facet, and
:func:`lane_census` counts which lane each flush and event took.  Test
modules share helpers through this module only.
"""

from __future__ import annotations

import collections
import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

import repro.trace.bus as bus_module
import repro.trace.events as events_module
from repro.adios2.engine import BPEngineBase
from repro.adios2.profiling import EngineProfile
from repro.cluster.presets import dardel
from repro.darshan.log import FILE_FIELDS, FileTable
from repro.fs import mount
from repro.fs.perfmodel import StoragePerfModel
from repro.fs.posix import PosixIO
from repro.mpi import VirtualComm
from repro.trace.bus import TraceBus
from repro.trace.events import IOEvent
from repro.trace.session import TraceSession
from repro.workloads import run_crash_restart, small_use_case

#: every facet :func:`observe` may return, in comparison order
FACETS = ("clocks", "log", "profiles", "stream_profile", "breakdown",
          "events", "vfs", "descriptors", "engines", "memo", "rng", "mem",
          "seq", "host", "report")

#: the perf model's per-op costs; each takes the scalar lane when every
#: argument is a number, the array path otherwise
_COSTS = ("metadata_op_cost", "fsync_cost", "write_op_cost", "read_op_cost")


# ---------------------------------------------------------------------------
# the reference switch


def _one_element(ranks, seconds):
    """An int rank and its seconds as one-element arrays: the array path
    of the scalar lane's charge and emit."""
    if isinstance(ranks, (int, np.integer)):
        return (np.array([ranks]),
                np.atleast_1d(np.asarray(seconds, dtype=np.float64)))
    return ranks, seconds


def _array_path(cost):
    def array_cost(self, first, *args, **kw):
        return cost(self, np.asarray(first, dtype=np.float64), *args, **kw)
    return array_cost


def _arange_ranks(self, start=0, stop=None, step=1):
    return np.arange(start, self.size if stop is None else stop, step)


def _spelled_out(value, shape) -> np.ndarray:
    """An event column with a scalar spelled out per rank: a 0-stride
    column folds as one value (one size bucket per event), which is the
    range lane's."""
    return np.array(np.broadcast_to(np.asarray(value, dtype=np.float64),
                                    shape))


def _checked(derive):
    def derive_and_check(engine, memoise, derivation=None):
        d = derive(engine, memoise, derivation)
        if memoise:
            fresh = (derivation or engine._derivation)(
                engine.comm.effective_bandwidth())
            assert canonical(d) == canonical(fresh), (
                f"{engine.path} step {engine._step}: the memo's entry is "
                "not the fresh derivation")
        return d
    return derive_and_check


def reference_paths(monkeypatch) -> None:
    """Switch every lane to its reference on ``monkeypatch``.

    Step lane: no run of steps is batchable.  Flush memo: each memoised
    derivation is derived afresh and must equal the entry (the entries
    and the ``engine`` account stay as the lane leaves them, so the
    ``memo`` and ``mem`` facets compare too).  Range lane: producers get
    ``np.arange`` ranks.  Scalar lane: an int rank is charged and
    emitted as one-element arrays, and every perf-model cost takes the
    array path.  Range and scalar lanes: event columns hold a value per
    rank, never a 0-stride scalar.
    """
    charge, notify = PosixIO.charge, PosixIO._notify

    def charge_arrays(self, ranks, seconds, kind=None, **kw):
        return charge(self, *_one_element(ranks, seconds), kind, **kw)

    def notify_arrays(self, kind, ranks, seconds, **kw):
        return notify(self, kind, *_one_element(ranks, seconds), **kw)

    monkeypatch.setattr(BPEngineBase, "_steps_batchable", lambda self: False)
    monkeypatch.setattr(BPEngineBase, "_derive", _checked(BPEngineBase._derive))
    monkeypatch.setattr(VirtualComm, "rank_range", _arange_ranks)
    monkeypatch.setattr(events_module, "_per_rank", _spelled_out)
    monkeypatch.setattr(PosixIO, "charge", charge_arrays)
    monkeypatch.setattr(PosixIO, "_notify", notify_arrays)
    for name in _COSTS:  # a 0-d array input never takes the scalar lane
        monkeypatch.setattr(StoragePerfModel, name,
                            _array_path(getattr(StoragePerfModel, name)))


# ---------------------------------------------------------------------------
# the observation


def canonical(value):
    """``value`` as plain data that ``==`` compares bit for bit: arrays
    become (dtype, shape, bytes), dataclasses dicts of their fields."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, FileTable):
        return {"paths": value.paths,
                **{f: canonical(getattr(value, f)) for f in FILE_FIELDS}}
    if isinstance(value, IOEvent):
        # by content, not by rank_range: a range event is its arange one
        return {f: canonical(getattr(value, f)) for f in (
            "kind", "layer", "api", "scope", "step", "seq", "ranks",
            "nbytes", "duration", "start", "n_ops", "inos")}
    if isinstance(value, EngineProfile):
        return {"engine": value.engine_type, "nbins": value.nbins,
                "steps": value.steps, "bytes_put": canonical(value.bytes_put),
                "us": canonical(value.us)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: canonical(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(canonical(v) for v in value)
    return value


def _engine_state(engine) -> dict:
    fds = [engine._md_fd, engine._idx_fd, *engine._extra_fds.values()]
    return canonical({
        "path": engine.path,
        "step": engine._step,
        "profile_steps": engine.profile.steps,
        "tails": engine._subfile_tails,
        "slots": {key: spans.decode() for key, spans in engine._slots.items()},
        "peak_host_bytes": engine.peak_host_bytes,
        "fd_pos": engine.posix._fd_pos[fds],
    })


class Observation(dict):
    """One run's facets by name; ``result`` is what the run returned."""

    def __init__(self, facets: dict, result):
        super().__init__(facets)
        self.result = result


def observe(run) -> Observation:
    """Run ``run()`` and return what it leaves behind, facet by facet.

    From every :class:`~repro.fs.posix.PosixIO` the run builds: its
    clocks, vfs columns, descriptor table, perf-model RNG state and
    ``bus.seq``.  From every BP write engine as it closes (before it
    drops its tables): tails, slot tables, host peaks and descriptor
    positions (``engines``) and its flush memo (``memo``).  From the
    result, what it holds of: the Darshan log (``log``), engine and
    stream profiles, breakdown totals, raw events when recorded, memory
    accounts (``mem_report``), peak host bytes and drain stats
    (``host``), and a serving fleet's ``report``.
    """
    posixes, engines, memos = [], [], []
    init, finish = PosixIO.__init__, BPEngineBase._finish

    def kept(self, *args, **kw):
        init(self, *args, **kw)
        posixes.append(self)

    def snapshot(engine):
        if engine.mode != "r":
            engines.append(_engine_state(engine))
            memos.append((engine.path, {key: canonical(d) for key, d
                                        in engine._memo.items()}))
        return finish(engine)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(PosixIO, "__init__", kept)
        m.setattr(BPEngineBase, "_finish", snapshot)
        result = run()
    facets = {
        "clocks": [canonical(p.comm.clocks) for p in posixes],
        "vfs": [{name: canonical(getattr(p.fs.vfs.cols, name))
                 for name in p.fs.vfs.cols._FIELDS} for p in posixes],
        "descriptors": [canonical((p._fd_ino, p._fd_rank, p._fd_pos,
                                   p._fd_api, p._next_fd, p._n_open))
                        for p in posixes],
        "rng": [p.fs.perf._rng.bit_generator.state for p in posixes],
        "seq": [p.trace.seq for p in posixes],
        "engines": engines,
        "memo": memos,
    }
    if getattr(result, "log", None) is not None:
        facets["log"] = canonical(result.log)
    if getattr(result, "profiles", None):
        facets["profiles"] = canonical(result.profiles)
    trace = getattr(result, "trace", None)
    if trace is not None:
        if trace.stream_profile is not None:
            facets["stream_profile"] = canonical(trace.stream_profile)
            facets["breakdown"] = canonical(trace.breakdown.totals())
        if trace.recorder is not None:
            facets["events"] = canonical(trace.events)
    if hasattr(result, "mem_report"):
        facets["mem"] = result.mem_report
    if hasattr(result, "peak_host_bytes"):
        facets["host"] = (result.peak_host_bytes, result.drain_wait_seconds,
                          result.drain_seconds)
    if getattr(result, "report", None) is not None:
        facets["report"] = canonical(result.report)
    return Observation(facets, result)


#: the census counts a reference run leaves at 0: it takes no lane
LANES = ("lane_flushes", "memo_hits", "range_events", "scalar_emits")


def observed(run, reference: bool = False):
    """``(observe(run), census)``: the run's facets and its
    :func:`lane_census`, under :func:`reference_paths` when
    ``reference`` (whose census must show no lane taken)."""
    with pytest.MonkeyPatch.context() as m:
        if reference:
            reference_paths(m)
        with lane_census() as census:
            seen = observe(run)
    took = {lane: census[lane] for lane in LANES if census[lane]}
    assert not (reference and took), f"the reference took a lane: {took}"
    return seen, census


def _difference(a, b, path="") -> str:
    """Where ``a`` and ``b`` first differ, as a path into them."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(map(str, a.keys() ^ b.keys()))}"
        for key in a:
            if a[key] != b[key]:
                return _difference(a[key], b[key], f"{path}[{key!r}]")
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: {len(a)} vs {len(b)} items"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _difference(x, y, f"{path}[{i}]")
    if isinstance(a, tuple) and a[:1] == ("array",) and a[1:3] == b[1:3]:
        x, y = (np.frombuffer(v[3], dtype=v[1]) for v in (a, b))
        i = int(np.argmax(x != y))
        return f"{path} at flat index {i}: {x[i]!r} vs {y[i]!r}"
    return f"{path}: {str(a)[:200]} vs {str(b)[:200]}"


def assert_identical(a, b) -> None:
    """Assert ``a`` and ``b`` (logs, events, profiles, states, or lists
    and dicts of them) are equal bit for bit."""
    a, b = canonical(a), canonical(b)
    assert a == b, f"differs{_difference(a, b)}"


def assert_same_accounting(log_a, log_b, fs_a, fs_b, paths) -> None:
    """Op counts, bytes and the files' vfs columns equal, element for
    element; virtual times may differ (one noise draw for a group's
    symmetric phase where a loop of single ops draws one per rank)."""
    for counter in ("POSIX_OPENS", "POSIX_WRITES", "POSIX_FSYNCS",
                    "POSIX_CLOSES", "POSIX_BYTES_WRITTEN"):
        assert_identical(log_a.counter_per_rank(counter),
                         log_b.counter_per_rank(counter))
    tables = [{f.path: (f.opens, f.writes, f.fsyncs, f.bytes_written)
               for f in log.files} for log in (log_a, log_b)]
    assert tables[0] == tables[1]
    inos_a, inos_b = fs_a.vfs.lookup_many(paths), fs_b.vfs.lookup_many(paths)
    for col in ("size", "write_ops", "bytes_written", "stripe_count"):
        assert_identical(getattr(fs_a.vfs.cols, col)[inos_a],
                         getattr(fs_b.vfs.cols, col)[inos_b])


def assert_same(a: Observation, b: Observation, leave_out=()) -> None:
    """Assert two observations agree bit for bit on every facet but the
    ``leave_out`` ones (each a name in :data:`FACETS`)."""
    unknown = set(leave_out) - set(FACETS)
    assert not unknown, f"no such facet: {sorted(unknown)}"
    assert a.keys() == b.keys(), sorted(a.keys() ^ b.keys())
    for name in FACETS:
        if name in a and name not in leave_out and a[name] != b[name]:
            raise AssertionError(
                f"facet {name!r} differs{_difference(a[name], b[name])}")


# ---------------------------------------------------------------------------
# the census


class Census(collections.Counter):
    """:func:`lane_census`'s counts by name, and ``derived``: the fresh
    derivations by engine path."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.derived = collections.Counter()


@contextmanager
def lane_census():
    """Count, while the block runs, which lane each flush and event took.

    Yields a :class:`Census` of:

    - ``lane_flushes`` / ``step_flushes``: BP flushes in a step-lane pass
      against flushes of one step;
    - ``fresh_derivations`` / ``memo_hits``: flush derivations made
      afresh against memoised uses that found their entry;
      ``blocked_derivations``: the fresh ones on the rank-blocked path;
    - ``range_events`` / ``array_events``: multi-rank events the bus
      built over a ``range`` against over an array (an event is built
      only when a subscriber wants its kind; a step batch builds none);
    - ``scalar_emits``: ``TraceBus.emit_scalar`` calls.

    Under :func:`reference_paths` the checking memo's derivations count
    as fresh.
    """
    census = Census()
    steps, step = BPEngineBase._flush_steps, BPEngineBase._flush_step
    derivation = BPEngineBase._derivation
    blocked = BPEngineBase._blocked_derivation
    derive = BPEngineBase._derive
    make_event, emit_scalar = bus_module.make_event, TraceBus.emit_scalar

    def lane(engine, d, keys, trace_steps):
        census["lane_flushes"] += len(keys)
        return steps(engine, d, keys, trace_steps)

    def one(engine, key):
        census["step_flushes"] += 1
        return step(engine, key)

    def fresh(method, *keys):
        def counted(engine, *args):
            census.update(("fresh_derivations", *keys))
            census.derived[engine.path] += 1
            return method(engine, *args)
        return counted

    def memoised(engine, memoise, derivation=None):
        before = census["fresh_derivations"]
        d = derive(engine, memoise, derivation)
        if memoise and census["fresh_derivations"] == before:
            census["memo_hits"] += 1
        return d

    def built(*args, **kw):
        event = make_event(*args, **kw)
        if event.size > 1:
            census["range_events" if event.rank_range is not None
                   else "array_events"] += 1
        return event

    def scalar(self, *args, **kw):
        census["scalar_emits"] += 1
        return emit_scalar(self, *args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(BPEngineBase, "_flush_steps", lane)
        m.setattr(BPEngineBase, "_flush_step", one)
        m.setattr(BPEngineBase, "_derivation", fresh(derivation))
        m.setattr(BPEngineBase, "_blocked_derivation",
                  fresh(blocked, "blocked_derivations"))
        m.setattr(BPEngineBase, "_derive", memoised)
        m.setattr(bus_module, "make_event", built)
        m.setattr(TraceBus, "emit_scalar", scalar)
        yield census


# ---------------------------------------------------------------------------
# recovered = fault-free: the final particle state of functional runs


def final_state(sim) -> list:
    """Every rank's particle arrays at the end of a functional run, as
    plain data (``==`` compares them bit for bit)."""
    return canonical([sim.state_arrays(r) for r in range(len(sim.particles))])


def crash_stack(mode=None):
    """A fresh 4-rank / 2-node machine on the dardel filesystem:
    ``(fs, comm, posix, session)``."""
    fs = mount(dardel().storage_named("lfs"))
    comm = VirtualComm(4, 2)
    session = TraceSession(comm, mode=mode)
    return fs, comm, PosixIO(fs, comm, trace=session.bus), session


def crash_config(**overrides):
    """The small use case the functional recovery tests run."""
    return small_use_case(**{**dict(ncells=32, particles_per_cell=10,
                                    last_step=40, datfile=20, dmpstep=20),
                             **overrides})


_FAULT_FREE: dict = {}


def fault_free_state(writer: str, config=None) -> list:
    """The fault-free run's final state per writer and config (computed
    once per session)."""
    key = (writer, repr(config))
    if key not in _FAULT_FREE:
        _, comm, posix, _ = crash_stack()
        rep = run_crash_restart(config or crash_config(), comm, posix,
                                "/out", writer=writer)
        assert rep.crashes == 0 and rep.restarts == 0
        _FAULT_FREE[key] = final_state(rep.sim)
    return _FAULT_FREE[key]

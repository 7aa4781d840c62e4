"""Tests for the repro.trace event spine.

Three properties anchor the refactor:

* determinism — a seeded run emits a bit-identical event stream;
* counter equivalence — the Darshan counters and engine profiles folded
  from events match the pre-spine golden values (Fig. 2 / Fig. 8
  presets, captured before the refactor);
* export round-trips — Chrome trace_event JSON is valid and per-rank
  monotonic, DXT text parses.
"""

import json

import numpy as np
import pytest

from repro.adios2.profiling import EngineProfile
from repro.cluster.presets import dardel
from repro.darshan.runtime import DarshanMonitor
from repro.fs import PosixIO, mount
from repro.mpi.comm import VirtualComm
from repro.trace import (
    EVENT_KINDS,
    TraceBus,
    TraceSession,
    chrome_trace,
    layer_breakdown,
    make_event,
)
from repro.workloads.runner import run_openpmd_scaled, run_original_scaled

# -- golden values captured on the pre-spine implementation (seed=0) -----

FIG2_GOLDEN = {
    "POSIX_OPENS": 257.0,
    "POSIX_WRITES": 1.0,
    "POSIX_FSYNCS": 0.0,
    "POSIX_BYTES_WRITTEN": 3072.0,
    "POSIX_BYTES_READ": 509202176.0,
    "POSIX_F_WRITE_TIME": 0.0005958145275529969,
    "POSIX_F_META_TIME": 0.27059327631350666,
    "STDIO_OPENS": 61958.0,
    "STDIO_WRITES": 1285601.0,
    "STDIO_FSYNCS": 1228800.0,
    "STDIO_BYTES_WRITTEN": 10042366720.0,
    "STDIO_BYTES_READ": 0.0,
    "STDIO_F_WRITE_TIME": 803.5146417871122,
    "STDIO_F_META_TIME": 14171.84712132937,
}
FIG2_GOLDEN_MAX_TIME = 58.65766512624538

# re-pinned after the aggregation node-locality fix: intra-node shuffle
# legs now run at shared-memory bandwidth and cross-node senders observe
# their node's serialised NIC egress, which moves the aggregation
# profile category, the makespan, and (via profiling.json's timing
# strings, 3 bytes shorter) the POSIX byte/write-time totals
FIG8_GOLDEN_POSIX = {
    "POSIX_OPENS": 265.0,
    "POSIX_WRITES": 10409.0,
    "POSIX_BYTES_WRITTEN": 10177954593.0,
    "POSIX_F_WRITE_TIME": 17.40150284578758,
    "POSIX_F_META_TIME": 0.2851917575019039,
}
FIG8_GOLDEN_DIAG = {"memcpy": 1182.7199999999962, "compress": 0.0,
                    "aggregation": 73466.5483002663,
                    "write": 87145.03388531267, "meta": 0.0}
FIG8_GOLDEN_CKPT = {"memcpy": 1271039.3599999999, "compress": 0.0,
                    "aggregation": 24484028.955479138,
                    "write": 17148468.525611132, "meta": 0.0}
FIG8_GOLDEN_BYTES_PUT = {"diag": 9461760.0, "ckpt": 10168314880.0}
FIG8_GOLDEN_MAX_TIME = 17.655441058484556

RTOL = 1e-12


def _event_signature(e):
    return (e.kind, e.layer, e.api, e.seq, e.scope, e.step,
            np.asarray(e.n_ops).tolist(), e.ranks.tolist(),
            e.nbytes.tolist(), e.duration.tolist(), e.start.tolist())


# -- unit level ----------------------------------------------------------

class TestEventsAndBus:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            make_event("teleport", np.array([0]))

    def test_broadcast_fields(self):
        e = make_event("write", np.arange(4), nbytes=100, duration=0.5)
        assert e.nbytes.tolist() == [100] * 4
        assert e.total_bytes == 400
        assert e.total_seconds == pytest.approx(2.0)
        assert np.allclose(e.end, 0.5)

    def test_kind_filtering(self):
        bus = TraceBus()

        class Only:
            kinds = frozenset({"fsync"})
            seen = []

            def on_event(self, e):
                self.seen.append(e.kind)

        sub = bus.subscribe(Only())
        bus.emit("write", np.array([0]), nbytes=8, duration=0.1)
        bus.emit("fsync", np.array([0]), duration=0.2)
        assert sub.seen == ["fsync"]
        # with only narrow subscribers the bus declines other kinds
        assert bus.wants("fsync")
        assert not bus.wants("read")

    def test_unwanted_kind_not_materialised(self):
        bus = TraceBus()
        assert bus.emit("write", np.array([0]), nbytes=1) is None
        assert bus.seq == 0

    def test_scope_and_step_nesting(self):
        bus = TraceBus()
        rec = bus.subscribe(type("R", (), {
            "kinds": None, "events": [],
            "on_event": lambda self, e: self.events.append(e)})())
        with bus.scope("outer"):
            with bus.step(7):
                bus.emit("open", np.array([0]))
                with bus.scope("inner"):
                    bus.emit("close", np.array([0]))
            bus.emit("stat", np.array([0]))
        e_open, e_close, e_stat = rec.events
        assert (e_open.scope, e_open.step) == ("outer", 7)
        assert (e_close.scope, e_close.step) == ("inner", 7)
        assert (e_stat.scope, e_stat.step) == ("outer", None)

    def test_registry_replay_to_late_subscriber(self):
        bus = TraceBus()
        bus.register_files(np.array([3, 4]), ["/a", "/b"])

        class Sub:
            kinds = frozenset()
            files = {}

            def on_event(self, e):
                pass

            def register_file(self, ino, path):
                self.files[ino] = path

        sub = bus.subscribe(Sub())
        assert sub.files == {3: "/a", 4: "/b"}
        assert bus.path_of(3) == "/a"

    def test_monitor_needs_on_event(self):
        class RecordOnly:  # the pre-spine monitor protocol
            def record(self, kind, ranks, nbytes, seconds, api):
                pass

        fs = mount(dardel().storage_named("lfs"))
        with pytest.raises(TypeError, match="on_event"):
            PosixIO(fs, VirtualComm(2, 2), RecordOnly())

    def test_session_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TraceSession(VirtualComm(2, 2), mode="verbose")


# -- determinism ---------------------------------------------------------

class TestDeterminism:
    def test_seeded_runs_emit_identical_streams(self):
        runs = [run_original_scaled(dardel(), 1, seed=3, trace_mode="full")
                for _ in range(2)]
        sig_a = [_event_signature(e) for e in runs[0].trace.events]
        sig_b = [_event_signature(e) for e in runs[1].trace.events]
        assert len(sig_a) > 0
        assert sig_a == sig_b

    def test_different_seed_differs(self):
        a = run_original_scaled(dardel(), 1, seed=3, trace_mode="full")
        b = run_original_scaled(dardel(), 1, seed=4, trace_mode="full")
        assert ([_event_signature(e) for e in a.trace.events]
                != [_event_signature(e) for e in b.trace.events])


# -- counter equivalence: Fig. 2 preset ----------------------------------

class TestFig2Equivalence:
    @pytest.fixture(scope="class")
    def run(self):
        return run_original_scaled(dardel(), 2, seed=0, trace_mode="full")

    def test_nothing_dropped(self, run):
        assert run.trace.recorder.dropped == 0

    def test_darshan_counters_match_pre_spine_goldens(self, run):
        for name, want in FIG2_GOLDEN.items():
            got = run.log.counter_total(name)
            assert np.isclose(got, want, rtol=RTOL), (name, got, want)
        assert np.isclose(run.comm.max_time(), FIG2_GOLDEN_MAX_TIME,
                          rtol=RTOL)

    def test_offline_refold_reproduces_counters(self, run):
        """A fresh monitor fed only the event stream matches the live one."""
        fresh = DarshanMonitor(run.nranks, exe="refold")
        for ino, path in run.trace.paths.items():
            fresh.register_file(ino, path)
        for event in run.trace.events:
            fresh.on_event(event)
        log = fresh.finalize(runtime_seconds=run.comm.max_time())
        for name, want in FIG2_GOLDEN.items():
            assert np.isclose(log.counter_total(name), want, rtol=RTOL), name

    def test_chrome_trace_round_trip(self, run):
        doc = json.loads(run.trace.chrome_trace_json())
        slices = doc["traceEvents"]
        assert slices and doc["metadata"]["producer"] == "repro.trace"
        per_rank_ts = {}
        for s in slices:
            assert s["ph"] == "X"
            assert s["name"] in EVENT_KINDS
            assert s["dur"] >= 0
            per_rank_ts.setdefault(s["tid"], []).append(s["ts"])
            # pid is the node of the rank (128 ranks/node here)
            assert s["pid"] == s["tid"] // 128
        for tid, ts in per_rank_ts.items():
            diffs = np.diff(np.asarray(ts))
            assert (diffs >= -1e-6).all(), f"rank {tid} ts not monotonic"

    def test_dxt_dump_parses(self, run):
        lines = run.trace.dxt_text().splitlines()
        assert lines
        for line in lines:
            api, rank, op, path, nbytes, start, end = line.split()
            assert api.startswith("DXT_")
            assert op in ("write", "read")
            assert path.startswith("/")
            assert int(nbytes) >= 0
            assert float(end) >= float(start) >= 0.0
            # per-rank group events must label each segment with the
            # participant's own file, not the first rank's
            if "bit1_r" in path:
                assert path.endswith(f"bit1_r{int(rank):05d}.dat") or \
                    path.endswith(f"bit1_r{int(rank):05d}.dmp"), line

    def test_breakdown_covers_all_layers(self, run):
        text = run.trace.render_breakdown()
        for layer in ("stdio", "posix", "mpi"):
            assert layer in text
        per_layer = layer_breakdown(run.trace.events).layer_seconds()
        assert per_layer["stdio"] > per_layer["posix"]


# -- counter equivalence: Fig. 8 preset ----------------------------------

class TestFig8Equivalence:
    @pytest.fixture(scope="class")
    def run(self):
        return run_openpmd_scaled(dardel(), 2, num_aggregators=1,
                                  profiling=True, seed=0, trace_mode="full")

    def test_posix_counters_match_pre_spine_goldens(self, run):
        for name, want in FIG8_GOLDEN_POSIX.items():
            got = run.log.counter_total(name)
            assert np.isclose(got, want, rtol=RTOL), (name, got, want)
        assert np.isclose(run.comm.max_time(), FIG8_GOLDEN_MAX_TIME,
                          rtol=RTOL)

    def test_engine_profiles_match_pre_spine_goldens(self, run):
        diag, ckpt = run.profiles
        for cat, want in FIG8_GOLDEN_DIAG.items():
            assert np.isclose(diag.total_us(cat), want, rtol=RTOL), cat
        for cat, want in FIG8_GOLDEN_CKPT.items():
            assert np.isclose(ckpt.total_us(cat), want, rtol=RTOL), cat
        assert np.isclose(diag.bytes_put.sum(),
                          FIG8_GOLDEN_BYTES_PUT["diag"], rtol=RTOL)
        assert np.isclose(ckpt.bytes_put.sum(),
                          FIG8_GOLDEN_BYTES_PUT["ckpt"], rtol=RTOL)

    def test_profiles_refold_from_event_stream_alone(self, run):
        """EngineProfile.from_events per scope == the engines' live folds."""
        for profile, stem in zip(run.profiles, ("dat_file", "dmp_file")):
            scope = f"BP4:{run.outdir}/{stem}.bp4"
            refold = EngineProfile.from_events(run.trace.events, run.nranks,
                                               scope=scope)
            for cat in ("memcpy", "compress", "aggregation", "write", "meta"):
                assert np.isclose(refold.total_us(cat), profile.total_us(cat),
                                  rtol=RTOL), (stem, cat)
            assert np.allclose(refold.bytes_put, profile.bytes_put, rtol=RTOL)

    def test_stream_profile_sums_both_engines(self, run):
        diag, ckpt = run.profiles
        sp = run.trace.stream_profile
        for cat in ("memcpy", "compress", "aggregation"):
            assert np.isclose(sp.total_us(cat),
                              diag.total_us(cat) + ckpt.total_us(cat),
                              rtol=1e-9)

    def test_compression_run_eliminates_memcpy_in_stream(self):
        run = run_openpmd_scaled(dardel(), 2, num_aggregators=1,
                                 compressor="blosc", profiling=True, seed=0,
                                 trace_mode="summary")
        sp = run.trace.stream_profile
        assert sp.total_us("memcpy") == 0.0
        assert sp.total_us("compress") > 0.0
        # summary mode keeps no raw events but still renders a breakdown
        assert run.trace.events == []
        assert "engine" in run.trace.render_breakdown()

    def test_step_attribution_present(self, run):
        steps = {e.step for e in run.trace.events if e.step is not None}
        assert len(steps) > 100  # one per diagnostic event step


# -- export helpers on synthetic streams ---------------------------------

class TestExport:
    def test_chrome_trace_caps_and_counts_drops(self):
        events = [make_event("write", np.arange(4), nbytes=1, duration=0.1)
                  for _ in range(10)]
        doc = chrome_trace(events, max_events=12)
        assert len(doc["traceEvents"]) == 12
        assert doc["metadata"]["dropped_slices"] == 4 * 10 - 12

"""Tests of the benchmark harness: ``python -m pytest bench``.

The span, reducer and verdict tests run in-process without importing
the simulator; the smoke test runs ``python -m bench --quick`` end to
end (every workload, every check) in child interpreters.
"""

import json
import re
import types

import pytest

from bench import harness, spans
from bench.child import judge


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def _spanned(tracer, clock, layer, work, inner=None):
    """A wrapped function in ``layer`` that spends ``work`` seconds
    before (and after) calling ``inner``."""

    def fn():
        clock.tick(work)
        if inner is not None:
            inner()
        clock.tick(work)

    return tracer.wrap(fn, layer)


class TestSpans:
    def test_nested_self_time(self):
        clock = FakeClock()
        t = spans.Tracer(clock)
        leaf = _spanned(t, clock, "fs.posix", 1.0)
        root = _spanned(t, clock, "workloads", 2.0, leaf)
        root()
        snap = t.snapshot()
        assert snap["calls"]["workloads"] == 1
        assert snap["calls"]["fs.posix"] == 1
        assert snap["self_s"]["workloads"] == pytest.approx(4.0)
        assert snap["self_s"]["fs.posix"] == pytest.approx(2.0)
        assert snap["edges"] == {"->workloads": 6.0,
                                 "workloads>fs.posix": 2.0}

    def test_same_layer_calls_fold_into_outermost_span(self):
        clock = FakeClock()
        t = spans.Tracer(clock)
        inner = _spanned(t, clock, "fs.posix", 1.0)
        outer = _spanned(t, clock, "fs.posix", 1.0, inner)
        outer()
        assert t.calls["fs.posix"] == 1
        assert t.self_s["fs.posix"] == pytest.approx(4.0)

    def test_reentrant_visit_opens_a_nested_span(self):
        # posix -> trace -> posix: the inner posix visit is a child of
        # trace, so trace's self time excludes it
        clock = FakeClock()
        t = spans.Tracer(clock)
        again = _spanned(t, clock, "fs.posix", 1.0)
        bus = _spanned(t, clock, "trace", 0.5, again)
        posix = _spanned(t, clock, "fs.posix", 2.0, bus)
        posix()
        assert t.calls["fs.posix"] == 2 and t.calls["trace"] == 1
        assert t.self_s["trace"] == pytest.approx(1.0)
        assert t.self_s["fs.posix"] == pytest.approx(4.0 + 2.0)
        assert sum(t.self_s.values()) == pytest.approx(7.0)

    def test_exception_closes_the_span(self):
        clock = FakeClock()
        t = spans.Tracer(clock)

        def boom():
            clock.tick(1.0)
            raise ValueError("x")

        with pytest.raises(ValueError):
            t.wrap(boom, "faults")()
        assert t._stack == []
        assert t.self_s["faults"] == pytest.approx(1.0)

    def test_layer_of_takes_longest_prefix(self):
        assert spans.layer_of("repro.fs.posix") == "fs.posix"
        assert spans.layer_of("repro.fs.vfs") == "fs.vfs"
        assert spans.layer_of("repro.fs") == "fs.vfs"
        assert spans.layer_of("repro.experiments.sweep") == "sweep"
        assert spans.layer_of("repro.experiments.fig8") == "workloads"
        assert spans.layer_of("repro.adios2.aggregation") == \
            "adios2.aggregation"
        assert spans.layer_of("repro.adios2.bp4") == "adios2.engine"
        assert spans.layer_of("repro.cluster.presets") is None
        assert spans.layer_of("repro.fsx") is None

    def test_install_wraps_and_rebinds(self):
        comm = types.ModuleType("repro.mpi.fake")

        def allreduce(x):
            return x + 1

        class Comm:
            def __init__(self):
                self.n = 0

            def barrier(self):
                return allreduce(self.n)

            @staticmethod
            def size():
                return 4

            def _private(self):
                return "p"

        for obj in (allreduce, Comm):
            obj.__module__ = comm.__name__
            setattr(comm, obj.__name__, obj)
        user = types.ModuleType("bench.fake_user")
        user.allreduce = allreduce
        other = types.ModuleType("elsewhere")
        other.allreduce = allreduce
        mods = {m.__name__: m for m in (comm, user, other)}

        t = spans.Tracer()
        assert spans.install(t, mods) == 4  # fn, __init__, barrier, size
        assert getattr(user.allreduce, "__bench_layer__") == "mpi"
        assert comm.allreduce is user.allreduce
        assert other.allreduce is allreduce  # outside repro/bench
        assert Comm().barrier() == 1 and Comm.size() == 4
        assert Comm()._private() == "p"
        assert t.calls["mpi"] == 4  # 2x __init__, barrier, size
        assert spans.install(t, mods) == 0  # never wraps twice


class TestReducers:
    def test_min_of_rounds(self):
        ops = [{"name": "a", "seconds": [3.0, 1.0, 2.0]},
               {"name": "b", "seconds": [0.5, 0.7, 0.6]},
               {"name": "c", "seconds": [4.0, 5.0, 4.5]}]
        assert harness.per_op_min(ops) == [1.0, 0.5, 4.0]
        m = harness.end_to_end({"ops": ops, "peak_rss_mb": 10.0},
                               [0.9, 0.7, 0.8])
        assert m == {"wall_s": 5.5, "op_p50_s": 1.0, "setup_s": 0.8,
                     "peak_rss_mb": 10.0}

    def test_judge_flags_raised_drifting_and_bad_gib_ops(self):
        def rec(name, result=None, error=None):
            return types.SimpleNamespace(name=name, result=result,
                                         error=error, seconds=1.0)

        good = [rec("a", {"gib": 1.5}), rec("b", {"x": [1, 2]})]
        assert judge([good, list(good)], lambda r: []) == (4, 0, [])
        drift = [rec("a", {"gib": 1.5}), rec("b", {"x": [1, 3]})]
        attempted, failed, msgs = judge([good, drift], lambda r: [])
        assert (attempted, failed) == (4, 1)
        assert "round 1 op b: result differs" in msgs[0]
        bad = [rec("a", {"nested": {"gib": float("nan")}}),
               rec("b", error="Traceback ...")]
        attempted, failed, _ = judge([bad], lambda r: ["check"])
        assert (attempted, failed) == (2, 2)  # capped at attempted


class TestVerdicts:
    base = [1.00, 1.01, 0.99, 1.00, 1.02]

    def test_unchanged_within_bound(self):
        v, delta = harness.verdict(self.base, [1.03, 1.04, 1.02, 1.03, 1.05],
                                   0.10)
        assert v == "unchanged" and delta == pytest.approx(0.03)

    def test_worse_beyond_bound(self):
        v, _ = harness.verdict(self.base, [1.2, 1.21, 1.19, 1.2, 1.22], 0.10)
        assert v == "worse"

    def test_improved_beyond_base_spread(self):
        v, delta = harness.verdict(self.base, [0.8, 0.81, 0.79, 0.8, 0.82],
                                   0.10)
        assert v == "improved" and delta < 0

    def test_higher_is_better(self):
        v, _ = harness.verdict(self.base, [0.8, 0.81, 0.79, 0.8, 0.82],
                               0.10, better="higher")
        assert v == "worse"

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [0.7, 1.3, 0.9, 1.2, 1.0]
        assert harness.verdict(self.base, noisy, 0.10)[0] == "unresolved"

    def test_wide_spread_but_every_run_better(self):
        fast = [0.5, 0.7, 0.6, 0.9, 0.55]
        assert harness.verdict(self.base, fast, 0.10)[0] == "improved"

    def test_any_increase_from_zero_is_worse(self):
        assert harness.verdict([0.0, 0.0], [0.0, 0.1], 0.0)[0] == "worse"
        assert harness.verdict([0.0, 0.0], [0.0, 0.0], 0.0)[0] == "unchanged"

    def test_compare_snapshot_directories(self, tmp_path):
        spec = harness.load_spec()
        for side, scale in (("a", 1.0), ("b", 1.5)):
            (tmp_path / side).mkdir()
            for i in range(3):
                metrics = {m["name"]: scale * (1.0 + 0.001 * i)
                           for m in spec["end_to_end"]}
                snap = {"end_to_end": {"workloads": {"paper_figs": {
                    "metrics": metrics, "failed_frac": 0.0}}}}
                (tmp_path / side / f"{i}.json").write_text(json.dumps(snap))
        text, any_worse = harness.compare(str(tmp_path / "a"),
                                          str(tmp_path / "b"), spec)
        assert any_worse
        rows = [line for line in text.splitlines()
                if line.startswith("paper_figs")]
        assert len(rows) == len(spec["end_to_end"]) + 1
        assert all(r.endswith("worse") for r in rows[:-1])
        assert rows[-1].split()[1] == "failed_frac"
        assert rows[-1].endswith("unchanged")


class TestSpec:
    spec = harness.load_spec()

    def test_shape(self):
        assert set(self.spec) == {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"}
        names = [m["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for m in self.spec[key]]
        assert len(names) == len(set(names))
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
                   for n in names)
        assert all(0 < m["bound"] <= 0.25 for m in self.spec["end_to_end"])
        setup = next(m for m in self.spec["end_to_end"]
                     if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"]
                                     for m in self.spec["end_to_end"])

    def test_every_layer_is_reported(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        for layer in spans.LAYERS:
            assert {f"{layer}.calls", f"{layer}.self_s"} <= names


def test_quick_smoke_passes_every_check(capsys):
    """All five workloads, every check, in child interpreters."""
    assert harness.main(["--quick"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert summary["correct"] and summary["failed"] == 0
    names = [w["name"] for w in harness.load_spec()["workloads"]]
    assert sorted(summary["metrics"]) == sorted(names)
    for metrics in summary["metrics"].values():
        assert all(m["value"] > 0 for m in metrics.values())


def test_quick_trace_reports_every_layer_metric(capsys):
    assert harness.main(["--quick", "--trace",
                         "--workload", "paper_figs"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = harness.load_spec()
    assert set(summary["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in summary["metrics"].items()}
    elapsed = m["unattributed_s"] + sum(v for k, v in m.items()
                                        if k.endswith(".self_s"))
    assert 0 <= m["unattributed_s"] <= 0.05 * elapsed
    assert m["darshan.bytes_written"] > 0

"""Tests for the experiment drivers (reduced sweeps; the full sweeps run,
write and check results/ in ``python -m repro.experiments``)."""

from pathlib import Path

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.experiments import (
    run_agg_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table2,
)
from repro.experiments.common import ExperimentResult, SeriesResult, subset
from repro.experiments.paper_data import NODE_COUNTS, TABLE2
from repro.experiments.points import openpmd_profile, openpmd_report
from repro.util.units import MiB

QUICK_NODES = (1, 10, 50)
RESULTS = Path(__file__).resolve().parent.parent / "results"


class TestCommon:
    def test_series_peak(self):
        s = SeriesResult("x", [1, 2, 3], [1.0, 9.0, 2.0])
        assert s.peak() == (2, 9.0)
        assert s.y_at(3) == 2.0

    def test_experiment_table_render(self):
        r = ExperimentResult("demo", "n")
        r.series.append(SeriesResult("a", [1, 2], [0.5, 1.5]))
        r.notes.append("hello")
        out = r.render()
        assert "demo" in out and "note: hello" in out

    def test_get_unknown_series(self):
        r = ExperimentResult("demo", "n")
        with pytest.raises(KeyError):
            r.get("missing")

    def test_subset(self):
        assert subset((1, 2, 3, 4, 5), quick=True) == (1, 3, 5)
        assert subset((1, 2), quick=True) == (1, 2)
        assert subset((1, 2, 3), quick=False) == (1, 2, 3)


class TestFig2:
    def test_three_machines(self):
        res = run_fig2(node_counts=(1, 20))
        labels = [s.label for s in res.series]
        assert labels == ["Discoverer", "Dardel", "Vega"]
        for s in res.series:
            assert len(s.ys) == 2
            assert all(v > 0 for v in s.ys)

    def test_render_mentions_anchors(self):
        res = run_fig2(node_counts=(1,))
        assert any("paper anchors" in n for n in res.notes)


class TestFig3:
    def test_bp4_beats_original_everywhere(self):
        res = run_fig3(node_counts=QUICK_NODES)
        orig = res.get("BIT1 Original I/O")
        bp4 = res.get("BIT1 openPMD + BP4")
        for n in QUICK_NODES:
            assert bp4.y_at(n) > orig.y_at(n)


class TestFig4:
    def test_four_series(self):
        res = run_fig4(node_counts=(1, 10))
        assert {s.label for s in res.series} == {
            "BIT1 Original I/O", "BIT1 openPMD + BP4",
            "IOR FilePerProc", "IOR Shared"}

    def test_original_least_competitive_at_scale(self):
        res = run_fig4(node_counts=(10,))
        vals = {s.label: s.y_at(10) for s in res.series}
        assert vals["BIT1 Original I/O"] == min(vals.values())


class TestFig5:
    def test_reductions(self):
        r = run_fig5(nodes=50)
        assert r.meta_reduction > 0.99
        assert r.write_reduction > 0.9
        out = r.render()
        assert "metadata reduction" in out

    def test_normalized_table_contains_paper_columns(self):
        r = run_fig5(nodes=50)
        text = r.to_table().render()
        assert "paper original" in text


class TestFig6:
    def test_peak_interior(self):
        res = run_fig6(aggregators=(1, 100, 400, 6400, 25600))
        s = res.series[0]
        peak_x, _ = s.peak()
        assert peak_x in (100, 400)
        assert s.y_at(25600) > s.y_at(1)


class TestFig7:
    def test_three_series_present(self):
        res = run_fig7(node_counts=(1, 40))
        assert len(res.series) == 3

    def test_compressed_slightly_below_uncompressed(self):
        res = run_fig7(node_counts=(1,))
        plain = res.get("openPMD+BP4 + 1 AGGR").y_at(1)
        blosc = res.get("openPMD+BP4 + Blosc + 1 AGGR").y_at(1)
        # throughput counts written (compressed) bytes over similar time
        assert blosc <= plain * 1.05


class TestFig8:
    def test_memcpy_eliminated(self):
        r = run_fig8(nodes=20)
        assert r.memcpy_eliminated
        assert r.memcpy_us_uncompressed > 0
        assert r.compress_us_compressed > 0
        assert r.compress_us_uncompressed == 0
        assert "True (paper: True)" in r.render()


class TestOpenPMDReport:
    #: what every openPMD report carries
    BASE = {"gib", "split", "files", "seconds_per_write", "makespan",
            "aggregation_s", "peak_host_bytes", "drain_wait_s"}

    def test_profile_is_the_report_with_its_preset(self):
        profile = openpmd_profile(dardel(), 1, compressor="blosc", seed=1)
        assert profile == openpmd_report(
            dardel(), 1, num_aggregators=1, compressor="blosc",
            profiling=True, trace_mode="summary", seed=1)
        # a summary trace adds the Fig. 8 section
        assert set(profile) == self.BASE | {"memcpy_us", "compress_us",
                                            "breakdown"}
        assert profile["compress_us"] > 0 and profile["memcpy_us"] == 0


class TestFig9:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_fig9(stripe_sizes=(1 * MiB, 4 * MiB, 16 * MiB),
                        stripe_counts=(1, 8), nodes=50)

    def test_grid_shape(self, grid):
        assert grid.seconds.shape == (3, 2)
        assert np.all(grid.seconds > 0)

    def test_smaller_stripes_cheaper_per_op(self, grid):
        # "Smaller Lustre stripe sizes tend to yield better performance"
        assert grid.at(1 * MiB, 1) < grid.at(16 * MiB, 1)

    def test_values_in_paper_band(self, grid):
        # paper's values sit at a few milliseconds per write op
        assert 1e-4 < grid.seconds.min() < grid.seconds.max() < 0.1

    def test_render_mentions_best(self, grid):
        assert "best:" in grid.render()


class TestTable2:
    @pytest.fixture(scope="class")
    def census(self):
        return run_table2(node_counts=(1, 10),
                          configs=("original", "bp4_default", "bp4_1aggr"))

    def test_exact_file_counts(self, census):
        assert census.stats["original"][1].total_files == TABLE2["original"]["files"][1]
        assert census.stats["original"][10].total_files == 2566
        assert census.stats["bp4_default"][10].total_files == 15
        assert census.stats["bp4_1aggr"][10].total_files == 6

    def test_sizes_close_to_paper(self, census):
        avg = census.stats["bp4_1aggr"][10].avg_size_bytes
        assert avg == pytest.approx(TABLE2["bp4_1aggr"]["avg"][10], rel=0.05)

    def test_render_includes_paper_rows(self, census):
        assert "paper files" in census.render()

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            run_table2(node_counts=(1,), configs=("mystery",))


class TestAggSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_agg_sweep(quick=True, seed=0)

    def test_all_cells_present(self, result):
        # engines × aggregator counts × drain modes
        assert len(result.rows) == 2 * 3 * 2

    def test_bp5_aggregation_optimum_distinct_from_bp4(self, result):
        # one-level BP4 keeps getting cheaper with more funnels; the
        # two-level BP5 shuffle pays per extra aggregator per node and
        # turns back up — the optima differ
        bp4 = sorted((r for r in result.rows
                      if r.engine == ".bp4" and not r.async_drain),
                     key=lambda r: r.aggs_per_node)
        assert bp4[-1].aggregation_s <= bp4[0].aggregation_s
        assert (result.aggregation_optimum(".bp5")
                != result.aggregation_optimum(".bp4"))
        assert (result.aggregation_optimum(".bp5")
                < max(r.aggs_per_node for r in result.rows))

    def test_throughput_optimum_engine_independent(self, result):
        # where the filesystem saturates does not depend on how the
        # bytes were funnelled to the subfiles
        assert (result.throughput_optimum(".bp4")
                == result.throughput_optimum(".bp5"))

    def test_async_drain_never_slower(self, result):
        sync = {(r.engine, r.num_aggregators): r.makespan_s
                for r in result.rows if not r.async_drain}
        for r in result.rows:
            if r.async_drain:
                assert r.makespan_s <= sync[(r.engine, r.num_aggregators)]

    def test_render_names_both_engines(self, result):
        out = result.render()
        assert "bp4:" in out and "bp5:" in out


class TestCommandLine:
    def test_quick_sweep_writes_no_artifact(self, tmp_path, monkeypatch,
                                            capsys):
        """A quick smoke leaves the committed full-sweep artifacts alone:
        run from an empty directory, it creates no ``results/``."""
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_SWEEP_CACHE", "")
        monkeypatch.chdir(tmp_path)
        assert main(["--quick", "resilience_ml", "fig8"]) == 0
        assert "artifact written" not in capsys.readouterr().out
        assert not (tmp_path / "results").exists()

    def test_outputs_name_every_results_file_once(self):
        """One experiment per results/ file and per REPORT.md section."""
        from repro.experiments.__main__ import ALL, OUTPUTS
        from repro.experiments.report import SECTIONS

        assert sorted(OUTPUTS.values()) == sorted(
            p.name for p in RESULTS.iterdir()
            if p.is_file() and p.name != "REPORT.md")
        assert set(OUTPUTS) <= set(ALL)
        assert {f"{s[0]}.txt" for s in SECTIONS} <= set(OUTPUTS.values())

    def test_full_run_writes_checks_and_can_fail(self, tmp_path,
                                                 monkeypatch, capsys):
        """A full run writes its table and REPORT.md, even past a check
        that fails: it prints the failure and returns 1."""
        from repro.experiments import checks
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_SWEEP_CACHE", "")
        monkeypatch.chdir(tmp_path)
        table = tmp_path / "results" / "table3_listing1.txt"
        report = tmp_path / "results" / "REPORT.md"
        assert main(["table3_listing1"]) == 0
        assert table.read_text() == \
            (RESULTS / "table3_listing1.txt").read_text()
        assert table.read_text().rstrip() in report.read_text()
        for path in (table, report):
            path.unlink()
        monkeypatch.setattr(checks, "table3_listing1",
                            lambda result: ["stripe count"])
        assert main(["table3_listing1"]) == 1
        assert "CHECK FAILED table3_listing1: stripe" in capsys.readouterr().out
        assert table.exists() and report.exists()

    @pytest.mark.parametrize("name", ["gpu", "serving"])
    def test_failed_acceptance_cell_fails_the_run(self, name, monkeypatch,
                                                  capsys):
        """The GPU and serving drivers judge their own cells; a failing
        cell fails the results run like any other check."""
        import repro.experiments.__main__ as cli
        from repro.experiments.gpu import GpuResult
        from repro.experiments.serving import ServingResult

        cells = {"crossover": {"pass": False, "winners": {"2": "host"}},
                 "host_staging_stalls": {"pass": True}}
        result = (GpuResult("M", 2, 16, 64, "bp5", 0, checks=cells)
                  if name == "gpu" else
                  ServingResult("M", 1.0, 8, 2, 4, 0, checks=cells))
        monkeypatch.setattr(cli, f"run_{name}", lambda **kw: result)
        assert cli.main([name]) == 1
        out = capsys.readouterr().out
        assert f"CHECK FAILED {name}: crossover: " in out
        assert out.count("CHECK FAILED") == 1

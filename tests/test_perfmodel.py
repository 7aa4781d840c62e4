"""Tests for the storage performance model — the mechanisms behind every
throughput figure.  These check *structural* properties (monotonicity,
saturation, peak existence); the numeric anchor checks against the
paper live in test_calibration.py.
"""

import numpy as np
import pytest

from repro.cluster.machine import StorageSystem, StorageTuning
from repro.cluster.presets import dardel
from repro.fs.perfmodel import StoragePerfModel
from repro.util.units import GiB, MiB


@pytest.fixture
def model():
    return StoragePerfModel(dardel().storage_named("lfs"))


@pytest.fixture
def quiet_model():
    sys_ = StorageSystem(name="t", kind="lustre", capacity_bytes=1e15,
                         num_osts=48, tuning=StorageTuning(noise_sigma=0.0))
    return StoragePerfModel(sys_)


class TestQueueShapes:
    def test_interleave_no_penalty_single_stream(self, quiet_model):
        assert quiet_model.interleave_factor(1.0) == 1.0

    def test_interleave_monotone_decreasing(self, quiet_model):
        ks = np.array([1, 2, 8, 64, 512])
        f = quiet_model.interleave_factor(ks)
        assert np.all(np.diff(f) < 0)

    def test_write_queue_grows(self, quiet_model):
        assert quiet_model.write_queue_factor(100) > quiet_model.write_queue_factor(1)

    def test_sync_queue_grows_superlinearly_relative(self, quiet_model):
        # doubling writers more than doubles the *excess* queue term
        t = quiet_model.tuning
        q1 = quiet_model.sync_queue_factor(100) - 1
        q2 = quiet_model.sync_queue_factor(200) - 1
        assert q2 / q1 == pytest.approx(2 ** t.sync_gamma, rel=1e-9)

    def test_writers_per_ost(self, quiet_model):
        assert quiet_model.writers_per_ost(48, 1) == 1.0
        assert quiet_model.writers_per_ost(48, 2) == 2.0


class TestMetadata:
    def test_more_clients_cost_more(self, quiet_model):
        c1 = quiet_model.metadata_op_cost(1)
        c2 = quiet_model.metadata_op_cost(25600)
        assert c2 > c1

    def test_n_ops_scales_linearly(self, quiet_model):
        one = quiet_model.metadata_op_cost(128, 1)
        ten = quiet_model.metadata_op_cost(128, 10)
        assert ten == pytest.approx(10 * one)

    def test_fsync_costs_more_than_mdop(self, quiet_model):
        # an fsync commits data; it dwarfs a namespace op
        assert quiet_model.fsync_cost(128) > quiet_model.metadata_op_cost(128)


class TestDataPlane:
    def test_share_capped_by_client_stream(self, quiet_model):
        t = quiet_model.tuning
        assert quiet_model.per_writer_share(1, 1) <= t.client_stream_bandwidth

    def test_share_shrinks_with_writers(self, quiet_model):
        a = quiet_model.per_writer_share(48)
        b = quiet_model.per_writer_share(4800)
        assert b < a

    def test_write_cost_increases_with_bytes(self, quiet_model):
        c1 = quiet_model.write_op_cost(1 * MiB, 128)
        c2 = quiet_model.write_op_cost(64 * MiB, 128)
        assert c2 > c1

    def test_write_cost_latency_dominates_small_ops(self, quiet_model):
        # a tiny write's cost is ~pure RPC latency
        cost = float(quiet_model.write_op_cost(64, 1))
        assert cost == pytest.approx(
            quiet_model.tuning.write_rpc_latency
            * float(quiet_model.write_queue_factor(1 / 48))
            + 64 / float(quiet_model.per_writer_share(1)), rel=1e-6)

    def test_smaller_stripe_means_more_rpcs(self, quiet_model):
        big = quiet_model.write_op_cost(16 * MiB, 1, 1, stripe_size=4 * MiB)
        small = quiet_model.write_op_cost(16 * MiB, 1, 1, stripe_size=1 * MiB)
        assert small > big  # more RPC latency with 1 MiB stripes

    def test_read_cost_positive(self, quiet_model):
        assert quiet_model.read_op_cost(1024, 4) > 0


class TestAggregatePhase:
    """The Fig. 6 curve generator."""

    def test_rate_rises_then_falls(self, quiet_model):
        ms = np.array([1, 10, 100, 400, 1600, 6400, 25600])
        rates = quiet_model.aggregate_write_rate(ms)
        peak = int(np.argmax(rates))
        assert 0 < peak < len(ms) - 1, "peak must be interior (Fig. 6 shape)"
        assert np.all(np.diff(rates[: peak + 1]) > 0)
        assert np.all(np.diff(rates[peak:]) < 0)

    def test_extreme_aggregation_beats_single_file(self, quiet_model):
        # paper: 3.87 GiB/s at 25600 aggregators >> 0.59 at 1
        r1 = float(quiet_model.aggregate_write_rate(1))
        r25600 = float(quiet_model.aggregate_write_rate(25600))
        assert r25600 > r1

    def test_single_file_rate_near_client_stream(self, quiet_model):
        r1 = float(quiet_model.aggregate_write_rate(1))
        assert r1 <= quiet_model.tuning.client_stream_bandwidth
        assert r1 >= 0.5 * quiet_model.tuning.client_stream_bandwidth

    def test_wall_time_scales_with_bytes(self, quiet_model):
        w1 = quiet_model.aggregate_phase_wall(1 * GiB, 200)
        w2 = quiet_model.aggregate_phase_wall(2 * GiB, 200)
        assert w2 > w1

    def test_rate_respects_ost_count(self):
        few = StoragePerfModel(StorageSystem(
            name="few", kind="lustre", capacity_bytes=1e15, num_osts=4,
            tuning=StorageTuning(noise_sigma=0.0)))
        many = StoragePerfModel(StorageSystem(
            name="many", kind="lustre", capacity_bytes=1e15, num_osts=48,
            tuning=StorageTuning(noise_sigma=0.0)))
        assert (many.aggregate_write_rate(400)
                > few.aggregate_write_rate(400))


class TestNoise:
    def test_no_noise_means_unity(self, quiet_model):
        assert quiet_model.noise() == 1.0
        assert np.all(quiet_model.noise(10) == 1.0)

    def test_noisy_model_fluctuates(self):
        from repro.cluster.presets import vega

        m = StoragePerfModel(vega().storage_named("lfs"))
        draws = np.array([m.noise() for _ in range(50)])
        assert draws.std() > 0

    def test_noise_mean_near_one(self):
        from repro.util.rng import RngRegistry

        sys_ = StorageSystem(name="n", kind="lustre", capacity_bytes=1e15,
                             num_osts=8,
                             tuning=StorageTuning(noise_sigma=0.3))
        # many run factors across seeds should centre near 1
        factors = [StoragePerfModel(sys_, RngRegistry(i)).run_factor
                   for i in range(200)]
        assert abs(np.mean(factors) - 1.0) < 0.1

    def test_run_factor_deterministic_per_seed(self):
        from repro.util.rng import RngRegistry

        sys_ = StorageSystem(name="n", kind="lustre", capacity_bytes=1e15,
                             num_osts=8,
                             tuning=StorageTuning(noise_sigma=0.3))
        a = StoragePerfModel(sys_, RngRegistry(7)).run_factor
        b = StoragePerfModel(sys_, RngRegistry(7)).run_factor
        assert a == b


class TestNoiseBlock:
    """The step lane draws a run's noise as one ``(K, m + E)`` block; row
    ``k`` must hold step ``k``'s per-step draws, in their order."""

    @staticmethod
    def _pair(sigma=None):
        from repro.util.rng import RngRegistry

        storage = dardel().storage_named("lfs")
        if sigma is not None:
            storage = StorageSystem(
                name="q", kind="lustre", capacity_bytes=1e15, num_osts=48,
                tuning=StorageTuning(noise_sigma=sigma))
        return (StoragePerfModel(storage, RngRegistry(3)),
                StoragePerfModel(storage, RngRegistry(3)))

    @pytest.mark.parametrize("appends", [2, 3], ids=["bp4", "bp5"])
    def test_block_equals_per_step_draws(self, appends):
        block_model, step_model = self._pair()
        k, m = 7, 300
        block = block_model.noise((k, m + appends))
        for row in block:
            streams = step_model.noise((m,))
            metas = [step_model.noise() for _ in range(appends)]
            assert row[:m].tobytes() == streams.tobytes()
            assert row[m:].tobytes() == np.array(metas).tobytes()
        # and the next draw stays aligned
        assert block_model.noise() == step_model.noise()
        state = block_model._rng.bit_generator.state
        assert state == step_model._rng.bit_generator.state

    def test_quiet_block_draws_nothing(self):
        block_model, step_model = self._pair(sigma=0.0)
        before = block_model._rng.bit_generator.state
        block = block_model.noise((4, 5))
        assert block.shape == (4, 5)
        assert np.all(block == block_model.run_factor)
        assert block_model.run_factor == step_model.noise()
        assert block_model._rng.bit_generator.state == before

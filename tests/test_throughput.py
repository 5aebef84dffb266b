"""Tests for the throughput model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.perf.goodput import BatchGrid
from repro.perf.throughput import (GAMMA, ThroughputModel, ThroughputParams,
                                   perfect_scaling_estimate,
                                   validate_params_finite)

PARAMS = ThroughputParams(alpha_c=0.01, beta_c=0.001,
                          alpha_r=0.005, beta_r=0.0005,
                          alpha_n=0.05, beta_n=0.005)


@pytest.fixture
def model() -> ThroughputModel:
    return ThroughputModel(PARAMS)


class TestGradTime:
    def test_linear_in_batch(self, model):
        assert model.grad_time(100) == pytest.approx(0.01 + 0.1)

    def test_rejects_nonpositive_batch(self, model):
        with pytest.raises(ValueError):
            model.grad_time(0)


class TestSyncTime:
    def test_single_gpu_no_sync(self, model):
        assert model.sync_time(1, 1) == 0.0

    def test_two_gpus_one_node_base_cost(self, model):
        assert model.sync_time(1, 2) == pytest.approx(PARAMS.alpha_r)

    def test_intra_grows_with_gpus(self, model):
        assert model.sync_time(1, 8) > model.sync_time(1, 4) \
            > model.sync_time(1, 2)

    def test_inter_node_more_expensive(self, model):
        assert model.sync_time(2, 8) > model.sync_time(1, 8)

    def test_invalid_shape(self, model):
        with pytest.raises(ValueError):
            model.sync_time(4, 2)  # more nodes than GPUs


class TestIterTime:
    def test_single_gpu_equals_grad_time(self, model):
        assert model.iter_time(64, 1, 1) == pytest.approx(model.grad_time(64))

    def test_gamma_norm_below_sum(self, model):
        """Overlap: combined time is less than grad + sync but more than
        either alone."""
        grad = model.grad_time(64)
        sync = model.sync_time(2, 8)
        combined = model.iter_time(64, 8, 2)
        assert max(grad, sync) < combined < grad + sync

    def test_accumulation_adds_grad_steps(self, model):
        base = model.iter_time(64, 4, 1, accum_steps=1)
        double = model.iter_time(64, 4, 1, accum_steps=2)
        assert double == pytest.approx(base + model.grad_time(64))

    def test_rejects_zero_accum(self, model):
        with pytest.raises(ValueError):
            model.iter_time(64, 4, 1, accum_steps=0)


class TestThroughput:
    def test_scaling_is_sublinear_with_sync_costs(self, model):
        """More GPUs help, but never superlinearly at fixed local batch."""
        x1 = model.throughput(64, 1, 1)
        x4 = model.throughput(64, 4, 1)
        x8 = model.throughput(64, 8, 2)
        assert x1 < x4 < x8 < 8 * x1

    def test_bigger_local_batch_higher_throughput(self, model):
        assert model.throughput(128, 4, 1) > model.throughput(32, 4, 1)

    @given(k=st.integers(1, 32), m=st.integers(1, 512),
           s=st.integers(1, 8))
    def test_positive_and_finite(self, k, m, s):
        model = ThroughputModel(PARAMS)
        n = max(1, k // 8)
        value = model.throughput(m, k, n, s)
        assert value > 0 and math.isfinite(value)

    @given(k=st.integers(2, 32))
    def test_monotone_in_gpus_single_node(self, k):
        model = ThroughputModel(PARAMS)
        assert model.throughput(64, k, 1) >= model.throughput(64, k - 1, 1)


class TestThroughputGrid:
    PAIRS = [(1, 8), (1, 32), (2, 8), (2, 32), (4, 8), (4, 17)]

    @pytest.mark.parametrize("k,n", [(1, 1), (4, 1), (8, 2)])
    def test_matches_scalar_throughput(self, model, k, n):
        grid = BatchGrid.from_pairs(k, self.PAIRS)
        assert list(grid.locals_) == [8.0, 17.0, 32.0]
        expected = [model.throughput(m, k, n, s) for s, m in self.PAIRS]
        assert list(model.throughput_grid(grid, k, n)) \
            == pytest.approx(expected, rel=1e-12)

    def test_single_gpu_per_distinct_local(self, model):
        grid = BatchGrid.from_pairs(4, self.PAIRS)
        expected = [model.throughput(m, 1, 1) for m in (8, 17, 32)]
        assert list(model.single_gpu_throughput(grid)) \
            == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pairs", [[(1, 4), (2, 0)], [(1, 4), (1, -2)]])
    def test_rejects_nonpositive_local(self, model, pairs):
        grid = BatchGrid.from_pairs(2, pairs)
        with pytest.raises(ValueError, match="local_bsz"):
            model.throughput_grid(grid, 2, 1)
        with pytest.raises(ValueError, match="local_bsz"):
            model.single_gpu_throughput(grid)

    def test_rejects_zero_accum(self, model):
        grid = BatchGrid.from_pairs(2, [(2, 4), (0, 8)])
        with pytest.raises(ValueError, match="accum_steps"):
            model.throughput_grid(grid, 2, 1)


class TestParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThroughputParams(-1, 0, 0, 0, 0, 0)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            ThroughputParams(0.1, 0.1, 0, 0, 0, 0, gamma=0.5)

    def test_scaled(self):
        scaled = PARAMS.scaled(2.0)
        assert scaled.alpha_c == pytest.approx(2 * PARAMS.alpha_c)
        assert scaled.beta_n == pytest.approx(2 * PARAMS.beta_n)
        assert scaled.gamma == PARAMS.gamma

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PARAMS.scaled(0.0)

    def test_validate_finite(self):
        assert validate_params_finite(PARAMS)


class TestPerfectScaling:
    def test_linear(self):
        assert perfect_scaling_estimate(10.0, 4) == 40.0

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            perfect_scaling_estimate(10.0, 0)


def test_default_gamma_reasonable():
    assert 1.0 <= GAMMA <= 3.0

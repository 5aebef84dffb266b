"""Tests for inference workloads (Section 3.4, "Scheduling other workload
types"): batch inference and latency-SLO serving."""

import pytest

from repro.core.types import Configuration
from repro.jobs.inference import (BatchInferenceEstimator,
                                  LatencySLOEstimator, serving_throughput)
from repro.jobs.job import make_job
from repro.perf import profiles
from repro.perf.estimator import JobConstraints
from repro.schedulers import SiaScheduler
from repro.sim import simulate

TYPES = ("t4", "rtx", "a100")


def constraints(model="resnet18"):
    profile = profiles.model_profile(model)
    return JobConstraints(min_bsz=profile.min_bsz, max_bsz=profile.max_bsz)


class TestBatchInferenceEstimator:
    def test_unit_efficiency(self):
        est = BatchInferenceEstimator("resnet18", constraints(), TYPES)
        assert est.efficiency_model.efficiency(10_000) == 1.0

    def test_goodput_equals_throughput(self):
        est = BatchInferenceEstimator("resnet18", constraints(), TYPES)
        est.profile_initial()
        plan = est.best_plan(Configuration(1, 2, "a100"))
        assert plan is not None
        assert plan.goodput == pytest.approx(plan.throughput)

    def test_prefers_max_batch(self):
        """Without an efficiency penalty, the optimal plan saturates memory
        or the submitter batch cap."""
        est = BatchInferenceEstimator("resnet18", constraints(), TYPES)
        est.profile_initial()
        plan = est.best_plan(Configuration(1, 1, "a100"))
        cap = min(est.max_local_bsz("a100"), 4096)
        assert plan.total_batch_size >= 0.9 * cap

    def test_gradient_stats_ignored(self):
        est = BatchInferenceEstimator("resnet18", constraints(), TYPES)
        est.update_gradient_stats(123.0)
        assert est.efficiency_model.efficiency(512) == 1.0


class TestLatencySLOEstimator:
    def test_strict_slo_excludes_slow_types(self):
        est = LatencySLOEstimator("bert", latency_slo_s=0.01, gpu_types=TYPES)
        assert est.goodput(Configuration(1, 1, "a100")) == 1.0
        assert est.goodput(Configuration(1, 1, "t4")) == 0.0

    def test_loose_slo_admits_everything(self):
        est = LatencySLOEstimator("resnet18", latency_slo_s=10.0,
                                  gpu_types=TYPES)
        for gpu_type in TYPES:
            assert est.goodput(Configuration(1, 1, gpu_type)) == 1.0

    def test_multi_node_configs_rejected(self):
        est = LatencySLOEstimator("resnet18", latency_slo_s=10.0,
                                  gpu_types=TYPES)
        assert est.goodput(Configuration(2, 8, "t4")) == 0.0

    def test_slo_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencySLOEstimator("bert", latency_slo_s=0.0, gpu_types=TYPES)

    def test_latency_ordering_matches_speed(self):
        est = LatencySLOEstimator("bert", latency_slo_s=1.0, gpu_types=TYPES)
        assert est.request_latency("a100") < est.request_latency("rtx") \
            < est.request_latency("t4")

    def test_profile_cost_recorded(self):
        est = LatencySLOEstimator("bert", latency_slo_s=1.0, gpu_types=TYPES)
        assert est.profile_initial() > 0
        assert est.profiling_gpu_seconds > 0


class TestServingThroughput:
    def test_scales_with_gpus(self):
        one = serving_throughput("resnet18", "a100", 1)
        four = serving_throughput("resnet18", "a100", 4)
        assert four == pytest.approx(4 * one)

    def test_zero_gpus(self):
        assert serving_throughput("resnet18", "a100", 0) == 0.0


class TestJobValidation:
    def test_latency_job_needs_slo(self):
        with pytest.raises(ValueError):
            make_job("j", "bert", 0.0, workload="latency_inference")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            make_job("j", "bert", 0.0, workload="streaming")

    def test_hybrid_inference_rejected(self):
        from repro.jobs.hybrid import HybridSpec
        with pytest.raises(ValueError):
            make_job("j", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                     workload="batch_inference")


class TestEndToEnd:
    def test_batch_inference_completes_under_sia(self, hetero_cluster):
        job = make_job("score", "resnet18", 0.0, work_scale=0.1,
                       workload="batch_inference")
        result = simulate(hetero_cluster, SiaScheduler(), [job])
        assert result.jobs[0].completed

    def test_batch_inference_faster_than_training(self, hetero_cluster):
        """Same work total, but no statistical-efficiency decay: inference
        finishes sooner than training."""
        train = make_job("t", "resnet18", 0.0, work_scale=0.2)
        infer = make_job("i", "resnet18", 0.0, work_scale=0.2,
                         workload="batch_inference")
        r_train = simulate(hetero_cluster, SiaScheduler(), [train])
        r_infer = simulate(hetero_cluster, SiaScheduler(), [infer])
        assert r_infer.jobs[0].jct() < r_train.jobs[0].jct()

    def test_latency_job_placed_on_slo_feasible_type(self, hetero_cluster):
        serving = make_job("serve", "bert", 0.0, work_scale=0.001,
                           workload="latency_inference", latency_slo=0.005,
                           max_gpus=2)
        result = simulate(hetero_cluster, SiaScheduler(), [serving],
                          max_hours=50)
        record = result.jobs[0]
        assert record.completed
        # only a100 meets a 5 ms SLO for BERT
        assert set(record.gpu_seconds) == {"a100"}

    def test_mixed_training_and_inference(self, hetero_cluster):
        jobs = [
            make_job("t1", "bert", 0.0, work_scale=0.1),
            make_job("i1", "resnet18", 0.0, work_scale=0.1,
                     workload="batch_inference"),
            make_job("s1", "resnet18", 0.0, work_scale=0.002,
                     workload="latency_inference", latency_slo=0.05,
                     max_gpus=2),
        ]
        result = simulate(hetero_cluster, SiaScheduler(), jobs, max_hours=50)
        assert all(j.completed for j in result.jobs)

"""The vectorized goodput pipeline must be *exactly* equivalent to the
scalar reference path: same batch plans, same goodput numbers, same policy
decisions, same end-to-end simulated schedules.

The vectorized optimizer ranks the candidate grid with numpy and then
re-evaluates the shortlist of maxima through the scalar path (see
``repro.perf.goodput``), so equality here is bitwise, not approximate.
The scalar reference is ``GoodputModel._best_of_grid_scalar``, which
``GoodputModel`` selects for throughput models without a
``throughput_grid`` method; :func:`scalar_path` hides that method from
the estimators' throughput adapter.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.cluster import presets
from repro.core.bootstrap import pick_reference_type
from repro.core.policy import SiaPolicy
from repro.core.types import Configuration, ProfilingMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.inference import LatencySLOEstimator
from repro.jobs.job import make_job
from repro.perf import estimator as est_mod
from repro.perf import profiles
from repro.perf.estimator import JobConstraints, JobPerfEstimator
from repro.perf.fitting import Observation
from repro.perf.goodput import GoodputModel
from repro.perf.throughput import ThroughputModel, ThroughputParams
from repro.schedulers import SiaScheduler
from repro.schedulers.base import JobView
from repro.sim.engine import simulate
from repro.workloads import helios_trace

TYPES = ("t4", "rtx", "a100")

#: representative allocation shapes across all three types.
CONFIGS = [Configuration(n, k, t)
           for t in TYPES
           for n, k in ((1, 1), (1, 2), (1, 4), (1, 8), (2, 16), (4, 32))]


@contextmanager
def scalar_path():
    """Every estimator query inside the block takes the scalar reference
    loop: the throughput adapter stops offering ``throughput_grid``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(est_mod._ThroughputAdapter, "throughput_grid")
        yield


def make_pair(mode, model="bert", *, fixed_total_bsz=None):
    """Two estimators fed identical evidence: the first is queried under
    :func:`scalar_path`, the second on the vectorized pipeline."""
    profile = profiles.model_profile(model)
    constraints = JobConstraints(min_bsz=profile.min_bsz,
                                 max_bsz=profile.max_bsz,
                                 fixed_total_bsz=fixed_total_bsz)
    pair = tuple(JobPerfEstimator(model, constraints, TYPES, mode)
                 for _ in range(2))
    for est in pair:
        est.profile_initial()
    return pair


def true_observation(model, gpu_type, n, k, m, s=1) -> Observation:
    true_model = ThroughputModel(
        profiles.true_throughput_params(model, gpu_type))
    return Observation(gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                       local_bsz=m, accum_steps=s,
                       iter_time=true_model.iter_time(m, k, n, s))


def feed(estimators, model, experienced=("rtx",)):
    """Multi-GPU experience on each type in ``experienced``: with two types
    the Equation (1) reference is an argmax, with none every multi-GPU
    estimate on a profiled type falls back to perfect scaling."""
    for est in estimators:
        for gpu_type in experienced:
            for k in (2, 4):
                est.add_observation(
                    true_observation(model, gpu_type, 1, k, 16))


class TestEstimatorEquivalence:
    def test_scalar_path_selects_reference_loop(self):
        """Guards the harness: inside :func:`scalar_path` the estimator's
        GoodputModel really runs the scalar loop, outside it does not."""
        est, _ = make_pair(ProfilingMode.BOOTSTRAP)
        adapter = est_mod._ThroughputAdapter(est, "t4")
        efficiency = est.efficiency_model
        with scalar_path():
            assert not GoodputModel(adapter, efficiency).vectorized
        assert GoodputModel(adapter, efficiency).vectorized

    @pytest.mark.parametrize("experienced", [("rtx",), ("rtx", "a100"), ()],
                             ids=["rtx", "rtx+a100", "none"])
    @pytest.mark.parametrize("mode", list(ProfilingMode))
    @pytest.mark.parametrize("model", ["bert", "resnet50", "yolov3"])
    def test_best_plan_identical(self, mode, model, experienced):
        scalar, vectorized = make_pair(mode, model)
        feed((scalar, vectorized), model, experienced)
        with scalar_path():
            expected = [scalar.best_plan(config) for config in CONFIGS]
        for config, a in zip(CONFIGS, expected):
            b = vectorized.best_plan(config)
            assert a == b, f"{mode} {model} {config}: {a} != {b}"

    @pytest.mark.parametrize("mode", list(ProfilingMode))
    def test_rigid_fixed_total_identical(self, mode):
        scalar, vectorized = make_pair(mode, "bert", fixed_total_bsz=64)
        with scalar_path():
            expected = [scalar.best_plan(config) for config in CONFIGS]
        assert expected == [vectorized.best_plan(c) for c in CONFIGS]

    def test_bootstrap_reference_switches_across_local_sizes(self):
        """Two experienced types whose 1-GPU speeds cross inside the grid:
        a100 is the Equation (1) reference at small local sizes, rtx at
        large ones, so the per-local argmax picks both in one grid."""
        compute = {"t4": (0.02, 0.004), "rtx": (0.10, 0.001),
                   "a100": (0.01, 0.003)}
        pair = make_pair(ProfilingMode.NO_PROF, "yolov3")
        for gpu_type, (alpha_c, beta_c) in compute.items():
            truth = ThroughputModel(ThroughputParams(
                alpha_c=alpha_c, beta_c=beta_c, alpha_r=0.02, beta_r=0.002,
                alpha_n=0.06, beta_n=0.006))
            plans = [(1, 1, 8), (1, 1, 64)]
            if gpu_type != "t4":
                plans += [(1, 2, 16), (1, 4, 16)]
            for est in pair:
                for n, k, m in plans:
                    est.add_observation(Observation(
                        gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                        local_bsz=m, accum_steps=1,
                        iter_time=truth.iter_time(m, k, n)))
        scalar, vectorized = pair
        experience = {t: t != "t4" for t in TYPES}
        assert [pick_reference_type(experience, {
            t: scalar._single_gpu_xput(t, m) for t in TYPES})
            for m in (8, 59)] == ["a100", "rtx"]
        with scalar_path():
            expected = [scalar.best_plan(config) for config in CONFIGS]
        assert expected == [vectorized.best_plan(c) for c in CONFIGS]

    def test_goodput_batch_matches_scalar_goodput(self):
        scalar, vectorized = make_pair(ProfilingMode.BOOTSTRAP)
        feed((scalar, vectorized), "bert")
        with scalar_path():
            expected = [scalar.goodput(config) for config in CONFIGS]
        values = vectorized.goodput_batch(CONFIGS)
        assert [float(value) for value in values] == expected

    def test_hybrid_goodput_batch_matches_scalar(self):
        from repro.jobs.hybrid import HybridPerfEstimator
        est = HybridPerfEstimator("gpt-2.8b", HybridSpec())
        values = est.goodput_batch(CONFIGS)
        for config, value in zip(CONFIGS, values):
            assert float(value) == est.goodput(config)

    def test_latency_slo_goodput_batch_matches_scalar(self):
        est = LatencySLOEstimator("bert", 0.05, TYPES)
        values = est.goodput_batch(CONFIGS)
        for config, value in zip(CONFIGS, values):
            assert float(value) == est.goodput(config)


class TestPlainModelEquivalence:
    """A bare ``ThroughputModel`` under ``GoodputModel`` — the Pollux and
    ``profiles`` path — against the scalar reference loop."""

    SHAPES = [(1, 1), (1, 2), (1, 4), (1, 8), (2, 16), (4, 32)]

    @pytest.mark.parametrize("fixed_total_bsz", [None, 64],
                             ids=["adaptive", "fixed-total"])
    @pytest.mark.parametrize("model", ["bert", "resnet50", "yolov3"])
    def test_optimize_matches_scalar_loop(self, model, fixed_total_bsz):
        profile = profiles.model_profile(model)
        for gpu_type in TYPES:
            goodput = profiles.true_goodput_model(model, gpu_type)
            assert goodput.vectorized
            cap = profiles.max_local_bsz(model, gpu_type)
            if cap < 1:
                continue
            for n, k in self.SHAPES:
                if fixed_total_bsz is None:
                    pairs = GoodputModel._adaptive_grid(
                        k, cap, profile.max_bsz, profile.min_bsz)
                else:
                    pairs = GoodputModel._fixed_total_grid(
                        k, fixed_total_bsz, cap)
                expected = (goodput._best_of_grid_scalar(pairs, k, n)
                            if pairs else None)
                plan = goodput.optimize_batch_size(
                    k, n, max_local_bsz=cap, max_total_bsz=profile.max_bsz,
                    min_total_bsz=profile.min_bsz,
                    fixed_total_bsz=fixed_total_bsz)
                assert plan == expected, f"{model} {gpu_type} {n}x{k}"


class TestPolicyEquivalence:
    def make_views(self, cluster, n_jobs=12):
        trace = helios_trace(seed=11, num_jobs=n_jobs)
        views = []
        for job in trace.jobs:
            profile = job.profile
            constraints = JobConstraints(min_bsz=profile.min_bsz,
                                         max_bsz=profile.max_bsz)
            est = JobPerfEstimator(job.model_name, constraints,
                                   cluster.gpu_types,
                                   ProfilingMode.BOOTSTRAP)
            est.profile_initial()
            views.append(JobView(job=job, estimator=est,
                                 current_config=None, age=0.0,
                                 num_restarts=0, progress=0.0))
        return views

    def test_decide_identical_assignments(self):
        cluster = presets.heterogeneous()
        with scalar_path():
            scalar = SiaPolicy().decide(self.make_views(cluster), cluster,
                                        0.0)
        batched = SiaPolicy().decide(self.make_views(cluster), cluster, 0.0)
        assert scalar.assignments == batched.assignments
        assert scalar.objective == pytest.approx(batched.objective)
        assert scalar.estimates == batched.estimates

    def test_simulation_round_by_round_identical(self):
        """Seeded end-to-end runs produce the same allocation log whether
        every estimator runs the scalar or the vectorized path."""
        cluster = presets.heterogeneous()

        def allocation_log():
            jobs = [make_job(f"j{i}", model, float(i * 120),
                             work_scale=0.05)
                    for i, model in enumerate(
                        ["bert", "resnet50", "yolov3", "deepspeech2",
                         "bert", "resnet18"])]
            result = simulate(cluster, SiaScheduler(), jobs, seed=3)
            return [r.allocations for r in result.rounds]

        with scalar_path():
            scalar = allocation_log()
        assert scalar == allocation_log()


class TestConfigCacheSignature:
    def test_structurally_equal_clusters_share_cache(self):
        policy = SiaPolicy()
        a = presets.heterogeneous()
        b = presets.heterogeneous()
        assert a is not b
        configs = policy.configurations(a, max_gpus=64)
        assert policy.configurations(b, max_gpus=64) is configs

    def test_different_structure_misses(self):
        policy = SiaPolicy()
        small = presets.heterogeneous()
        large = small.scaled(2)
        first = policy.configurations(small, max_gpus=64)
        second = policy.configurations(large, max_gpus=64)
        assert first is not second
        assert len(second) > len(first)

    def test_max_gpus_partitions_cache(self):
        policy = SiaPolicy()
        cluster = presets.heterogeneous()
        wide = policy.configurations(cluster, max_gpus=64)
        narrow = policy.configurations(cluster, max_gpus=4)
        assert max(c.num_gpus for c in narrow) <= 4
        assert len(wide) > len(narrow)
        # Both keys stay cached side by side.
        assert policy.configurations(cluster, max_gpus=64) is wide
        assert policy.configurations(cluster, max_gpus=4) is narrow

"""Chaos-replay harness: kill/resume equivalence under fault injection."""

import pytest

from repro.jobs.job import make_job
from repro.obs.diff import diff_runs
from repro.schedulers.sia import SiaScheduler
from repro.sim import checkpoint as ckpt
from repro.sim.chaos import (ChaosReport, CrashAt, SimulatedCrash,
                             corrupt_checkpoint, run_chaos)
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.faults import JobCrashModel, NodeCrashModel, StragglerModel


def _factory(cluster, invariants="strict"):
    jobs = [make_job(f"c{i}", "resnet18" if i % 2 else "resnet50",
                     submit_time=i * 90.0, work_scale=0.02)
            for i in range(5)]

    def factory(ckpt_cfg):
        config = SimulatorConfig(
            seed=11, obs_noise=0.1, rate_noise=0.1, resilient=True,
            invariants=invariants,
            fault_models=[NodeCrashModel(rate=1.5, seed=21),
                          StragglerModel(rate=8.0, slowdown=0.5, seed=22),
                          JobCrashModel(rate=3.0, seed=23)],
            checkpoint=ckpt_cfg)
        return Simulator(cluster, SiaScheduler(), jobs, config)

    return factory


class TestCrashAt:
    def test_fires_once_at_matching_stage(self):
        hook = CrashAt(5, "round_end")
        hook("round_end", 4)  # before the target: no crash
        with pytest.raises(SimulatedCrash):
            hook("round_end", 5)
        hook("round_end", 6)  # already fired: never again
        assert hook.fired

    def test_ignores_other_stages(self):
        hook = CrashAt(1, "mid_write")
        hook("round_end", 10)
        hook("pre_write", 10)
        with pytest.raises(SimulatedCrash):
            hook("mid_write", 10)

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            CrashAt(1, "while_sleeping")


class TestKillResumeEquivalence:
    def test_round_end_kill(self, tmp_path, hetero_cluster):
        report = run_chaos(_factory(hetero_cluster), directory=tmp_path,
                           kill_round=6, every_rounds=2)
        assert report.crashed
        assert report.resumed_from_round >= 2
        assert report.equivalent, report.mismatches[:5]

    def test_mid_checkpoint_write_kill(self, tmp_path, hetero_cluster):
        report = run_chaos(_factory(hetero_cluster), directory=tmp_path,
                           kill_round=4, kill_stage="mid_write",
                           every_rounds=2)
        assert report.crashed
        assert report.equivalent, report.mismatches[:5]

    def test_corrupted_newest_falls_back(self, tmp_path, hetero_cluster):
        report = run_chaos(_factory(hetero_cluster), directory=tmp_path,
                           kill_round=6, every_rounds=2,
                           corrupt_latest=True)
        assert report.crashed
        assert report.corrupt_skipped  # the damaged newest file was skipped
        assert report.equivalent, report.mismatches[:5]

    def test_crash_before_first_checkpoint_restarts(self, tmp_path,
                                                    hetero_cluster):
        report = run_chaos(_factory(hetero_cluster), directory=tmp_path,
                           kill_round=1, every_rounds=1000)
        assert report.crashed
        assert report.resumed_from_round == -1  # fresh start
        assert report.equivalent, report.mismatches[:5]

    def test_seeded_random_kill_round(self, tmp_path, hetero_cluster):
        report = run_chaos(_factory(hetero_cluster), directory=tmp_path,
                           chaos_seed=99, every_rounds=3)
        assert report.kill_round >= 1
        assert report.equivalent, report.mismatches[:5]

    def test_report_summary_mentions_outcome(self, tmp_path, hetero_cluster):
        report = run_chaos(_factory(hetero_cluster), directory=tmp_path,
                           kill_round=6, every_rounds=2)
        assert "EQUIVALENT" in report.summary()


class TestDiff:
    def test_detects_divergence(self, tmp_path, hetero_cluster):
        factory = _factory(hetero_cluster)
        a = factory(None).run()
        b = factory(None).run()
        assert diff_runs(a, b).mismatches == []  # determinism sanity
        b.rounds[0].allocations = {"phantom": ("rtx", 1)}
        b.censored = 99
        diff = diff_runs(a, b)
        assert any("allocations" in m for m in diff.mismatches)
        assert any("censored" in m for m in diff.mismatches)
        assert diff.divergence.round_index == 0
        assert "phantom" in diff.divergence.jobs

    def test_excludes_wall_clock_fields(self, tmp_path, hetero_cluster):
        factory = _factory(hetero_cluster)
        a = factory(None).run()
        b = factory(None).run()
        b.rounds[0].solve_time = 123.0
        b.rounds[0].metrics["solve_time_s.mean"] = 9.9
        b.final_metrics["checkpoint.writes"] = 42
        assert diff_runs(a, b).mismatches == []

    def test_corrupt_checkpoint_helper(self, tmp_path):
        state = ckpt.CheckpointState(
            round_index=1, now=0.0, arrival_idx=0, arrivals=[], active={},
            finished=[], result=None, execution=None, fault_models=[],
            scheduler=None, metrics=None, invariants=None)
        path = ckpt.checkpoint_path(tmp_path, 1)
        ckpt.write_checkpoint(state, path)
        corrupt_checkpoint(path)
        with pytest.raises(ckpt.CheckpointCorruptError):
            ckpt.read_checkpoint(path)

    def test_report_equivalent_property(self):
        report = ChaosReport(kill_round=1, kill_stage="round_end")
        assert report.equivalent
        report.mismatches.append("round 0: time differs")
        assert not report.equivalent
        assert "DIVERGED" in report.summary()

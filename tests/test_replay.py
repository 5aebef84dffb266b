"""Counterfactual replay: fork semantics, identity oracle, RunDiff artifacts."""

import copy
import json

import pytest

from repro import io
from repro.analysis.explain import explain_job
from repro.analysis.replay import (ReplayOverrides, build_run_spec, replay,
                                   simulator_from_spec)
from repro.analysis.report import build_report
from repro.core import fork as forklib
from repro.obs.diff import (AllocDelta, DivergencePoint, MetricDelta,
                            RoundDelta, aligned_ledger_deltas, diff_runs,
                            fault_recovery_seconds)
from repro.obs.export import run_diff_markdown
from repro.obs.ledger import GoodputLedger
from repro.sim.checkpoint import CheckpointConfig
from repro.workloads.generators import trace_by_name


def _spec(scheduler="sia", **kw):
    trace = trace_by_name("philly", seed=3, num_jobs=6,
                          work_scale_factor=0.05)
    defaults = dict(scheduler=scheduler, cluster="heterogeneous",
                    jobs=trace.jobs, seed=3,
                    scheduler_options={"round_duration": 60.0})
    defaults.update(kw)
    return build_run_spec(**defaults)


@pytest.fixture(scope="module")
def base_spec():
    return _spec()


@pytest.fixture(scope="module")
def base_result(base_spec):
    result = simulator_from_spec(base_spec).run()
    result.run_spec = base_spec
    return result


class TestClusterDelta:
    def test_parse_addition(self):
        (delta,) = forklib.parse_cluster_delta("+64xA100")
        assert delta == forklib.ClusterDelta("a100", 64)

    def test_parse_removal_and_per_node(self):
        deltas = forklib.parse_cluster_delta("-8xt4,+16xa100:4")
        assert deltas == [forklib.ClusterDelta("t4", -8),
                          forklib.ClusterDelta("a100", 16, gpus_per_node=4)]

    @pytest.mark.parametrize("bad", ["", "64xa100", "+0xa100", "+8x",
                                     "-8xt4:2", "+axa100"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            forklib.parse_cluster_delta(bad)

    def test_apply_addition_appends_fresh_ids(self, hetero_cluster):
        deltas = forklib.parse_cluster_delta("+16xa100")
        grown, removed = forklib.apply_cluster_delta(hetero_cluster, deltas)
        assert not removed
        assert grown.capacities()["a100"] == \
            hetero_cluster.capacities()["a100"] + 16
        old_ids = {n.node_id for n in hetero_cluster.nodes}
        new_ids = {n.node_id for n in grown.nodes} - old_ids
        assert new_ids and min(new_ids) > max(old_ids)

    def test_apply_removal_drops_whole_nodes(self, hetero_cluster):
        size = hetero_cluster.max_node_size("t4")
        deltas = forklib.parse_cluster_delta(f"-{size}xt4")
        shrunk, removed = forklib.apply_cluster_delta(hetero_cluster, deltas)
        assert shrunk.capacities()["t4"] == \
            hetero_cluster.capacities()["t4"] - size
        assert removed and all(n.node_id not in removed
                               for n in shrunk.nodes)

    def test_apply_rejects_unknown_type(self, hetero_cluster):
        with pytest.raises(ValueError, match="not in the base cluster"):
            forklib.apply_cluster_delta(
                hetero_cluster, forklib.parse_cluster_delta("+8xh100"))

    def test_apply_rejects_unreachable_removal(self, hetero_cluster):
        with pytest.raises(ValueError, match="whole nodes"):
            forklib.apply_cluster_delta(
                hetero_cluster, forklib.parse_cluster_delta("-3xt4"))


class TestIdentity:
    def test_zero_override_fork_is_bit_identical(self, base_result):
        for at_round in (0, 3, len(base_result.rounds) - 1):
            outcome = replay(base_result, at_round, ReplayOverrides())
            assert outcome.diff.identical, \
                (at_round, outcome.diff.mismatches[:5])
            assert not outcome.diff.round_deltas
            assert outcome.diff.divergence is None

    def test_identity_survives_json_round_trip(self, base_result, tmp_path):
        path = tmp_path / "run.json"
        io.save_result(base_result, path)
        loaded = io.load_result(path)
        assert loaded.run_spec == base_result.run_spec
        outcome = replay(loaded, 4)
        assert outcome.diff.identical, outcome.diff.mismatches[:5]

    def test_identity_from_checkpoint_dir(self, base_spec, base_result,
                                          tmp_path):
        sim = simulator_from_spec(base_spec)
        sim.config.checkpoint = CheckpointConfig(directory=tmp_path,
                                                 every_rounds=3, keep=0)
        sim.run()
        outcome = replay(base_result, 7, checkpoint_dir=tmp_path)
        assert outcome.diff.identical, outcome.diff.mismatches[:5]

    def test_fork_past_end_rejected(self, base_result):
        with pytest.raises(ValueError, match="past the base run"):
            replay(base_result, len(base_result.rounds))

    def test_missing_run_spec_rejected(self, base_spec):
        bare = simulator_from_spec(base_spec).run()
        assert bare.run_spec is None
        with pytest.raises(ValueError, match="run_spec"):
            replay(bare, 2)


class TestOverrides:
    def test_policy_swap_diverges_and_diffs(self, base_result):
        outcome = replay(base_result, 4, ReplayOverrides(policy="gavel"))
        diff = outcome.diff
        assert outcome.fork.scheduler_name == "gavel"
        assert diff.fork_scheduler == "gavel"
        assert not diff.identical
        assert diff.divergence is not None
        assert diff.divergence.round_index >= 4
        assert diff.round_deltas
        kinds = {c.kind for rnd in diff.round_deltas for c in rnd.changes}
        assert kinds  # classified with the audit taxonomy
        # Shared history stays shared: no delta before the fork round.
        assert all(r.round_index >= 4 for r in diff.round_deltas)
        names = [m.name for m in diff.metrics]
        for required in ("avg_jct_hours", "p99_jct_hours",
                         "p99_queue_wait_hours", "avg_round_goodput",
                         "migrations", "preemptions",
                         "fault_recovery_hours"):
            assert required in names

    def test_policy_swap_keeps_round_cadence(self, base_result):
        # gavel's own default cadence is 360s; the fork must inherit the
        # base run's 60s quantum.  (Absolute times can still drift once the
        # futures diverge — idle-skip jumps depend on the schedule.)
        outcome = replay(base_result, 4, ReplayOverrides(policy="gavel"))
        base_times = [r.time for r in base_result.rounds]
        fork_times = [r.time for r in outcome.fork.rounds]
        assert fork_times[:4] == base_times[:4]
        steps = {b - a for a, b in zip(fork_times, fork_times[1:])}
        assert all(step % 60.0 == 0 for step in steps)
        assert 60.0 in steps

    def test_pollux_swap_rejected(self, base_result):
        with pytest.raises(ValueError, match="pollux"):
            replay(base_result, 4, ReplayOverrides(policy="pollux"))

    def test_solver_backend_rebind(self, base_result):
        outcome = replay(base_result, 4,
                         ReplayOverrides(solver_backend="greedy"))
        backends = {r.backend for r in outcome.fork.rounds[4:]}
        assert backends <= {"greedy"}
        # prefix rounds keep the recorded milp plans
        assert {r.backend for r in outcome.fork.rounds[:4]} <= {"milp"}

    def test_solver_backend_requires_sia(self):
        spec = _spec(scheduler="fifo", scheduler_options={})
        result = simulator_from_spec(spec).run()
        result.run_spec = spec
        with pytest.raises(ValueError, match="only apply to sia"):
            replay(result, 2, ReplayOverrides(solver_backend="greedy"))

    def test_cluster_delta_grows_capacity(self, base_result):
        outcome = replay(base_result, 4,
                         ReplayOverrides(cluster_delta="+16xa100"))
        assert "a100" in outcome.fork.cluster_description
        # a bigger cluster is a real counterfactual, not a crash
        assert len(outcome.fork.rounds) >= 4

    def test_fault_seed_reseeds_models(self):
        spec = _spec(fault_options={"job_crash_rate": 3.0})
        result = simulator_from_spec(spec).run()
        result.run_spec = spec
        identity = replay(result, 3)
        assert identity.diff.identical, identity.diff.mismatches[:5]
        other = replay(result, 3, ReplayOverrides(fault_seed=99))
        assert other.diff.overrides == {"fault_seed": "99"}

    def test_health_toggle(self, base_result):
        outcome = replay(base_result, 4, ReplayOverrides(health="on"))
        assert outcome.diff.overrides == {"health": "on"}
        with pytest.raises(ValueError, match="health override"):
            ReplayOverrides(health="maybe")


class TestRunDiffArtifact:
    @pytest.fixture(scope="class")
    def diff(self, base_result):
        return replay(base_result, 4,
                      ReplayOverrides(policy="gavel")).diff

    def test_io_round_trip_is_exact(self, diff, tmp_path):
        path = tmp_path / "diff.json"
        io.save_run_diff(diff, path)
        loaded = io.load_run_diff(path)
        assert loaded == diff
        assert loaded.to_dict() == diff.to_dict()

    def test_load_rejects_mismatches_without_divergence(self, diff,
                                                         tmp_path):
        path = tmp_path / "diff.json"
        io.save_run_diff(diff, path)
        payload = json.loads(path.read_text())
        del payload["divergence"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no divergence point"):
            io.load_run_diff(path)

    def test_markdown_rendering(self, diff):
        text = run_diff_markdown(diff)
        assert "Counterfactual diff" in text
        assert "`policy=gavel`" in text
        assert "Divergence at round" in text

    def test_report_counterfactual_section(self, base_result, diff):
        report = build_report([base_result], diffs=[diff])
        assert "Counterfactual diff" in report
        assert "| avg_jct_hours |" in report

    def test_job_changes_lookup(self, diff):
        jobs = {c.job_id for rnd in diff.round_deltas
                for c in rnd.changes}
        job_id = sorted(jobs)[0]
        changes = diff.job_changes(job_id)
        assert changes
        assert all(c.job_id == job_id for c in changes.values())


class TestDiffAligner:
    def test_compare_identical_runs_is_empty(self, base_result):
        diff = diff_runs(base_result, base_result)
        assert diff.identical
        assert diff.round_deltas == [] and diff.divergence is None

    def test_one_sided_tail_rounds(self, base_result, base_spec):
        truncated = simulator_from_spec(base_spec)
        state = truncated.run_to_round(len(base_result.rounds) - 2)
        diff = diff_runs(base_result, state.result)
        assert diff.divergence is not None
        assert any(d.only_in == "base" for d in diff.round_deltas)

    @pytest.mark.parametrize("overrides", [
        ReplayOverrides(),
        ReplayOverrides(policy="gavel"),
        ReplayOverrides(solver_backend="lp_round"),
        ReplayOverrides(solver_backend="greedy"),
        ReplayOverrides(health="on"),
        ReplayOverrides(cluster_delta="+8xa100"),
    ], ids=["identity", "gavel", "lp_round", "greedy", "health_on",
            "grow"])
    def test_divergence_is_first_differing_round(self, base_result,
                                                 overrides):
        diff = replay(base_result, 3, overrides).diff
        assert diff.identical == (diff.divergence is None)
        if overrides.empty:
            assert diff.identical, diff.mismatches[:5]
            return
        assert diff.divergence.round_index == 3, diff.mismatches[:3]
        first = diff.mismatches[0]
        assert first.startswith("round count") or \
            first.startswith("round 3:"), first
        if overrides.solver_backend == "lp_round":
            assert diff.divergence.reason.startswith("plan backend differs")

    def test_run_level_difference_diverges_after_common_rounds(
            self, base_result):
        fork = copy.deepcopy(base_result)
        fork.end_time += 60.0
        diff = diff_runs(base_result, fork)
        assert diff.mismatches == [
            f"end_time differs ({base_result.end_time!r} != "
            f"{fork.end_time!r})"]
        assert not diff.round_deltas
        assert diff.divergence.round_index == len(base_result.rounds)
        assert "end_time" in diff.divergence.reason

    def test_aligned_ledger_deltas_share_axis(self, base_result):
        ledger = GoodputLedger.from_result(base_result)
        rows = aligned_ledger_deltas(ledger, ledger)
        assert [r[0] for r in rows] == ledger.rounds()
        assert all(b == f for _, b, f in rows)

    def test_fault_recovery_seconds(self):
        from repro.obs.audit import (CAUSE_FAULT, PREEMPT,
                                     RESTART_AFTER_FAULT, AllocationEvent)
        events = [
            AllocationEvent(kind=PREEMPT, time=100.0, job_id="a",
                            cause=CAUSE_FAULT),
            AllocationEvent(kind=RESTART_AFTER_FAULT, time=160.0,
                            job_id="a"),
            AllocationEvent(kind=PREEMPT, time=200.0, job_id="b"),
        ]
        assert fault_recovery_seconds(events) == 60.0

    def test_dict_round_trips(self):
        delta = RoundDelta(round_index=3, time=180.0, changes=(
            AllocDelta(job_id="a", base=("t4", 2), fork=None,
                       kind="preempt"),), only_in="")
        assert RoundDelta.from_dict(delta.to_dict()) == delta
        point = DivergencePoint(round_index=3, time=180.0, jobs=("a",),
                                reason="because")
        assert DivergencePoint.from_dict(point.to_dict()) == point
        metric = MetricDelta(name="x", base=1.0, fork=2.5)
        assert MetricDelta.from_dict(metric.to_dict()) == metric
        assert metric.delta == 1.5


class TestExplainCounterfactual:
    def test_timeline_gains_fork_column(self, base_result):
        diff = replay(base_result, 4, ReplayOverrides(policy="gavel")).diff
        jobs = {c.job_id for rnd in diff.round_deltas for c in rnd.changes}
        job_id = sorted(jobs)[0]
        text = explain_job(base_result, job_id, counterfactual=diff)
        assert "counterfactual: forked at round 4 under gavel" in text
        assert "fork" in text.splitlines()[7] or "fork" in text
        assert "diverged at round" in text

    def test_identity_annotation(self, base_result):
        diff = replay(base_result, 4).diff
        job_id = base_result.jobs[0].job_id
        text = explain_job(base_result, job_id, counterfactual=diff)
        assert "reproduced this run exactly" in text


class TestCLI:
    @pytest.mark.parametrize("run_flags,fork_scheduler", [
        (["--scheduler", "sia"], "gavel"),
        # A rigid scheduler (tuned jobs in the spec) with fault options,
        # resilience, health and strict invariants.
        (["--scheduler", "gavel", "--straggler-rate", "0.5",
          "--job-crash-rate", "0.2", "--resilient", "--health",
          "--invariants", "strict"], "resilient-gavel"),
    ], ids=["sia", "gavel-faults"])
    def test_replay_end_to_end(self, tmp_path, run_flags, fork_scheduler):
        from repro.cli import main
        run = tmp_path / "run.json"
        diff_path = tmp_path / "diff.json"
        assert main(["run", *run_flags, "--trace-name", "philly",
                     "--num-jobs", "5", "--work-scale", "0.05",
                     "--seed", "3", "--round-duration", "60",
                     "--out", str(run)]) == 0
        assert main(["replay", str(run), "--at-round", "3"]) == 0
        assert main(["replay", str(run), "--at-round", "3",
                     "--policy", "gavel",
                     "--diff-out", str(diff_path)]) == 0
        diff = io.load_run_diff(diff_path)
        assert diff.fork_scheduler == fork_scheduler
        job_id = io.load_result(run).jobs[0].job_id
        assert main(["explain", str(run), "--job", job_id,
                     "--counterfactual", str(diff_path)]) == 0
        report = tmp_path / "report.md"
        assert main(["report", str(run), "--diff", str(diff_path),
                     "--out", str(report)]) == 0
        assert "Counterfactual diff" in report.read_text()

    def test_replay_reports_backend_divergence(self, tmp_path, capsys):
        from repro.cli import main
        run = tmp_path / "run.json"
        assert main(["run", "--trace-name", "philly", "--num-jobs", "5",
                     "--work-scale", "0.05", "--seed", "3",
                     "--round-duration", "60", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["replay", str(run), "--at-round", "3",
                     "--solver-backend", "lp_round"]) == 0
        out = capsys.readouterr().out
        assert "diverged at round 3" in out
        assert "plan backend differs" in out

    def test_replay_unknown_policy_exits_cleanly(self, tmp_path):
        from repro.cli import main
        run = tmp_path / "run.json"
        main(["run", "--trace-name", "philly", "--num-jobs", "4",
              "--work-scale", "0.05", "--round-duration", "60",
              "--out", str(run)])
        with pytest.raises(SystemExit):
            main(["replay", str(run), "--at-round", "2",
                  "--policy", "nope"])


class TestExplainNeverAdmitted:
    def test_clean_header_for_never_admitted_job(self):
        # A job submitted past the simulation cap gets a JobRecord but no
        # allocation rounds; explain must say so instead of printing a
        # garbled empty table.
        from repro.jobs.job import make_job
        jobs = [make_job("early", "resnet18", submit_time=0.0,
                         work_scale=0.02),
                make_job("too-late", "resnet18", submit_time=9e5,
                         work_scale=0.02)]
        spec = build_run_spec(scheduler="sia", cluster="heterogeneous",
                              jobs=jobs, seed=3, max_hours=1.0,
                              scheduler_options={"round_duration": 60.0})
        result = simulator_from_spec(spec).run()
        record = result.job("too-late")
        assert record.first_start is None
        text = explain_job(result, "too-late")
        assert "queued, never admitted" in text
        assert "no per-round decision records" not in text

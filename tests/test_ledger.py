"""Tests for decision-level observability: goodput ledger, allocation audit
trail, ledger JSONL round-trips, and the explain renderer."""

from __future__ import annotations

import pytest

from repro import io
from repro.analysis.explain import explain_job
from repro.analysis.report import build_report, decision_digest_section
from repro.cluster import presets
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs import audit
from repro.obs.audit import (AllocationEvent, AuditTrail, classify_change,
                             event_counts, migration_flows)
from repro.obs.ledger import GoodputLedger, LedgerEntry, queue_wait_by_job
from repro.obs.stream import LedgerStreamObserver
from repro.schedulers import (FIFOScheduler, GavelScheduler, PolluxScheduler,
                              SiaScheduler)
from repro.sim.engine import simulate
from repro.workloads.tuning import tuned_jobs


def tiny_job(job_id="j1", model="resnet18", submit=0.0, scale=0.05, **kw):
    return make_job(job_id, model, submit, work_scale=scale, **kw)


@pytest.fixture(scope="module")
def sia_result():
    """Six staggered jobs under Sia with hardware-rate noise, so estimates
    start wrong and converge."""
    cluster = presets.heterogeneous()
    jobs = [make_job(f"j{i}", model, i * 400.0, work_scale=0.05)
            for i, model in enumerate(["resnet18", "bert", "resnet50",
                                       "yolov3", "deepspeech2", "resnet18"])]
    return simulate(cluster, SiaScheduler(), jobs, rate_noise=0.3, seed=1)


# -- event classification ------------------------------------------------------

A2 = ("a100", 2, (0,))
A4 = ("a100", 4, (0,))
T2 = ("t4", 2, (5,))


class TestClassifyChange:
    def test_no_change(self):
        assert classify_change("j", 0.0, held=None, new=None,
                               ran_before=False) is None
        assert classify_change("j", 0.0, held=A2, new=A2,
                               ran_before=True) is None

    def test_admit(self):
        event = classify_change("j", 1.0, held=None, new=A2, ran_before=False)
        assert event.kind == audit.ADMIT
        assert event.to_gpu_type == "a100" and event.to_gpus == 2
        assert event.from_gpu_type == ""

    def test_resume_vs_restart_after_fault(self):
        resumed = classify_change("j", 1.0, held=None, new=A2,
                                  ran_before=True)
        assert resumed.kind == audit.RESUME
        restarted = classify_change("j", 1.0, held=None, new=A2,
                                    ran_before=True, fault_hit=True)
        assert restarted.kind == audit.RESTART_AFTER_FAULT
        assert restarted.cause == audit.CAUSE_FAULT

    def test_preempt_cause(self):
        by_sched = classify_change("j", 1.0, held=A2, new=None,
                                   ran_before=True)
        assert by_sched.kind == audit.PREEMPT
        assert by_sched.cause == audit.CAUSE_SCHEDULER
        by_fault = classify_change("j", 1.0, held=A2, new=None,
                                   ran_before=True, fault_hit=True)
        assert by_fault.cause == audit.CAUSE_FAULT

    def test_scale_up_down(self):
        up = classify_change("j", 1.0, held=A2, new=A4, ran_before=True)
        assert up.kind == audit.SCALE_UP
        down = classify_change("j", 1.0, held=A4, new=A2, ran_before=True)
        assert down.kind == audit.SCALE_DOWN

    def test_migrate_across_types(self):
        event = classify_change("j", 1.0, held=A2, new=T2, ran_before=True)
        assert event.kind == audit.MIGRATE
        assert (event.from_gpu_type, event.to_gpu_type) == ("a100", "t4")

    def test_migrate_same_type_node_move(self):
        moved = ("a100", 2, (3,))
        event = classify_change("j", 1.0, held=A2, new=moved, ran_before=True)
        assert event.kind == audit.MIGRATE
        assert event.detail == "same-type node move"

    def test_fault_hit_with_resources_is_restart(self):
        event = classify_change("j", 1.0, held=A2, new=T2, ran_before=True,
                                fault_hit=True)
        assert event.kind == audit.RESTART_AFTER_FAULT
        assert event.cause == audit.CAUSE_FAULT

    def test_event_dict_round_trip(self):
        event = classify_change("j", 1.0, held=A2, new=T2, ran_before=True,
                                round_index=7)
        back = AllocationEvent.from_dict(event.to_dict())
        assert back == event

    def test_aggregations(self):
        events = [
            classify_change("a", 0.0, held=None, new=A2, ran_before=False),
            classify_change("b", 0.0, held=A2, new=T2, ran_before=True),
            classify_change("b", 1.0, held=T2, new=A2, ran_before=True),
        ]
        assert event_counts(events) == {"admit": 1, "migrate": 2}
        assert migration_flows(events) == {("a100", "t4"): 1,
                                           ("t4", "a100"): 1}
        trail = AuditTrail(events)
        assert len(trail.for_job("b")) == 2
        assert trail.counts()["migrate"] == 2


# -- ledger from a simulated run -----------------------------------------------

class TestLedgerFromRun:
    def test_entries_cover_every_allocation(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        assert len(ledger) == sum(len(r.allocations)
                                  for r in sia_result.rounds)
        assert ledger.job_ids() == [f"j{i}" for i in range(6)]

    def test_estimates_and_realized_recorded(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        with_estimate = [e for e in ledger.entries
                         if e.estimated_goodput is not None]
        with_realized = [e for e in ledger.entries
                         if e.realized_goodput is not None]
        assert len(with_estimate) >= 0.8 * len(ledger)
        assert len(with_realized) >= 0.8 * len(ledger)
        assert all(e.estimated_goodput > 0 for e in with_estimate)

    def test_error_series_and_median(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        series = ledger.error_series("j0")
        assert series
        assert all(err >= 0 for _, err in series)
        assert ledger.median_error() is not None

    def test_convergence_acceptance_criterion(self, sia_result):
        """The PR's acceptance criterion: under rate noise, Sia's pooled
        median estimation error shrinks from the early to the late
        job-age window as the bootstrap models are refined."""
        medians = GoodputLedger.from_result(sia_result)\
            .convergence_medians(num_windows=2)
        assert len(medians) == 2
        early, late = medians
        assert late < early
        assert early > 0.01  # noise made early estimates visibly wrong

    def test_oracle_estimates_near_exact(self):
        cluster = presets.heterogeneous()
        result = simulate(cluster, SiaScheduler(), [tiny_job()],
                          profiling_mode=ProfilingMode.ORACLE)
        median = GoodputLedger.from_result(result).median_error()
        assert median is not None and median < 1e-6

    def test_gpu_type_rounds(self, sia_result):
        counts = GoodputLedger.from_result(sia_result).gpu_type_rounds()
        assert counts and all(n > 0 for n in counts.values())

    def test_queue_wait_attribution(self):
        # Two rigid 2-GPU jobs on a 1-node x 2-GPU cluster: the second
        # queues until the first finishes.
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import NodeGroup
        cluster = Cluster.from_groups(
            [NodeGroup("a100", num_nodes=1, gpus_per_node=2)])
        jobs = [tiny_job("first", fixed_num_gpus=2, fixed_batch_size=256),
                tiny_job("second", fixed_num_gpus=2, fixed_batch_size=256)]
        result = simulate(cluster, FIFOScheduler(), jobs)
        waits = queue_wait_by_job(result)
        assert waits["second"] > 0
        assert waits["first"] == 0.0

    def test_rigid_and_adaptive_schedulers_record_estimates(self):
        cluster = presets.heterogeneous()
        jobs = [tiny_job("a"), tiny_job("b", model="bert", submit=100.0)]
        for scheduler, needs_tuning in ((PolluxScheduler(), False),
                                        (GavelScheduler(), True),
                                        (FIFOScheduler(), True)):
            run_jobs = tuned_jobs(jobs, cluster, seed=0) if needs_tuning \
                else jobs
            result = simulate(cluster, scheduler, run_jobs)
            assert sum(len(r.estimates) for r in result.rounds) > 0, \
                scheduler.name


# -- engine audit trail --------------------------------------------------------

class TestEngineAudit:
    def test_every_job_admitted_and_finished(self, sia_result):
        counts = event_counts(sia_result.allocation_events())
        assert counts["admit"] == 6
        assert counts["finish"] == 6

    def test_events_reference_known_jobs_and_rounds(self, sia_result):
        jobs = {r.job_id for r in sia_result.jobs}
        for event in sia_result.allocation_events():
            assert event.job_id in jobs
            assert 0 <= event.round_index < len(sia_result.rounds)
            assert event.kind in audit.EVENT_KINDS

    def test_fault_restart_classified(self):
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import NodeGroup
        from repro.sim.faults import JobCrashModel
        cluster = Cluster.from_groups(
            [NodeGroup("a100", num_nodes=2, gpus_per_node=4)])
        jobs = [tiny_job(f"j{i}", scale=0.3) for i in range(2)]
        result = simulate(cluster, SiaScheduler(), jobs, seed=0,
                          fault_models=[JobCrashModel(rate=6.0)],
                          max_hours=100)
        assert result.fault_counts().get("job_crash", 0) > 0
        counts = event_counts(result.allocation_events())
        assert counts.get("restart_after_fault", 0) > 0
        restarts = [e for e in result.allocation_events()
                    if e.kind == audit.RESTART_AFTER_FAULT]
        assert all(e.cause == audit.CAUSE_FAULT for e in restarts)
        # Fault restarts never count as scheduler preemptions.
        assert all(j.num_preemptions == 0 for j in result.jobs)

    def test_preemption_counters_persisted(self, sia_result):
        preempts = {e.job_id for e in sia_result.allocation_events()
                    if e.kind == audit.PREEMPT
                    and e.cause == audit.CAUSE_SCHEDULER}
        for record in sia_result.jobs:
            if record.job_id in preempts:
                assert record.num_preemptions > 0
            assert record.num_migrations >= 0

    def test_alloc_event_metrics_counted(self, sia_result):
        # Counters snapshot cumulatively; the last round has the total.
        assert sia_result.rounds[-1].metrics["alloc_events.admit"] == 6


# -- serialization --------------------------------------------------------------

class TestLedgerIO:
    def test_result_round_trip_preserves_observability(self, sia_result,
                                                       tmp_path):
        path = tmp_path / "run.json"
        io.save_result(sia_result, path)
        loaded = io.load_result(path)
        assert [r.estimates for r in loaded.rounds] == \
            [r.estimates for r in sia_result.rounds]
        assert [r.realized for r in loaded.rounds] == \
            [r.realized for r in sia_result.rounds]
        assert [r.events for r in loaded.rounds] == \
            [r.events for r in sia_result.rounds]
        assert [(j.num_preemptions, j.num_migrations) for j in loaded.jobs] \
            == [(j.num_preemptions, j.num_migrations)
                for j in sia_result.jobs]

    def test_old_results_without_observability_load(self, sia_result,
                                                    tmp_path):
        import json
        path = tmp_path / "old.json"
        io.save_result(sia_result, path)
        payload = json.loads(path.read_text())
        for job in payload["jobs"]:
            del job["num_preemptions"], job["num_migrations"]
        for rnd in payload["rounds"]:
            for key in ("estimates", "realized", "throughputs", "events"):
                rnd.pop(key, None)
        path.write_text(json.dumps(payload))
        loaded = io.load_result(path)
        assert all(j.num_preemptions == 0 for j in loaded.jobs)
        assert all(not r.events for r in loaded.rounds)
        assert len(GoodputLedger.from_result(loaded)) == \
            len(GoodputLedger.from_result(sia_result))

    def test_ledger_jsonl_round_trip(self, sia_result, tmp_path):
        path = tmp_path / "ledger.jsonl"
        stream = LedgerStreamObserver(path, sia_result.scheduler_name)
        stream.on_round(sia_result, len(sia_result.rounds) - 1, 0.0)
        stream.on_finalize(sia_result)
        ledger, events = io.load_ledger(path)
        original = GoodputLedger.from_result(sia_result)
        assert len(ledger) == len(original)
        assert ledger.entries[0] == original.entries[0]
        assert events == sia_result.allocation_events()
        assert ledger.median_error() == \
            pytest.approx(original.median_error())

    def test_ledger_rejects_non_ledger_files(self, tmp_path):
        bad_kind = tmp_path / "bad.jsonl"
        bad_kind.write_text('{"kind": "result"}\n')
        with pytest.raises(ValueError):
            io.load_ledger(bad_kind)
        no_header = tmp_path / "headerless.jsonl"
        no_header.write_text('{"kind": "ledger_entry", "round_index": 0, '
                             '"time": 0.0, "job_id": "j", '
                             '"gpu_type": "t4", "num_gpus": 1}\n')
        with pytest.raises(ValueError):
            io.load_ledger(no_header)

    def test_entry_dict_round_trip(self):
        entry = LedgerEntry(round_index=3, time=120.0, job_id="j",
                            gpu_type="t4", num_gpus=4,
                            estimated_goodput=10.0, realized_goodput=9.0,
                            realized_throughput=11.0)
        assert LedgerEntry.from_dict(entry.to_dict()) == entry
        sparse = LedgerEntry(round_index=0, time=0.0, job_id="j",
                             gpu_type="t4", num_gpus=1)
        assert LedgerEntry.from_dict(sparse.to_dict()) == sparse
        assert sparse.relative_error is None


# -- summary-count symmetry (fault/backend single code path) --------------------

class TestSummaryCounts:
    def test_counts_match_with_and_without_rounds(self, tmp_path):
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import NodeGroup
        from repro.sim.faults import JobCrashModel
        cluster = Cluster.from_groups(
            [NodeGroup("a100", num_nodes=2, gpus_per_node=4)])
        result = simulate(cluster, SiaScheduler(),
                          [tiny_job(f"j{i}", scale=0.3) for i in range(2)],
                          seed=0, fault_models=[JobCrashModel(rate=6.0)],
                          max_hours=100)
        assert result.fault_counts()  # the run actually faulted
        path = tmp_path / "r.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.fault_counts() == result.fault_counts()
        assert loaded.backend_counts() == result.backend_counts()

    def test_counts_empty_without_rounds_or_saved(self):
        from repro.sim.telemetry import SimulationResult
        result = SimulationResult(scheduler_name="x",
                                  cluster_description="c", end_time=0.0)
        assert result.fault_counts() == {}
        assert result.backend_counts() == {}


# -- explain + report -----------------------------------------------------------

class TestExplain:
    def test_timeline_mentions_lifecycle(self, sia_result):
        text = explain_job(sia_result, "j0")
        assert "j0" in text
        assert "admit" in text
        assert "finish" in text
        assert "JCT" in text

    def test_round_detail(self, sia_result):
        text = explain_job(sia_result, "j0", round_index=0)
        assert "round 0" in text
        assert "expected" in text or "held no GPUs" in text

    def test_unknown_job_raises(self, sia_result):
        with pytest.raises(KeyError):
            explain_job(sia_result, "nope")
        with pytest.raises(IndexError):
            explain_job(sia_result, "j0", round_index=10_000)

    def test_works_on_loaded_result(self, sia_result, tmp_path):
        path = tmp_path / "run.json"
        io.save_result(sia_result, path)
        assert explain_job(io.load_result(path), "j0") == \
            explain_job(sia_result, "j0")

    def test_report_includes_decision_digest(self, sia_result):
        digest = decision_digest_section(sia_result)
        assert "Decision digest" in digest
        assert "admit" in digest
        report = build_report([sia_result])
        assert "Decision digest" in report

    def test_digest_empty_without_rounds(self, sia_result):
        from repro.sim.telemetry import SimulationResult
        bare = SimulationResult(scheduler_name=sia_result.scheduler_name,
                                cluster_description="c",
                                jobs=list(sia_result.jobs))
        assert decision_digest_section(bare) == ""


class TestLedgerIndex:
    """The memoized per-job index and the diff aligner's accessors."""

    def test_for_job_matches_linear_scan(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        for job_id in ledger.job_ids():
            assert ledger.for_job(job_id) == \
                [e for e in ledger.entries if e.job_id == job_id]

    def test_index_is_reused_until_entries_change(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        job_id = ledger.job_ids()[0]
        ledger.for_job(job_id)
        first = ledger._index()
        assert ledger._index() is first  # memoized, not rebuilt
        ledger.entries.append(LedgerEntry(round_index=10_000, time=0.0,
                                          job_id=job_id, gpu_type="t4",
                                          num_gpus=1))
        rebuilt = ledger._index()
        assert rebuilt is not first  # appended entry invalidates
        assert ledger.for_job(job_id)[-1].round_index == 10_000

    def test_for_job_returns_copies(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        job_id = ledger.job_ids()[0]
        rows = ledger.for_job(job_id)
        rows.clear()
        assert ledger.for_job(job_id)  # caller mutation cannot corrupt

    def test_rounds_accessor(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        rounds = ledger.rounds()
        assert rounds == sorted(set(rounds))
        assert rounds == sorted({e.round_index for e in ledger.entries})

    def test_for_round(self, sia_result):
        ledger = GoodputLedger.from_result(sia_result)
        index = ledger.rounds()[0]
        rows = ledger.for_round(index)
        assert rows and all(e.round_index == index for e in rows)

"""Tests for the observability subsystem (repro.obs) and its wiring
through the scheduler-simulator stack."""

import json

import pytest

from repro import io
from repro.core.types import AdaptivityMode
from repro.jobs.job import make_job
from repro.obs.export import (chrome_trace, run_digest, span_digest,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanStats, Tracer
from repro.schedulers import (FIFOScheduler, GavelScheduler, PolluxScheduler,
                              ShockwaveScheduler, SiaScheduler, SRTFScheduler,
                              ThemisScheduler)
from repro.schedulers.base import PLAN_PHASES
from repro.sim.engine import SimulatorConfig, simulate
from repro.sim.telemetry import JobRecord, RoundRecord, SimulationResult


def tiny_job(job_id="j1", model="resnet18", submit=0.0, **kw):
    return make_job(job_id, model, submit, work_scale=0.05, **kw)


def rigid_job(job_id="j1", model="resnet18", submit=0.0, gpus=1):
    return make_job(job_id, model, submit, work_scale=0.05,
                    adaptivity=AdaptivityMode.RIGID, fixed_num_gpus=gpus)


# -- tracer -------------------------------------------------------------------

class TestTracer:
    def test_records_span_with_attrs(self):
        tracer = Tracer()
        with tracer.span("work", kind="test"):
            pass
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.attrs == {"kind": "test"}
        assert span.duration >= 0
        assert span.parent_id is None and span.depth == 0
        assert span.end == pytest.approx(span.start + span.duration)

    def test_nesting_tracks_parents_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        assert (by_name["outer"].depth, by_name["middle"].depth,
                by_name["inner"].depth) == (0, 1, 2)

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        parent = next(s for s in tracer.spans if s.name == "parent")
        kids = tracer.children(parent.span_id)
        assert sorted(s.name for s in kids) == ["a", "b"]

    def test_spans_close_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_annotate_mid_span(self):
        tracer = Tracer()
        with tracer.span("solve") as span:
            span.annotate(outcome="ok")
        assert tracer.spans[0].attrs["outcome"] == "ok"

    def test_instant_events(self):
        tracer = Tracer()
        tracer.instant("breaker_trip", backend="milp")
        assert len(tracer.events) == 1
        name, ts, attrs = tracer.events[0]
        assert name == "breaker_trip" and ts >= 0
        assert attrs == {"backend": "milp"}

    def test_span_stats_and_totals(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("solve"):
                pass
        stats = tracer.span_stats("solve")
        assert stats.count == 3
        assert stats.total >= stats.max >= stats.min >= 0
        assert stats.mean == pytest.approx(stats.total / 3)
        assert tracer.totals_by_name()["solve"] == pytest.approx(stats.total)
        assert tracer.span_stats("missing").count == 0
        assert SpanStats(name="x").mean == 0.0

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.instant("e")
        tracer.reset()
        assert tracer.spans == [] and tracer.events == []

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer.spans) == 1
        # The stack unwound: a new span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("work", attr=1) as span:
            span.annotate(more=2)
        tracer.instant("event")
        assert tracer.spans == () and tracer.events == ()
        assert not tracer.enabled

    def test_shared_singleton_span(self):
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b", attr=1)
        assert a is b  # one shared no-op object: no per-call allocation

    def test_queries_are_empty(self):
        assert NULL_TRACER.span_stats("x").count == 0
        assert NULL_TRACER.totals_by_name() == {}
        assert NULL_TRACER.children(1) == []
        NULL_TRACER.reset()  # no-op, must not raise


# -- metrics ------------------------------------------------------------------

class TestMetrics:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("depth")
        g.set(4.5)
        assert g.value == 4.5

    def test_histogram(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(10.0)
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0
        assert h.percentile(50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_quantile_matches_numpy_reference(self):
        import numpy as np
        import random
        rng = random.Random(23)
        h = Histogram("t")
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(101)]
        for v in values:
            h.observe(v)
        for q in (0.0, 0.05, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(
                float(np.quantile(np.asarray(values), q, method="linear")),
                rel=1e-12)
        # percentile() is the [0, 100]-scaled view of the same definition.
        assert h.percentile(95) == h.quantile(0.95)

    def test_registry_items_exposes_types(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(1)
        items = reg.items()
        assert [name for name, _ in items] == ["a", "b"]  # sorted
        assert isinstance(items[0][1], Gauge)
        assert isinstance(items[1][1], Counter)

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")  # 'a' is already a counter

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc()
        reg.gauge("depth").set(2)
        reg.histogram("solve").observe(0.5)
        snap = reg.snapshot()
        assert snap["rounds"] == 1
        assert snap["depth"] == 2
        assert snap["solve.count"] == 1
        assert snap["solve.mean"] == pytest.approx(0.5)
        assert snap["solve.max"] == pytest.approx(0.5)

    def test_digest_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc(7)
        reg.histogram("solve").observe(1.0)
        text = reg.digest()
        assert "rounds" in text and "solve" in text


# -- exporters ----------------------------------------------------------------

class TestExport:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("round", index=0):
            with tracer.span("plan", scheduler="sia"):
                pass
        tracer.instant("marker", note="hi")
        return tracer

    def test_chrome_trace_is_valid(self):
        tracer = self._spans()
        payload = chrome_trace(tracer.spans, tracer.events)
        validate_chrome_trace(payload)  # must not raise
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"M", "X", "i"}
        plan = next(e for e in payload["traceEvents"]
                    if e.get("name") == "plan")
        rnd = next(e for e in payload["traceEvents"]
                   if e.get("name") == "round")
        assert plan["args"]["parent_id"] == rnd["args"]["span_id"]

    def test_chrome_trace_round_trips_through_json(self, tmp_path):
        tracer = self._spans()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer.spans, path, tracer.events)
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        assert payload["displayTimeUnit"] == "ms"

    @pytest.mark.parametrize("payload", [
        [],                                             # not an object
        {},                                             # no traceEvents
        {"traceEvents": [{"ph": "X"}]},                 # no name
        {"traceEvents": [{"name": "a", "ph": "q"}]},    # bad phase
        {"traceEvents": [{"name": "a", "ph": "X", "ts": -1.0, "dur": 1.0,
                          "pid": 0, "tid": 0}]},        # negative ts
        {"traceEvents": [{"name": "a", "ph": "X", "ts": 0.0,
                          "pid": 0, "tid": 0}]},        # X without dur
        {"traceEvents": [{"name": "a", "ph": "i", "ts": 0.0,
                          "pid": "x", "tid": 0}]},      # non-int pid
    ])
    def test_validate_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)

    def test_span_digest_lists_names(self):
        tracer = self._spans()
        text = span_digest(tracer.spans)
        assert "round" in text and "plan" in text
        assert span_digest([]) == "(no spans recorded)"


# -- scheduler instrumentation ------------------------------------------------

SCHEDULER_CASES = [
    ("sia", SiaScheduler, tiny_job),
    ("pollux", PolluxScheduler, tiny_job),
    ("gavel", lambda: GavelScheduler(), lambda **kw: rigid_job(gpus=1, **kw)),
    ("themis", ThemisScheduler, lambda **kw: rigid_job(gpus=1, **kw)),
    ("shockwave", ShockwaveScheduler, lambda **kw: rigid_job(gpus=1, **kw)),
    ("fifo", FIFOScheduler, lambda **kw: rigid_job(gpus=1, **kw)),
    ("srtf", SRTFScheduler, lambda **kw: rigid_job(gpus=1, **kw)),
]


class TestSchedulerSpans:
    @pytest.mark.parametrize("name,factory,job_factory", SCHEDULER_CASES,
                             ids=[c[0] for c in SCHEDULER_CASES])
    def test_every_scheduler_emits_standard_phases(self, hetero_cluster,
                                                   name, factory,
                                                   job_factory):
        tracer = Tracer()
        result = simulate(hetero_cluster, factory(),
                          [job_factory(job_id="j1"),
                           job_factory(job_id="j2", submit=60.0)],
                          tracer=tracer, max_hours=3.0)
        names = {s.name for s in result.spans}
        assert {"round", "plan", "apply", "advance"} <= names
        assert set(PLAN_PHASES) <= names, f"{name} missing phase spans"

        by_id = {s.span_id: s for s in result.spans}
        plans = [s for s in result.spans if s.name == "plan"]
        rounds = [s for s in result.spans if s.name == "round"]
        assert len(plans) == len(rounds) == len(result.rounds)
        # plan nests under round; every phase span nests under a plan.
        for span in plans:
            assert by_id[span.parent_id].name == "round"
        for span in result.spans:
            if span.name in PLAN_PHASES:
                assert by_id[span.parent_id].name == "plan"

    def test_sia_phases_sum_to_solve_time(self, hetero_cluster):
        tracer = Tracer()
        result = simulate(hetero_cluster, SiaScheduler(),
                          [tiny_job("j1"), tiny_job("j2", submit=60.0)],
                          tracer=tracer, max_hours=3.0)
        breakdown = result.phase_time_breakdown()
        total_solve = sum(r.solve_time for r in result.rounds)
        assert all(v >= 0 for v in breakdown.values())
        phase_total = sum(breakdown.values())
        # Phases run inside the timed plan path, so they can never exceed
        # it, and they cover nearly all of it.
        assert phase_total <= total_solve
        assert phase_total >= 0.7 * total_solve

    def test_untraced_run_records_no_spans(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        assert result.spans == []
        assert result.final_metrics["rounds_planned"] == len(result.rounds)

    def test_identical_results_with_and_without_tracing(self, hetero_cluster):
        jobs = [tiny_job("j1"), tiny_job("j2", submit=120.0)]
        plain = simulate(hetero_cluster, SiaScheduler(), jobs)
        traced = simulate(hetero_cluster, SiaScheduler(), jobs,
                          tracer=Tracer())
        assert [j.finish_time for j in plain.jobs] == \
            [j.finish_time for j in traced.jobs]
        assert [r.allocations for r in plain.rounds] == \
            [r.allocations for r in traced.rounds]


# -- simulator metrics --------------------------------------------------------

class TestSimulatorMetrics:
    def test_round_metrics_snapshots(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(),
                          [tiny_job("j1"), tiny_job("j2", submit=60.0)])
        assert result.rounds
        last = result.rounds[-1].metrics
        assert last["rounds_planned"] == len(result.rounds)
        assert last["solve_time_s.count"] == len(result.rounds)
        assert any(k.startswith("util.") for k in last)
        # Snapshots are cumulative: monotone rounds_planned.
        planned = [r.metrics["rounds_planned"] for r in result.rounds]
        assert planned == sorted(planned)
        assert result.final_metrics == last

    def test_resilient_metrics_counts_caught_failures(self, hetero_cluster):
        class ExplodingScheduler(SiaScheduler):
            def decide(self, views, cluster, previous, now):
                raise RuntimeError("boom")

        result = simulate(hetero_cluster, ExplodingScheduler(),
                          [tiny_job()], resilient=True, max_hours=0.1)
        assert result.final_metrics["caught_scheduler_failures"] > 0
        assert result.final_metrics["carry_forward_rounds"] > 0


# -- SimulationResult accessors ----------------------------------------------

def _result_with_solve_times(times):
    result = SimulationResult(scheduler_name="s", cluster_description="c")
    for i, t in enumerate(times):
        result.rounds.append(RoundRecord(time=60.0 * i, active_jobs=1,
                                         running_jobs=1, solve_time=t))
    return result


class TestResultAccessors:
    def test_median_solve_time_odd(self):
        assert _result_with_solve_times([3.0, 1.0, 2.0]) \
            .median_solve_time() == 2.0

    def test_median_solve_time_even_averages_middles(self):
        assert _result_with_solve_times([4.0, 1.0, 3.0, 2.0]) \
            .median_solve_time() == pytest.approx(2.5)

    def test_median_solve_time_empty(self):
        assert _result_with_solve_times([]).median_solve_time() == 0.0

    def test_job_index_lookup(self):
        result = SimulationResult(scheduler_name="s", cluster_description="c")
        for i in range(5):
            result.jobs.append(JobRecord(
                job_id=f"j{i}", model_name="m", category="c", adaptivity="a",
                submit_time=0.0, first_start=None, finish_time=None,
                num_restarts=0))
        assert result.job("j3").job_id == "j3"
        # The index refreshes when jobs are added after the first lookup.
        result.jobs.append(JobRecord(
            job_id="late", model_name="m", category="c", adaptivity="a",
            submit_time=0.0, first_start=None, finish_time=None,
            num_restarts=0))
        assert result.job("late").job_id == "late"
        with pytest.raises(KeyError):
            result.job("missing")

    def test_span_stats_accessor(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()],
                          tracer=Tracer())
        stats = result.span_stats("plan")
        assert stats.count == len(result.rounds)
        assert stats.total > 0


# -- io round trip -------------------------------------------------------------

class TestIoObservability:
    def test_round_metrics_round_trip(self, hetero_cluster, tmp_path):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        path = tmp_path / "result.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.rounds[-1].metrics == result.rounds[-1].metrics
        assert loaded.final_metrics == result.final_metrics


# -- digest -------------------------------------------------------------------

class TestRunDigest:
    def test_digest_for_traced_run(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()],
                          tracer=Tracer())
        text = run_digest(result)
        assert "phase breakdown" in text
        assert "rounds_planned" in text

    def test_digest_for_untraced_run(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        assert "tracing disabled" in run_digest(result)

    def test_digest_degenerate_result(self):
        """A bare result — no rounds, no spans, no metrics snapshot — must
        still digest cleanly, with an explicit line per missing section."""
        result = SimulationResult(scheduler_name="s", cluster_description="c")
        text = run_digest(result)
        assert "no per-round records" in text
        assert "tracing disabled" in text
        assert "no metrics snapshot" in text

    def test_digest_rounds_without_metrics(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        bare = SimulationResult(scheduler_name=result.scheduler_name,
                                cluster_description="c",
                                final_metrics=dict(result.final_metrics))
        text = run_digest(bare)
        assert "no per-round records" in text
        assert "rounds_planned" in text  # the final metrics still print

    def test_digest_includes_alert_section(self, hetero_cluster):
        from repro.obs.slo import SLOEngine, SLORule
        from repro.obs.stream import SLOObserver
        engine = SLOEngine([SLORule(name="always", metric="rounds_planned",
                                    target=0.0, comparison="<=", window=4,
                                    error_budget=0.5, min_samples=1)])
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()],
                          observers=[SLOObserver(engine)])
        text = run_digest(result)
        assert "slo alerts:" in text
        assert "always: 1 alert(s)" in text

    def test_alert_digest_empty_without_slo(self, hetero_cluster):
        from repro.obs.export import alert_digest
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        assert alert_digest(result) == ""
        assert "slo alerts" not in run_digest(result)

"""Tests for the SLO engine: rule parsing, burn-rate alerting semantics,
causal context, and end-to-end firing on fault-heavy simulations."""

import json

import pytest

from repro.core.health import HealthConfig
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (Alert, SLOEngine, SLORule, alert_summary,
                           default_rules, evaluate_result, parse_rules)
from repro.obs.stream import SLOObserver
from repro.schedulers import SiaScheduler
from repro.sim import (GrayFailureModel, PlacementFailureModel, Simulator,
                       SimulatorConfig, simulate)
from repro.sim.telemetry import RoundRecord


def jobs(n=3, scale=0.4):
    return [make_job(f"j{i}", "resnet18", 0.0, work_scale=scale)
            for i in range(n)]


def record(index, *, metrics=None, solve_time=0.01, degraded=False,
           **kwargs):
    return RoundRecord(time=60.0 * index, active_jobs=1, running_jobs=1,
                       solve_time=solve_time, degraded=degraded,
                       metrics=metrics or {}, **kwargs)


def feed(engine, records, dt=60.0):
    """Run every record through the engine; returns all fired alerts."""
    fired = []
    for index, rnd in enumerate(records):
        fired.extend(engine.observe_round(rnd, index, dt))
    return fired


# -- rules and parsing ---------------------------------------------------------

class TestSLORule:
    def test_defaults_are_valid(self):
        rule = SLORule(name="r", metric="round_latency_p95", target=1.0)
        assert rule.comparison == "<=" and rule.window == 20

    @pytest.mark.parametrize("bad", [
        dict(comparison="=="),
        dict(window=0),
        dict(error_budget=0.0),
        dict(error_budget=1.5),
        dict(burn_rate=0.0),
        dict(min_samples=0),
        dict(severity="fatal"),
        dict(metric="some.metric", agg="p42"),
    ])
    def test_validation_rejects(self, bad):
        base = dict(name="r", metric="round_latency_p95", target=1.0)
        base.update(bad)
        with pytest.raises(ValueError):
            SLORule(**base)

    def test_dict_round_trip(self):
        rule = SLORule(name="r", metric="queue_wait_p99", target=3600.0,
                       severity="page", window=7)
        assert SLORule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SLO rule keys"):
            SLORule.from_dict({"name": "r", "metric": "x", "target": 1.0,
                               "treshold": 2})


class TestParseRules:
    def test_default_sources(self):
        assert parse_rules(None) == default_rules()
        assert parse_rules("default") == default_rules()

    def test_list_and_wrapped_dict(self):
        spec = [{"name": "r", "metric": "round_latency_p95", "target": 2.0}]
        assert parse_rules(spec) == parse_rules({"rules": spec})
        assert parse_rules(spec)[0].target == 2.0

    def test_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "lat", "metric": "round_latency_p95", "target": 0.5}]}))
        rules = parse_rules(path)
        assert [r.name for r in rules] == ["lat"]

    def test_duplicate_names_rejected(self):
        spec = [{"name": "r", "metric": "round_latency_p95", "target": 1.0},
                {"name": "r", "metric": "queue_wait_p99", "target": 1.0}]
        with pytest.raises(ValueError, match="duplicate"):
            parse_rules(spec)

    def test_non_list_rejected(self):
        with pytest.raises(ValueError, match="list of rules"):
            parse_rules({"not_rules": []})

    def test_default_ruleset_names_are_stable(self):
        # CI and the docs reference these names; renames are breaking.
        assert [r.name for r in default_rules()] == [
            "round-latency", "solver-fallbacks", "queue-wait",
            "estimation-error", "quarantined-capacity"]


# -- burn-rate semantics -------------------------------------------------------

def metric_rule(**kwargs):
    base = dict(name="depth", metric="queue.depth", target=5.0,
                comparison="<=", window=4, error_budget=0.5, burn_rate=1.0,
                min_samples=2, cooldown=3, agg="last")
    base.update(kwargs)
    return SLORule(**base)


class TestBurnRate:
    def test_fires_when_budget_burns(self):
        engine = SLOEngine([metric_rule()])
        # 2 of the last 4 rounds violating = 50% = the whole budget.
        records = [record(i, metrics={"queue.depth": d})
                   for i, d in enumerate([1.0, 1.0, 9.0, 9.0])]
        fired = feed(engine, records)
        assert len(fired) == 1
        alert = fired[0]
        assert alert.rule == "depth" and alert.round_index == 3
        assert alert.value == 9.0 and alert.burn_rate >= 1.0

    def test_min_samples_gates_early_evidence(self):
        engine = SLOEngine([metric_rule(min_samples=3)])
        # Two violating rounds burn 100% of budget but lack evidence.
        fired = feed(engine, [record(0, metrics={"queue.depth": 9.0}),
                              record(1, metrics={"queue.depth": 9.0})])
        assert fired == []

    def test_cooldown_suppresses_then_rearms(self):
        engine = SLOEngine([metric_rule(min_samples=1, cooldown=3)])
        records = [record(i, metrics={"queue.depth": 9.0})
                   for i in range(7)]
        fired = feed(engine, records)
        # Fires at round 0, quiet for rounds 1-2, re-fires at 3 and 6.
        assert [a.round_index for a in fired] == [0, 3, 6]

    def test_missing_metric_is_not_a_violation(self):
        engine = SLOEngine([metric_rule(min_samples=1)])
        fired = feed(engine, [record(i) for i in range(5)])
        assert fired == []

    def test_ge_comparison_fires_below_target(self):
        rule = metric_rule(name="floor", metric="util.t4", target=0.5,
                           comparison=">=", min_samples=1)
        engine = SLOEngine([rule])
        fired = feed(engine, [record(0, metrics={"util.t4": 0.1})])
        assert len(fired) == 1 and fired[0].comparison == ">="

    def test_windowed_agg_uses_rolling_statistic(self):
        rule = metric_rule(name="p95", metric="queue.depth", agg="p95",
                           target=5.0, min_samples=1, window=4)
        engine = SLOEngine([rule])
        # One spike: last=1 but the rolling p95 stays elevated.
        records = [record(i, metrics={"queue.depth": d})
                   for i, d in enumerate([1.0, 20.0, 1.0, 1.0])]
        fired = feed(engine, records)
        assert fired and fired[0].value > 5.0

    def test_quarantined_nodes_builtin_series(self):
        rule = SLORule(name="q", metric="quarantined_nodes", target=0.0,
                       window=4, error_budget=0.5, min_samples=2,
                       cooldown=10, severity="page")
        engine = SLOEngine([rule])
        records = [record(i, metrics={"health.quarantined_nodes": 1.0})
                   for i in range(2)]
        fired = feed(engine, records)
        assert len(fired) == 1 and fired[0].severity == "page"

    def test_solver_fallback_rate_series(self):
        rule = SLORule(name="fb", metric="solver_fallback_rate", target=0.25,
                       window=4, error_budget=0.5, min_samples=2)
        engine = SLOEngine([rule])
        fired = feed(engine, [record(i, degraded=True) for i in range(2)])
        assert fired and fired[0].value == 1.0
        assert fired[0].context.get("backends")

    def test_burn_rate_gauges_and_counters_land_in_registry(self):
        registry = MetricsRegistry()
        engine = SLOEngine([metric_rule(min_samples=1)], metrics=registry)
        feed(engine, [record(0, metrics={"queue.depth": 9.0})])
        snap = registry.snapshot()
        assert snap["slo.burn_rate.depth"] == pytest.approx(2.0)
        assert snap["slo.alerts"] == 1
        assert snap["slo.alert.depth"] == 1


class TestAlert:
    def test_dict_round_trip_preserves_context(self):
        alert = Alert(rule="r", metric="m", round_index=3, time=180.0,
                      value=9.0, target=5.0, comparison="<=", burn_rate=2.0,
                      window=4, severity="page",
                      context={"nodes": [1, 2], "jobs": ["j1"]})
        again = Alert.from_dict(alert.to_dict())
        assert again == alert
        assert again.context == alert.context

    def test_from_dict_ignores_stream_framing_keys(self):
        data = Alert(rule="r", metric="m", round_index=0, time=0.0,
                     value=1.0, target=0.0, comparison="<=", burn_rate=1.0,
                     window=1).to_dict()
        data["kind"] = "alert"  # JSONL framing, not an Alert field
        assert Alert.from_dict(data).rule == "r"

    def test_describe_mentions_rule_and_causes(self):
        alert = Alert(rule="queue-wait", metric="queue_wait_p99",
                      round_index=1, time=60.0, value=9000.0, target=3600.0,
                      comparison="<=", burn_rate=1.5, window=20,
                      context={"jobs": ["j7"], "nodes": [3],
                               "faults": {"node_crash": 2}})
        text = alert.describe()
        assert "queue-wait" in text and "j7" in text
        assert "nodes 3" in text and "node_crash=2" in text

    def test_alert_summary_counts_by_rule(self):
        mk = lambda rule: Alert(rule=rule, metric="m", round_index=0,  # noqa: E731
                                time=0.0, value=1.0, target=0.0,
                                comparison="<=", burn_rate=1.0, window=1)
        assert alert_summary([mk("a"), mk("b"), mk("a")]) == {"a": 2, "b": 1}


# -- end-to-end on simulations -------------------------------------------------

def gray_slo_sim(cluster, *, rules=None, seed=4):
    engine = SLOEngine(rules if rules is not None else default_rules())
    config = SimulatorConfig(
        profiling_mode=ProfilingMode.ORACLE, seed=seed, max_hours=100,
        fault_models=[GrayFailureModel(rate=20.0, slowdown=0.3,
                                       duration=14400.0, seed=17),
                      PlacementFailureModel(failure_prob=0.15, seed=18)],
        health=HealthConfig(min_samples=3),
        observers=[SLOObserver(engine)])
    result = Simulator(cluster, SiaScheduler(), jobs(4), config).run()
    return result, engine


class TestEndToEnd:
    def test_fault_heavy_run_fires_alerts_with_node_causality(
            self, hetero_cluster):
        """The CI observability scenario: a gray-failure run under the
        default ruleset must page on quarantined capacity, and at least one
        alert must name the offending node(s)."""
        result, engine = gray_slo_sim(hetero_cluster)
        counts = alert_summary(engine.alerts)
        assert counts.get("quarantined-capacity", 0) > 0
        assert any(a.context.get("nodes") for a in engine.alerts)
        # Alerts landed on the rounds that fired them.
        timeline = result.alerts_timeline()
        assert [a for _, a in timeline] == engine.alerts
        assert result.alert_counts() == counts

    def test_clean_run_fires_nothing(self, hetero_cluster):
        engine = SLOEngine(default_rules())
        simulate(hetero_cluster, SiaScheduler(), jobs(2),
                 profiling_mode=ProfilingMode.ORACLE,
                 observers=[SLOObserver(engine)])
        assert engine.alerts == []

    def test_post_hoc_replay_reproduces_live_alerts(self, hetero_cluster):
        """evaluate_result over the recorded rounds must produce exactly
        the alerts the live observer attached (recorded solve_time drives
        the wall-clock rules either way)."""
        result, engine = gray_slo_sim(hetero_cluster)
        replayed = evaluate_result(result, default_rules())
        assert replayed == engine.alerts

    def test_observed_run_matches_unobserved_rounds(self, hetero_cluster):
        """Determinism: attaching the SLO observer must not perturb any
        simulation-state field (the chaos oracle's contract)."""
        from repro.obs.diff import diff_runs
        observed, _ = gray_slo_sim(hetero_cluster)
        config = SimulatorConfig(
            profiling_mode=ProfilingMode.ORACLE, seed=4, max_hours=100,
            fault_models=[GrayFailureModel(rate=20.0, slowdown=0.3,
                                           duration=14400.0, seed=17),
                          PlacementFailureModel(failure_prob=0.15, seed=18)],
            health=HealthConfig(min_samples=3))
        plain = Simulator(hetero_cluster, SiaScheduler(), jobs(4),
                          config).run()
        assert diff_runs(plain, observed).mismatches == []

"""Tests for the live streaming exporters (repro.obs.stream): incremental
JSONL with atomic finalize, crash-durable prefixes, Prometheus exposition,
the HTTP endpoint, the watch view, and the determinism contract."""

import io as stdlib_io
import json
import urllib.request

import pytest

from repro import io
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs.diff import diff_runs
from repro.obs.ledger import GoodputLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine, SLORule
from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                              JsonlStreamWriter, LedgerStreamObserver,
                              MetricsHTTPServer, PrometheusSnapshotObserver,
                              SLOObserver, WatchView, parse_prometheus_text,
                              prometheus_text)
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.sim import Simulator, SimulatorConfig, simulate
from repro.sim.chaos import CrashAt, SimulatedCrash
from repro.sim.checkpoint import CheckpointConfig, latest_valid_checkpoint


def jobs(n=2, scale=0.05):
    return [make_job(f"j{i}", "resnet18", i * 60.0, work_scale=scale)
            for i in range(n)]


# -- JSONL writer --------------------------------------------------------------

class TestJsonlStreamWriter:
    def test_lines_land_in_part_until_finalize(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = JsonlStreamWriter(path)
        writer.write({"a": 1})
        writer.flush()
        assert writer.part_path.exists() and not path.exists()
        writer.finalize()
        assert path.exists() and not writer.part_path.exists()
        assert json.loads(path.read_text()) == {"a": 1}

    def test_close_leaves_part_prefix(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = JsonlStreamWriter(path)
        writer.write({"a": 1})
        writer.close()
        assert writer.part_path.exists() and not path.exists()

    def test_write_after_finalize_rejected(self, tmp_path):
        writer = JsonlStreamWriter(tmp_path / "s.jsonl")
        writer.finalize()
        with pytest.raises(ValueError, match="closed"):
            writer.write({})

    def test_finalize_is_idempotent(self, tmp_path):
        writer = JsonlStreamWriter(tmp_path / "s.jsonl")
        writer.write({"a": 1})
        writer.finalize()
        writer.finalize()  # must not raise


# -- streamed artifacts round-trip ---------------------------------------------

def streamed_run(cluster, tmp_path, *, rules=None):
    tracer = Tracer()
    registry = MetricsRegistry()
    slo = SLOEngine(rules, metrics=registry)
    observers = [
        SLOObserver(slo),
        AlertStreamObserver(tmp_path / "alerts.jsonl", "sia"),
        EventStreamObserver(tracer, tmp_path / "events.jsonl", registry),
        LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia"),
        PrometheusSnapshotObserver(registry, tmp_path / "metrics.prom"),
    ]
    config = SimulatorConfig(profiling_mode=ProfilingMode.ORACLE,
                             tracer=tracer, metrics=registry,
                             observers=observers)
    return Simulator(cluster, SiaScheduler(), jobs(), config).run()


class TestStreamedArtifacts:
    def test_streamed_events_match_end_of_run_dump(self, hetero_cluster,
                                                   tmp_path):
        result = streamed_run(hetero_cluster, tmp_path)
        from repro.obs.export import read_events_jsonl
        spans, metrics = read_events_jsonl(tmp_path / "events.jsonl")
        assert [s.span_id for s in spans] == \
            [s.span_id for s in result.spans]
        assert metrics == result.final_metrics
        trailer = json.loads(
            (tmp_path / "events.jsonl").read_text().splitlines()[-1])
        assert trailer["kind"] == "stream_end"
        assert trailer["spans"] == len(result.spans)

    def test_streamed_ledger_matches_post_hoc_ledger(self, hetero_cluster,
                                                     tmp_path):
        result = streamed_run(hetero_cluster, tmp_path)
        ledger, events = io.load_ledger(tmp_path / "ledger.jsonl")
        assert ledger.entries == GoodputLedger.from_result(result).entries
        assert events == result.allocation_events()

    def test_streamed_alerts_load_back(self, hetero_cluster, tmp_path):
        # A rule that trivially fires so the alerts stream is non-empty.
        rules = [SLORule(name="always", metric="rounds_planned", target=0.0,
                         comparison="<=", window=4, error_budget=0.5,
                         min_samples=1, cooldown=1000)]
        result = streamed_run(hetero_cluster, tmp_path, rules=rules)
        alerts = io.load_alerts(tmp_path / "alerts.jsonl")
        assert alerts == [a for _, a in result.alerts_timeline()]
        assert len(alerts) == 1
        lines = (tmp_path / "alerts.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"kind": "alerts_end",
                                         "num_alerts": 1}

    def test_prometheus_snapshot_parses(self, hetero_cluster, tmp_path):
        streamed_run(hetero_cluster, tmp_path)
        samples = parse_prometheus_text(
            (tmp_path / "metrics.prom").read_text())
        assert samples["rounds_planned"] > 0
        assert any(name.startswith("solve_time_s") for name in samples)


# -- crash durability ----------------------------------------------------------

class TestCrashDurability:
    def test_kill_mid_run_leaves_parseable_prefixes(self, hetero_cluster,
                                                    tmp_path):
        """Killing the engine mid-run must leave every stream as a valid
        JSONL prefix at ``<path>.part`` — no torn line, no final file."""
        tracer = Tracer()
        observers = [
            EventStreamObserver(tracer, tmp_path / "events.jsonl"),
            LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia"),
        ]
        config = SimulatorConfig(
            profiling_mode=ProfilingMode.ORACLE, tracer=tracer,
            observers=observers,
            checkpoint=CheckpointConfig(directory=tmp_path / "ckpt",
                                        every_rounds=3,
                                        crash_hook=CrashAt(6)))
        with pytest.raises(SimulatedCrash):
            Simulator(hetero_cluster, SiaScheduler(), jobs(4, scale=2.0),
                      config).run()
        for name in ("events.jsonl", "ledger.jsonl"):
            final = tmp_path / name
            part = final.with_name(final.name + ".part")
            assert part.exists() and not final.exists()
            lines = part.read_text().splitlines()
            assert lines  # rounds were flushed before the crash
            for line in lines:
                json.loads(line)  # every line parses
            # The crash preempted the completeness trailer.
            assert json.loads(lines[-1])["kind"] not in ("stream_end",
                                                         "ledger_end")

    def test_resumed_run_restreams_full_history(self, hetero_cluster,
                                                tmp_path):
        """Fresh observers attached to a resumed run catch up from the
        restored rounds: the final streamed ledger covers the whole run,
        not just the post-resume suffix."""
        def build(observers, crash_hook=None):
            config = SimulatorConfig(
                profiling_mode=ProfilingMode.ORACLE, observers=observers,
                checkpoint=CheckpointConfig(directory=tmp_path / "ckpt",
                                            every_rounds=3,
                                            crash_hook=crash_hook))
            return Simulator(hetero_cluster, SiaScheduler(),
                             jobs(4, scale=2.0), config)

        with pytest.raises(SimulatedCrash):
            build([LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia")],
                  crash_hook=CrashAt(6)).run()
        state, _, _ = latest_valid_checkpoint(tmp_path / "ckpt")
        resumed = build([LedgerStreamObserver(tmp_path / "ledger.jsonl",
                                              "sia")]).run(resume_from=state)
        ledger, events = io.load_ledger(tmp_path / "ledger.jsonl")
        assert ledger.entries == \
            GoodputLedger.from_result(resumed).entries
        assert events == resumed.allocation_events()


# -- determinism contract ------------------------------------------------------

class TestDeterminism:
    def test_fully_observed_run_is_bit_identical(self, hetero_cluster,
                                                 tmp_path):
        """The tentpole's hard constraint: the full streaming + SLO stack
        must not change a single compared field of the simulation."""
        plain = simulate(hetero_cluster, SiaScheduler(), jobs(),
                         profiling_mode=ProfilingMode.ORACLE)
        observed = streamed_run(hetero_cluster, tmp_path)
        assert diff_runs(plain, observed).mismatches == []


# -- Prometheus exposition -----------------------------------------------------

class TestPrometheus:
    def test_registry_renders_all_metric_types(self):
        registry = MetricsRegistry()
        registry.counter("rounds_planned").inc(3)
        registry.gauge("queue.depth").set(1.5)
        for v in (0.1, 0.2, 0.4):
            registry.histogram("solve_time_s").observe(v)
        text = prometheus_text(registry)
        assert "# TYPE rounds_planned counter" in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE solve_time_s summary" in text
        samples = parse_prometheus_text(text)
        assert samples["rounds_planned"] == 3
        assert samples["queue_depth"] == 1.5
        assert samples['solve_time_s{quantile="0.95"}'] == \
            pytest.approx(0.38)
        assert samples["solve_time_s_count"] == 3
        assert samples["solve_time_s_sum"] == pytest.approx(0.7)

    def test_flat_snapshot_renders_as_gauges(self):
        text = prometheus_text({"util.t4": 0.5, "2weird name": 1.0})
        samples = parse_prometheus_text(text)
        assert samples["util_t4"] == 0.5
        assert samples["_2weird_name"] == 1.0  # sanitized legal name

    @pytest.mark.parametrize("bad", [
        "metric 1 2 3",
        "1bad_name 2",
        "# NOPE foo bar",
        "# TYPE foo flavor",
        "no_value",
    ])
    def test_parser_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}


# -- HTTP endpoint -------------------------------------------------------------

class TestMetricsHTTPServer:
    def test_endpoints_serve_live_state(self, hetero_cluster):
        registry = MetricsRegistry()
        slo = SLOEngine([SLORule(name="always", metric="rounds_planned",
                                 target=0.0, comparison="<=", window=4,
                                 error_budget=0.5, min_samples=1,
                                 cooldown=1000)])
        server = MetricsHTTPServer(registry, slo=slo)
        port = server.start()
        try:
            config = SimulatorConfig(
                profiling_mode=ProfilingMode.ORACLE, metrics=registry,
                observers=[SLOObserver(slo), server])
            result = Simulator(hetero_cluster, SiaScheduler(), jobs(),
                               config).run()

            def get(path):
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}{path}") as resp:
                    return resp.status, resp.headers, resp.read().decode()

            status, headers, body = get("/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            samples = parse_prometheus_text(body)
            assert samples["rounds_planned"] == len(result.rounds)

            _, _, health = get("/healthz")
            state = json.loads(health)
            assert state["status"] == "finished"
            assert state["rounds"] == len(result.rounds)

            _, _, alerts_body = get("/alerts")
            alerts = json.loads(alerts_body)
            assert len(alerts) == len(slo.alerts)
            assert alerts[0]["rule"] == "always"

            with pytest.raises(urllib.error.HTTPError):
                get("/nope")
        finally:
            server.close()


# -- watch view ----------------------------------------------------------------

class TestWatchView:
    def test_prints_round_lines_alerts_and_summary(self, hetero_cluster):
        out = stdlib_io.StringIO()
        slo = SLOEngine([SLORule(name="always", metric="rounds_planned",
                                 target=0.0, comparison="<=", window=4,
                                 error_budget=0.5, min_samples=1,
                                 cooldown=1000)])
        result = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          profiling_mode=ProfilingMode.ORACLE,
                          observers=[SLOObserver(slo),
                                     WatchView(out, slo=slo)])
        text = out.getvalue()
        lines = text.splitlines()
        round_lines = [ln for ln in lines if ln.startswith("r")]
        assert len(round_lines) == len(result.rounds)
        assert any("ALERT" in ln and "always" in ln for ln in lines)
        assert lines[-1].startswith(f"done: {len(result.rounds)} rounds")

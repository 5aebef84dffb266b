"""Tests for trace/result JSON serialization."""

import json

import pytest

from repro import io
from repro.cluster import presets
from repro.core.types import AdaptivityMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import make_job
from repro.metrics import summarize
from repro.obs.stream import AlertStreamObserver, LedgerStreamObserver
from repro.schedulers import SiaScheduler
from repro.sim import simulate
from repro.workloads import philly_trace
from repro.workloads.trace import Trace


def _stream(observer, result):
    """Write a finished result through a stream observer the way a live
    run does: every recorded round, then the finalize trailer."""
    observer.on_round(result, len(result.rounds) - 1, 0.0)
    observer.on_finalize(result)


class TestTraceRoundtrip:
    def test_plain_trace(self, tmp_path):
        trace = philly_trace(seed=0, num_jobs=20)
        path = tmp_path / "trace.json"
        io.save_trace(trace, path)
        loaded = io.load_trace(path)
        assert loaded.name == trace.name
        assert loaded.seed == trace.seed
        for a, b in zip(trace.jobs, loaded.jobs):
            assert a == b

    def test_exotic_jobs_roundtrip(self, tmp_path):
        jobs = [
            make_job("hybrid", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                     max_gpus=64),
            make_job("rigid", "bert", 10.0, adaptivity=AdaptivityMode.RIGID,
                     fixed_num_gpus=4, fixed_batch_size=48),
            make_job("infer", "resnet18", 20.0, workload="batch_inference"),
            make_job("serve", "bert", 30.0, workload="latency_inference",
                     latency_slo=0.01),
            make_job("pinned", "yolov3", 40.0, preemptible=False),
        ]
        path = tmp_path / "trace.json"
        io.save_trace(Trace(name="exotic", jobs=jobs, seed=7), path)
        loaded = io.load_trace(path)
        assert loaded.jobs == jobs
        assert loaded.jobs[0].hybrid == HybridSpec()

    def test_wrong_kind_rejected(self, tmp_path):
        trace = philly_trace(seed=0, num_jobs=4)
        path = tmp_path / "x.json"
        io.save_trace(trace, path)
        with pytest.raises(ValueError, match="expected 'result'"):
            io.load_result(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "trace", "format_version": 99,
                                    "name": "x", "jobs": []}))
        with pytest.raises(ValueError, match="format version"):
            io.load_trace(path)


class TestResultRoundtrip:
    @pytest.fixture(scope="class")
    def result(self):
        cluster = presets.heterogeneous()
        jobs = [make_job(f"j{i}", "resnet18", i * 60.0, work_scale=0.05)
                for i in range(3)]
        return simulate(cluster, SiaScheduler(), jobs)

    def test_metrics_preserved(self, result, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert summarize(loaded).as_row() == summarize(result).as_row()

    def test_round_records_preserved(self, result, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert len(loaded.rounds) == len(result.rounds)
        assert loaded.rounds[0].allocations == result.rounds[0].allocations

    def test_rounds_optional(self, result, tmp_path):
        path = tmp_path / "slim.json"
        io.save_result(result, path, include_rounds=False)
        loaded = io.load_result(path)
        assert loaded.rounds == []
        assert len(loaded.jobs) == len(result.jobs)


class TestAlertsRoundtrip:
    @pytest.fixture(scope="class")
    def alerted(self):
        """A short run SLO-observed under a rule that always fires."""
        from repro.obs.slo import SLOEngine, SLORule
        from repro.obs.stream import SLOObserver
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        engine = SLOEngine([SLORule(
            name="always", metric="rounds_planned", target=0.0,
            comparison="<=", window=4, error_budget=0.5, min_samples=1,
            cooldown=1)])
        result = simulate(cluster, SiaScheduler(), jobs,
                          observers=[SLOObserver(engine)])
        assert result.alert_counts()  # the fixture must actually alert
        return result

    def test_result_json_preserves_alerts(self, alerted, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(alerted, path)
        loaded = io.load_result(path)
        assert loaded.alerts_timeline() == alerted.alerts_timeline()
        assert loaded.alert_counts() == alerted.alert_counts()

    def test_alert_counts_survive_without_rounds(self, alerted, tmp_path):
        path = tmp_path / "slim.json"
        io.save_result(alerted, path, include_rounds=False)
        loaded = io.load_result(path)
        assert loaded.rounds == []
        assert loaded.alert_counts() == alerted.alert_counts()

    def test_unalerted_result_json_has_no_alert_keys(self, tmp_path):
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        result = simulate(cluster, SiaScheduler(), jobs)
        path = tmp_path / "result.json"
        io.save_result(result, path)
        payload = json.loads(path.read_text())
        assert "alert_counts" not in payload
        assert all("alerts" not in rnd for rnd in payload["rounds"])

    def test_save_load_alerts_jsonl(self, alerted, tmp_path):
        path = tmp_path / "alerts.jsonl"
        _stream(AlertStreamObserver(path, alerted.scheduler_name), alerted)
        alerts = io.load_alerts(path)
        assert alerts == [a for _, a in alerted.alerts_timeline()]
        assert json.loads(path.read_text().splitlines()[-1]) == {
            "kind": "alerts_end", "num_alerts": len(alerts)}
        assert list(tmp_path.glob("*.part")) == []

    def test_load_alerts_requires_header(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        path.write_text(json.dumps({"kind": "alert", "rule": "r",
                                    "metric": "m", "round_index": 0,
                                    "time": 0.0, "value": 1.0,
                                    "target": 0.0, "comparison": "<=",
                                    "burn_rate": 1.0, "window": 1}) + "\n")
        with pytest.raises(ValueError, match="header"):
            io.load_alerts(path)

    def test_load_alerts_rejects_unknown_kind(self, alerted, tmp_path):
        path = tmp_path / "alerts.jsonl"
        _stream(AlertStreamObserver(path, alerted.scheduler_name), alerted)
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="mystery"):
            io.load_alerts(path)


class TestLedgerTrailerAcceptance:
    def test_load_ledger_accepts_streamed_trailer(self, tmp_path):
        """A finalized stream (with its ``ledger_end`` trailer) and the
        ``.part`` prefix a crashed run leaves (no trailer) load the same."""
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        result = simulate(cluster, SiaScheduler(), jobs)
        path = tmp_path / "ledger.jsonl"
        _stream(LedgerStreamObserver(path, result.scheduler_name), result)
        ledger, events = io.load_ledger(path)
        assert json.loads(path.read_text().splitlines()[-1]) == {
            "kind": "ledger_end", "num_rounds": len(result.rounds)}
        crashed = LedgerStreamObserver(tmp_path / "crashed.jsonl",
                                       result.scheduler_name)
        crashed.on_round(result, len(result.rounds) - 1, 0.0)
        crashed.close()
        again, again_events = io.load_ledger(crashed.writer.part_path)
        assert again.entries == ledger.entries
        assert again_events == events
        assert ledger.entries and events


class TestAtomicWriters:
    """Every repro.io writer goes through the shared atomic helper: a crash
    mid-save must never truncate an existing artifact."""

    @pytest.fixture(scope="class")
    def result(self):
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        return simulate(cluster, SiaScheduler(), jobs)

    def test_save_trace_leaves_no_tmp(self, tmp_path):
        trace = philly_trace(seed=0, num_jobs=5)
        path = tmp_path / "trace.json"
        io.save_trace(trace, path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_result_leaves_no_tmp(self, result, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(result, path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_ledger_stream_leaves_no_part(self, result, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _stream(LedgerStreamObserver(path, result.scheduler_name), result)
        assert path.exists()
        assert list(tmp_path.glob("*.part")) == []

    def test_interrupted_write_preserves_previous_file(self, result,
                                                       tmp_path,
                                                       monkeypatch):
        from repro import atomicio
        path = tmp_path / "result.json"
        io.save_result(result, path)
        before = path.read_bytes()

        original = atomicio.atomic_write_bytes

        def dying_write(p, data, *, crash_hook=None):
            def hook(stage):
                if stage == "mid_write":
                    raise RuntimeError("simulated crash")
            original(p, data, crash_hook=hook)

        monkeypatch.setattr(io, "atomic_write_text",
                            lambda p, text: dying_write(
                                p, text.encode("utf-8")))
        with pytest.raises(RuntimeError, match="simulated crash"):
            io.save_result(result, path)
        assert path.read_bytes() == before  # old artifact untouched
        assert io.load_result(path).scheduler_name == result.scheduler_name

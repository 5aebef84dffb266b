"""repro.obs — dependency-free observability: spans, metrics, exporters.

* :mod:`repro.obs.tracer`  — :class:`Tracer` (nestable spans, instant
  events) and the near-zero-cost :data:`NULL_TRACER` default.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges,
  and histograms, snapshotted per round by the simulator.
* :mod:`repro.obs.export`  — Chrome/Perfetto ``trace_event`` JSON, the
  JSONL event-log reader, and human-readable digests.
* :mod:`repro.obs.ledger`  — per-job goodput ledger: estimated vs realized
  goodput per round, estimation-error series, queue-wait attribution.
* :mod:`repro.obs.audit`   — decision audit trail: classified
  allocation-change events (admit/scale/migrate/preempt/resume/finish).
* :mod:`repro.obs.diff`    — run diff: one aligned walk over two runs
  (:func:`diff_runs` -> :class:`RunDiff`: mismatches, allocation deltas,
  divergence point) for the chaos harness and the counterfactual replay
  engine, plus ledger alignment.
* :mod:`repro.obs.window`  — O(1)-per-round online aggregates: rolling
  percentile windows, EMAs, and rates over per-round series.
* :mod:`repro.obs.slo`     — declarative SLO rules evaluated live each
  round, firing :class:`Alert` events with ledger/audit/health-backed
  causal context (burn-rate semantics).
* :mod:`repro.obs.stream`  — live exporters: incremental JSONL streaming
  with atomic finalize, Prometheus text exposition, an in-flight HTTP
  endpoint, and the ``repro watch`` terminal view.

Attach a tracer to a simulation via ``SimulatorConfig(tracer=Tracer())``
(the CLI's ``--trace-out``/``--events-out`` do this for you), then read
``SimulationResult.spans`` / ``phase_time_breakdown()`` / ``span_stats()``
or export with :func:`repro.obs.export.write_chrome_trace`.
"""

from repro.obs.audit import (AllocationEvent, AuditTrail, classify_change,
                             event_counts, events_for_job, migration_flows)
from repro.obs.diff import (AllocDelta, DivergencePoint, MetricDelta,
                            RoundDelta, RunDiff, aligned_ledger_deltas,
                            diff_runs, fault_recovery_seconds)
from repro.obs.export import (alert_digest, chrome_trace, read_events_jsonl,
                              run_diff_markdown, run_digest, span_digest,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.ledger import (GoodputLedger, LedgerEntry, queue_wait_by_job,
                              round_entries)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               interpolated_quantile)
from repro.obs.slo import (Alert, SLOEngine, SLORule, alert_summary,
                           default_rules, evaluate_result, parse_rules)
from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                              JsonlStreamWriter, LedgerStreamObserver,
                              MetricsHTTPServer, PrometheusSnapshotObserver,
                              RoundObserver, SLOObserver, WatchView,
                              parse_prometheus_text, prometheus_text)
from repro.obs.tracer import (NULL_TRACER, PLAN_PHASES, NullTracer,
                              SpanRecord, SpanStats, Tracer)
from repro.obs.window import EMA, RollingRate, RollingWindow

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "PLAN_PHASES", "SpanRecord",
    "SpanStats",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    "read_events_jsonl", "span_digest", "run_digest",
    "alert_digest",
    "GoodputLedger", "LedgerEntry", "queue_wait_by_job",
    "AllocationEvent", "AuditTrail", "classify_change", "event_counts",
    "events_for_job", "migration_flows",
    "AllocDelta", "DivergencePoint", "MetricDelta", "RoundDelta", "RunDiff",
    "aligned_ledger_deltas", "diff_runs", "fault_recovery_seconds",
    "run_diff_markdown",
    "interpolated_quantile", "round_entries",
    "RollingWindow", "EMA", "RollingRate",
    "Alert", "SLORule", "SLOEngine", "default_rules", "parse_rules",
    "evaluate_result", "alert_summary",
    "RoundObserver", "JsonlStreamWriter", "EventStreamObserver",
    "LedgerStreamObserver", "AlertStreamObserver", "SLOObserver",
    "PrometheusSnapshotObserver", "MetricsHTTPServer", "WatchView",
    "prometheus_text", "parse_prometheus_text",
]

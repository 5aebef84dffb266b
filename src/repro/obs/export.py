"""Exporters for recorded spans and metrics.

Three formats:

* **Chrome/Perfetto trace** — the ``trace_event`` JSON format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev (open the file directly).
  Spans become complete ("X") events; instant events become "i" events.
* **JSONL event log** — one JSON object per line (spans, instant events,
  and a final metrics snapshot), for ad-hoc ``jq``/pandas analysis.
  Written live by :class:`repro.obs.stream.EventStreamObserver`; read
  back by :func:`read_events_jsonl`.
* **Digest** — a human-readable per-run summary (phase breakdown, span
  stats, metrics) printed by the CLI's ``--metrics-digest``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.tracer import SpanRecord

#: trace_event phases we emit (complete spans, instants, metadata).
_VALID_PHASES = {"X", "i", "M"}


# -- Chrome / Perfetto trace_event JSON --------------------------------------

def chrome_trace(spans: Sequence[SpanRecord],
                 events: Iterable[tuple[str, float, dict[str, Any]]] = (),
                 *, process_name: str = "repro") -> dict[str, Any]:
    """Build a ``trace_event`` JSON payload (the "JSON object format":
    a dict with a ``traceEvents`` list) from recorded spans."""
    trace_events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for span in spans:
        event: dict[str, Any] = {
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,        # trace_event wants microseconds
            "dur": span.duration * 1e6,
            "pid": 0,
            "tid": 0,
        }
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event["args"] = args
        trace_events.append(event)
    for name, ts, attrs in events:
        trace_events.append({
            "name": name, "ph": "i", "ts": ts * 1e6,
            "pid": 0, "tid": 0, "s": "t", "args": dict(attrs),
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[SpanRecord], path: str | Path,
                       events: Iterable[tuple[str, float, dict[str, Any]]] = (),
                       ) -> None:
    payload = chrome_trace(spans, events)
    validate_chrome_trace(payload)
    Path(path).write_text(json.dumps(payload))


def validate_chrome_trace(payload: Any) -> None:
    """Raise ValueError unless ``payload`` is a well-formed trace_event
    JSON object (the schema Perfetto/chrome://tracing loads)."""
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        raise ValueError("trace payload needs a 'traceEvents' list")
    for i, event in enumerate(trace_events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{i}] lacks a string 'name'")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"traceEvents[{i}] has unsupported ph={phase!r}")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)) or event["ts"] < 0:
            raise ValueError(f"traceEvents[{i}] lacks a non-negative 'ts'")
        if phase == "X" and (not isinstance(event.get("dur"), (int, float))
                             or event["dur"] < 0):
            raise ValueError(f"traceEvents[{i}] ('X') lacks a valid 'dur'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"traceEvents[{i}] lacks integer {key!r}")


# -- JSONL event log ----------------------------------------------------------

def read_events_jsonl(path: str | Path,
                      ) -> tuple[list[SpanRecord], dict[str, float]]:
    """Read an event log written by
    :class:`repro.obs.stream.EventStreamObserver` (``--events-out``):
    (spans, final metrics snapshot)."""
    spans: list[SpanRecord] = []
    metrics: dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        item = json.loads(line)
        kind = item.get("kind")
        if kind == "span":
            spans.append(SpanRecord(
                name=item["name"], start=item["start"],
                duration=item["duration"], span_id=item["span_id"],
                parent_id=item["parent_id"], depth=item["depth"],
                attrs=item.get("attrs", {})))
        elif kind == "metrics":
            metrics = dict(item.get("values", {}))
    return spans, metrics


# -- counterfactual run diffs --------------------------------------------------

def run_diff_markdown(diff: Any) -> str:
    """Render a :class:`~repro.obs.diff.RunDiff` as a markdown section —
    shared by the report's decision-diff section and standalone export."""
    over = ", ".join(f"`{k}={v}`" for k, v in diff.overrides.items()) \
        or "*(none — identity fork)*"
    lines = [
        "## Counterfactual diff",
        "",
        f"Base `{diff.base_scheduler}` ({diff.base_rounds} rounds) vs fork "
        f"`{diff.fork_scheduler}` ({diff.fork_rounds} rounds), "
        f"branched at round {diff.fork_round}.",
        f"Overrides: {over}.",
        "",
    ]
    if diff.identical:
        lines.append("The two futures are **bit-identical** (modulo "
                     "wall-clock telemetry).")
    else:
        d = diff.divergence
        lines.append(f"**Divergence at round {d.round_index}** "
                     f"(t={d.time:.0f}s): {d.reason}. "
                     f"Jobs: {', '.join(d.jobs) or '-'}.")
    if diff.metrics:
        lines += ["", "| metric | base | fork | delta |",
                  "| --- | --- | --- | --- |"]
        for metric in diff.metrics:
            lines.append(f"| {metric.name} | {metric.base:.3f} "
                         f"| {metric.fork:.3f} | {metric.delta:+.3f} |")
    if diff.round_deltas:
        shown = diff.round_deltas[:20]
        lines += ["", f"{len(diff.round_deltas)} differing round(s)"
                  + (f" (first {len(shown)} shown)"
                     if len(shown) < len(diff.round_deltas) else "") + ":",
                  ""]
        for rnd in shown:
            tag = f" [only in {rnd.only_in}]" if rnd.only_in else ""
            changes = "; ".join(c.describe() for c in rnd.changes)
            lines.append(f"- round {rnd.round_index} "
                         f"(t={rnd.time:.0f}s){tag}: {changes}")
    return "\n".join(lines) + "\n"


# -- human-readable digest -----------------------------------------------------

def span_digest(spans: Sequence[SpanRecord]) -> str:
    """Per-name span table: count, total, mean, max (seconds)."""
    stats: dict[str, list[float]] = {}
    for span in spans:
        stats.setdefault(span.name, []).append(span.duration)
    if not stats:
        return "(no spans recorded)"
    width = max(len(name) for name in stats)
    lines = [f"{'span':<{width}}  {'count':>6}  {'total_s':>9}  "
             f"{'mean_s':>9}  {'max_s':>9}"]
    for name in sorted(stats, key=lambda n: -sum(stats[n])):
        durs = stats[name]
        lines.append(f"{name:<{width}}  {len(durs):>6}  {sum(durs):>9.4f}  "
                     f"{sum(durs) / len(durs):>9.6f}  {max(durs):>9.6f}")
    return "\n".join(lines)


def alert_digest(result: Any) -> str:
    """Alert/SLO digest block: fired alerts by rule plus the final burn-rate
    gauges.  Empty string when the run was not SLO-observed (nothing to
    say), so callers can splice it in conditionally."""
    counts = result.alert_counts() if hasattr(result, "alert_counts") else {}
    metrics = getattr(result, "final_metrics", None) or {}
    burns = {k[len("slo.burn_rate."):]: v for k, v in metrics.items()
             if k.startswith("slo.burn_rate.")}
    if not counts and not burns:
        return ""
    lines = ["slo alerts:"]
    if counts:
        for rule in sorted(counts, key=lambda r: (-counts[r], r)):
            burn = burns.pop(rule, None)
            tail = f" (final burn rate {burn:.2f})" if burn is not None else ""
            lines.append(f"  {rule}: {counts[rule]} alert(s){tail}")
    else:
        lines.append("  (none fired)")
    for rule in sorted(burns):
        lines.append(f"  {rule}: 0 alert(s) "
                     f"(final burn rate {burns[rule]:.2f})")
    return "\n".join(lines)


def run_digest(result: Any) -> str:
    """Observability digest for one :class:`SimulationResult`-like object
    (anything with ``spans``, ``final_metrics``, ``rounds``).  Degenerate
    inputs — no rounds, no spans, or no metrics snapshot — each get an
    explicit line instead of a silently missing section."""
    sections = [f"== observability digest: {result.scheduler_name} =="]
    rounds = result.rounds
    if rounds:
        breakdown = result.phase_time_breakdown()
        total_solve = sum(r.solve_time for r in rounds)
        if any(v > 0 for v in breakdown.values()):
            parts = ", ".join(f"{k}={v:.4f}s" for k, v in breakdown.items())
            sections.append(f"phase breakdown: {parts} "
                            f"(recorded solve_time total: {total_solve:.4f}s)")
    else:
        sections.append("(no per-round records)")
    if result.spans:
        sections.append(span_digest(result.spans))
    else:
        sections.append("(tracing disabled; rerun with --trace-out or "
                        "--events-out for spans)")
    alerts = alert_digest(result)
    if alerts:
        sections.append(alerts)
    if result.final_metrics:
        sections.append("metrics:")
        sections.extend(f"  {k}: {v:g}"
                        for k, v in sorted(result.final_metrics.items()))
    else:
        sections.append("(no metrics snapshot recorded)")
    return "\n".join(sections)

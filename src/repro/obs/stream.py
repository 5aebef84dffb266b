"""Live streaming exporters: JSONL-as-you-go, Prometheus, HTTP, watch.

Everything the obs stack used to write *after* the run ends (events,
ledger, metrics) can now stream *during* it, through round observers the
engine invokes after each recorded round (``SimulatorConfig.observers``).
The contract every observer here honors:

* **read-only** with respect to simulation state — an observed run is
  bit-identical to an unobserved one (the only writes are ``record.alerts``
  and ``slo.*``/``stream.*`` metrics, both excluded from the chaos
  determinism oracle exactly like wall-clock timing);
* **crash-durable** — stream files are flushed at every round boundary, so
  killing the process mid-run leaves a valid, parseable JSONL prefix at
  ``<path>.part``; a clean finish atomically renames it over the final
  path (the same write-tmp-then-rename discipline as
  :mod:`repro.atomicio`);
* **resume-aware** — each observer tracks a round cursor into
  ``result.rounds``, so attaching to a run resumed from a checkpoint first
  catches up on the restored history before streaming new rounds.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from pathlib import Path
from typing import Any, TextIO

from repro.obs.ledger import round_entries
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.window import RollingWindow

#: kept in lockstep with :data:`repro.io.FORMAT_VERSION` (not imported —
#: ``repro.io`` loads this package's ``__init__``, so a module-level import
#: back into it would be circular).
_FORMAT_VERSION = 1


# -- observer protocol ---------------------------------------------------------

class RoundObserver:
    """Base class for per-round engine hooks.

    The engine calls :meth:`on_round` after appending each
    :class:`~repro.sim.telemetry.RoundRecord` and :meth:`on_finalize` once
    the result is complete.  The cursor loop makes observers resume-aware:
    the first ``on_round`` after a checkpoint restore walks every
    already-recorded round before the new one.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def on_round(self, result: Any, round_index: int, dt: float) -> None:
        rounds = result.rounds
        while self._cursor < len(rounds):
            index = self._cursor
            self._cursor += 1
            self.observe(rounds[index], index, dt)

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        """Process one recorded round (override)."""

    def on_finalize(self, result: Any) -> None:
        """The run completed normally (override; flush/rename here)."""

    def close(self) -> None:
        """The run is over (normally or not); release file handles.  Never
        renames a part file — an aborted stream must stay a ``.part``."""


# -- JSONL streaming writer ----------------------------------------------------

class JsonlStreamWriter:
    """Incremental JSONL writer with an atomic finalize.

    Lines land in ``<path>.part``; :meth:`flush` (call it at round
    boundaries) pushes them to the OS so a crash leaves a parseable
    prefix; :meth:`finalize` fsyncs and atomically renames the part file
    over ``path``.  A reader can therefore distinguish three states: final
    file (complete), ``.part`` file (truncated prefix of a crashed run),
    nothing (never started).

    Writes buffer in memory and :meth:`flush` emits them as one raw
    ``os.write`` — the per-round flush contract puts this on the
    scheduling hot path, and a single syscall per round beats the
    ``TextIOWrapper``/``BufferedWriter`` stack by a wide margin there.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.part_path = self.path.with_name(self.path.name + ".part")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: int | None = os.open(
            self.part_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        self._pending: list[str] = []
        self.lines = 0
        self.finalized = False

    def write(self, obj: dict[str, Any]) -> None:
        if self._fd is None:
            raise ValueError(f"stream {self.path} is closed")
        self._pending.append(json.dumps(obj) + "\n")
        self.lines += 1

    def write_lines(self, lines: list[str]) -> None:
        """Batched fast path: ``lines`` are pre-serialized JSON documents,
        each already newline-terminated."""
        if self._fd is None:
            raise ValueError(f"stream {self.path} is closed")
        self._pending.extend(lines)
        self.lines += len(lines)

    def flush(self) -> None:
        if self._fd is None or not self._pending:
            return
        view = memoryview("".join(self._pending).encode("utf-8"))
        self._pending.clear()
        while view:
            view = view[os.write(self._fd, view):]

    def finalize(self) -> None:
        """Durably complete the stream: fsync the part file and atomically
        rename it to the final path."""
        if self.finalized:
            return
        if self._fd is None:
            raise ValueError(f"stream {self.path} was closed before finalize")
        self.flush()
        os.fsync(self._fd)
        os.close(self._fd)
        self._fd = None
        os.replace(self.part_path, self.path)
        self.finalized = True

    def close(self) -> None:
        """Abort path: flush and close, leaving the ``.part`` prefix."""
        if self._fd is not None:
            self.flush()
            os.close(self._fd)
            self._fd = None


# -- streaming observers -------------------------------------------------------

class EventStreamObserver(RoundObserver):
    """Streams tracer spans/instants as JSONL while the run is live.

    The final file is read back by
    :func:`repro.obs.export.read_events_jsonl` exactly like the old
    end-of-run dump: spans stream in completion order, instants interleave
    (the reader ignores ordering), and finalize appends the metrics
    snapshot plus a ``stream_end`` completeness trailer.
    """

    def __init__(self, tracer: Any, path: str | Path,
                 metrics: MetricsRegistry | None = None):
        super().__init__()
        self.tracer = tracer
        self.writer = JsonlStreamWriter(path)
        self._rounds_counter = (metrics.counter("stream.events_rounds")
                                if metrics is not None else None)
        self._span_cursor = 0
        self._event_cursor = 0

    def on_round(self, result: Any, round_index: int, dt: float) -> None:
        self._drain()
        if self._rounds_counter is not None:
            self._rounds_counter.inc()
        self.writer.flush()

    def _drain(self) -> None:
        # Hand-rolled span lines (parse-identical to the json.dumps dict
        # form), batched into one buffered write: this drain sits on the
        # per-round hot path and serializing ~10 spans a round through
        # dict-building json.dumps calls measurably bends the overhead
        # budget the stream stack is gated on.
        dumps = json.dumps
        lines: list[str] = []
        spans = self.tracer.spans
        while self._span_cursor < len(spans):
            span = spans[self._span_cursor]
            self._span_cursor += 1
            attrs = dumps(span.attrs) if span.attrs else "{}"
            parent = (span.parent_id if span.parent_id is not None
                      else "null")
            lines.append(
                f'{{"kind": "span", "name": {dumps(span.name)}, '
                f'"start": {span.start!r}, '
                f'"duration": {span.duration!r}, '
                f'"span_id": {span.span_id}, "parent_id": {parent}, '
                f'"depth": {span.depth}, "attrs": {attrs}}}\n')
        events = self.tracer.events
        while self._event_cursor < len(events):
            name, ts, attrs = events[self._event_cursor]
            self._event_cursor += 1
            lines.append(
                f'{{"kind": "event", "name": {dumps(name)}, '
                f'"time": {ts!r}, "attrs": {dumps(dict(attrs))}}}\n')
        if lines:
            self.writer.write_lines(lines)

    def on_finalize(self, result: Any) -> None:
        self._drain()
        self.writer.write({"kind": "metrics",
                           "values": dict(result.final_metrics)})
        self.writer.write({"kind": "stream_end",
                           "spans": self._span_cursor,
                           "events": self._event_cursor})
        self.writer.finalize()

    def close(self) -> None:
        self.writer.close()


class LedgerStreamObserver(RoundObserver):
    """Streams the goodput ledger + audit trail (``--ledger-out``) live.

    The one writer of the ledger JSONL format: a header line, then each
    round's ``ledger_entry`` and ``alloc_event`` lines, then a
    ``ledger_end`` trailer on finalize.  :func:`repro.io.load_ledger`
    reads it back (it splits lines by kind, so a ``.part`` prefix of a
    crashed run reads back too).
    """

    def __init__(self, path: str | Path, scheduler_name: str):
        super().__init__()
        self.writer = JsonlStreamWriter(path)
        # Streamed header: num_rounds is unknowable at open time; the
        # trailer carries it instead (the loader reads neither).
        self.writer.write({"kind": "ledger",
                           "format_version": _FORMAT_VERSION,
                           "scheduler_name": scheduler_name})

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        dumps = json.dumps
        lines = [dumps({"kind": "ledger_entry", **entry.to_dict()}) + "\n"
                 for entry in round_entries(record, round_index)]
        lines += [dumps({"kind": "alloc_event", "event": event.to_dict()})
                  + "\n" for event in record.events]
        if lines:
            self.writer.write_lines(lines)
        self.writer.flush()

    def on_finalize(self, result: Any) -> None:
        self.on_round(result, len(result.rounds) - 1, 0.0)  # drain stragglers
        self.writer.write({"kind": "ledger_end",
                           "num_rounds": len(result.rounds)})
        self.writer.finalize()

    def close(self) -> None:
        self.writer.close()


class AlertStreamObserver(RoundObserver):
    """Streams fired SLO alerts (``--alerts-out``) as JSONL.

    One header line, one ``alert`` line per fired alert (reading back via
    :func:`repro.io.load_alerts`), and an ``alerts_end`` trailer.  Attach
    it *after* the :class:`SLOObserver` in ``observers`` so each round's
    alerts exist by the time this observer sees the record.
    """

    def __init__(self, path: str | Path, scheduler_name: str = ""):
        super().__init__()
        self.writer = JsonlStreamWriter(path)
        self.count = 0
        self.writer.write({"kind": "alerts",
                           "format_version": _FORMAT_VERSION,
                           "scheduler_name": scheduler_name})

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        for alert in getattr(record, "alerts", ()):
            self.writer.write({"kind": "alert", **alert.to_dict()})
            self.count += 1
        self.writer.flush()

    def on_finalize(self, result: Any) -> None:
        self.on_round(result, len(result.rounds) - 1, 0.0)
        self.writer.write({"kind": "alerts_end", "num_alerts": self.count})
        self.writer.finalize()

    def close(self) -> None:
        self.writer.close()


class SLOObserver(RoundObserver):
    """Runs an :class:`~repro.obs.slo.SLOEngine` against each round and
    attaches the fired alerts to the round record (idempotent on resume
    catch-up: re-evaluating a restored round reproduces the same alerts,
    so assignment — not append — keeps replays duplicate-free)."""

    def __init__(self, engine: SLOEngine | None = None):
        super().__init__()
        self.engine = engine or SLOEngine()

    @property
    def alerts(self) -> list:
        return self.engine.alerts

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        fired = self.engine.observe_round(record, round_index, dt)
        record.alerts = list(fired)


class PrometheusSnapshotObserver(RoundObserver):
    """Rewrites a Prometheus text-exposition snapshot of the metrics
    registry (``--prom-out``) — a node-exporter-textfile-style file a
    scraper can poll while the run is live.

    Per-round snapshots are atomic for readers (write-tmp-then-rename)
    but deliberately *not* fsynced, and are throttled to at most one per
    ``min_interval_s`` of wall clock: the file is overwritten on the next
    round anyway, so per-round durability buys nothing and an fsync per
    round would dominate fast rounds.  Only the finalize write (the
    snapshot that outlives the run) goes through the durable
    :mod:`repro.atomicio` path."""

    def __init__(self, metrics: MetricsRegistry, path: str | Path, *,
                 min_interval_s: float = 0.25):
        super().__init__()
        self.metrics = metrics
        self.path = Path(path)
        self.min_interval_s = min_interval_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._last_write = float("-inf")

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        now = time.monotonic()
        if now - self._last_write < self.min_interval_s:
            return
        self._last_write = now
        self._tmp.write_text(prometheus_text(self.metrics),
                             encoding="utf-8")
        os.replace(self._tmp, self.path)

    def on_finalize(self, result: Any) -> None:
        from repro.atomicio import atomic_write_text
        atomic_write_text(self.path, prometheus_text(self.metrics))


# -- Prometheus text exposition ------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"           # metric name
    r"(\{[^{}]*\})?"                          # optional labels
    r"\s+(-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|NaN|[+-]?Inf))$")  # value


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a legal Prometheus name."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized[:1].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prometheus_text(metrics: MetricsRegistry | dict[str, float]) -> str:
    """Render a registry (or a flat snapshot dict) in Prometheus text
    exposition format 0.0.4: counters as ``counter``, gauges as ``gauge``,
    histograms as ``summary`` (quantiles + ``_sum``/``_count``)."""
    lines: list[str] = []
    if isinstance(metrics, dict):
        for name in sorted(metrics):
            prom = prometheus_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {float(metrics[name]):g}")
        return "\n".join(lines) + "\n" if lines else ""
    for name, metric in metrics.items():
        prom = prometheus_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {metric.value:g}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {metric.value:g}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {prom} summary")
            for q in (0.5, 0.95, 0.99):
                lines.append(f'{prom}{{quantile="{q:g}"}} '
                             f"{metric.quantile(q):g}")
            lines.append(f"{prom}_sum {metric.total:g}")
            lines.append(f"{prom}_count {metric.count:g}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Strict parser/validator for the exposition format we emit: returns
    ``{name or name{labels}: value}`` and raises ``ValueError`` on any
    malformed line — the CI gate that ``/metrics`` output actually parses."""
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE" and parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: bad metric type {parts[3]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, labels, value = match.groups()
        samples[name + (labels or "")] = float(value)
    return samples


# -- HTTP endpoint -------------------------------------------------------------

class MetricsHTTPServer(RoundObserver):
    """Serves an in-flight run over stdlib HTTP (``--serve PORT``).

    Endpoints: ``/metrics`` (Prometheus text exposition of the live
    registry), ``/healthz`` (JSON run status: rounds recorded, sim time,
    jobs), ``/alerts`` (JSON list of every SLO alert fired so far).  Runs a
    ``ThreadingHTTPServer`` on a daemon thread; the handler only *reads*
    engine-owned structures (safe under the GIL for these append-only
    lists/dicts), so serving adds nothing to the scheduling path.
    """

    def __init__(self, metrics: MetricsRegistry, *,
                 slo: SLOEngine | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__()
        self.metrics = metrics
        self.slo = slo
        self.host = host
        self.port = port
        self.state: dict[str, Any] = {"status": "starting", "rounds": 0,
                                      "sim_time": 0.0, "active_jobs": 0,
                                      "running_jobs": 0}
        self._httpd = None
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path == "/metrics":
                    body = prometheus_text(server.metrics).encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/healthz":
                    body = json.dumps(server.state).encode()
                    ctype = "application/json"
                elif self.path == "/alerts":
                    alerts = server.slo.alerts if server.slo else []
                    body = json.dumps(
                        [a.to_dict() for a in alerts]).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # never spam the run's stdout per scrape

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        self.state["status"] = "running"
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True,
                                        name="repro-metrics-http")
        self._thread.start()
        return self.port

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        self.state.update(rounds=round_index + 1, sim_time=record.time,
                          active_jobs=record.active_jobs,
                          running_jobs=record.running_jobs)

    def on_finalize(self, result: Any) -> None:
        self.state["status"] = "finished"

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None


# -- live terminal view --------------------------------------------------------

class WatchView(RoundObserver):
    """``repro watch``: one compact line per round plus inline alerts.

    Plain append-only output (no cursor control) so it behaves identically
    on a terminal, piped through ``tee``, and in CI logs.
    """

    def __init__(self, out: TextIO | None = None, *,
                 slo: SLOEngine | None = None):
        super().__init__()
        self.out = out or sys.stdout
        self.slo = slo
        self._latency = RollingWindow(20)
        self._alerts = 0

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        self._latency.push(record.solve_time)
        queue = record.active_jobs - record.running_jobs
        gpus = sum(record.gpus_used.values())
        flags = " DEGRADED" if record.degraded else ""
        line = (f"r{round_index:>5} t={record.time / 3600.0:7.2f}h "
                f"jobs {record.running_jobs}/{record.active_jobs} "
                f"queue {queue:>3} gpus {gpus:>4} "
                f"solve_p95 {self._latency.quantile(0.95) * 1e3:7.1f}ms "
                f"backend {record.backend or '-'}{flags}")
        print(line, file=self.out, flush=True)
        for alert in getattr(record, "alerts", ()):
            self._alerts += 1
            print(f"       ALERT {alert.describe()}", file=self.out,
                  flush=True)

    def on_finalize(self, result: Any) -> None:
        finished = sum(1 for j in result.jobs if j.completed)
        print(f"done: {len(result.rounds)} rounds, "
              f"{finished}/{len(result.jobs)} jobs finished, "
              f"{self._alerts} alert(s)", file=self.out, flush=True)

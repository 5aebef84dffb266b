"""Online SLO engine: declarative rules, burn-rate alerting, causality.

Sia's goodput objective is only operable in production if breaches of the
scheduler's service-level objectives — slow policy rounds, solver
fallbacks, runaway queue waits, diverging goodput estimates, quarantined
capacity — surface *while the run is live*, with enough causal context to
act on.  This module evaluates a declarative ruleset against every
:class:`~repro.sim.telemetry.RoundRecord` as the engine records it and
emits structured :class:`Alert` events whose context (which jobs, nodes,
faults, and solver backends drove the breach) is pulled from the same
decision trails :mod:`repro.obs.ledger`, :mod:`repro.obs.audit`, and the
health tracker already persist.

Rule semantics (documented in DESIGN.md "Live telemetry & SLOs"):

* each rule names a **series** — a built-in online aggregate
  (``round_latency_p95``, ``solver_fallback_rate``, ``queue_wait_p99``,
  ``estimation_error_median``, ``quarantined_nodes``) or any
  ``RoundRecord.metrics`` key with an ``agg`` (``last``/``mean``/``max``/
  ``p50``/``p95``/``p99``);
* the per-round series value is compared against ``target`` (``<=`` or
  ``>=``); the boolean outcome feeds a rolling **error-budget window**;
* ``burn_rate = violating fraction / error_budget``; the rule fires when
  ``burn_rate >= rule.burn_rate`` with at least ``min_samples`` rounds of
  evidence, then stays quiet for ``cooldown`` rounds.

Determinism: the engine only *reads* round records — it never touches the
simulation's RNG or state — so a run evaluated with SLOs is bit-identical
to one without (:func:`repro.obs.diff.diff_runs` excludes the alert and
``slo.*``-metric fields, the same carve-out as wall-clock timing, because
rules over ``round_latency_*`` are legitimately host-timing-dependent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.metrics import interpolated_quantile
from repro.obs.window import RollingRate, RollingWindow

#: built-in online series (everything else resolves via RoundRecord.metrics).
BUILTIN_SERIES = ("round_latency_p95", "solver_fallback_rate",
                  "queue_wait_p99", "estimation_error_median",
                  "quarantined_nodes")
#: window aggregations for metrics-key rules.
METRIC_AGGS = ("last", "mean", "max", "p50", "p95", "p99")
COMPARISONS = ("<=", ">=")
SEVERITIES = ("info", "warn", "page")


@dataclass(frozen=True)
class Alert:
    """One structured SLO breach, persisted into the round it fired in."""

    rule: str
    metric: str
    round_index: int
    time: float
    #: the series value that breached (the aggregate, not a raw sample).
    value: float
    target: float
    comparison: str
    #: error-budget burn multiple at fire time (>= the rule's threshold).
    burn_rate: float
    window: int
    severity: str = "warn"
    #: causal context from the ledger/audit/health trails: offending jobs,
    #: nodes, fault kinds, and solver backends over the rule's window.
    context: dict[str, Any] = field(default_factory=dict, compare=False)

    def describe(self) -> str:
        parts = [f"[{self.severity}] {self.rule}: {self.metric}="
                 f"{self.value:.4g} {self.comparison} {self.target:.4g} "
                 f"violated (burn {self.burn_rate:.1f}x over "
                 f"{self.window} rounds)"]
        jobs = self.context.get("jobs")
        if jobs:
            parts.append("jobs " + ",".join(jobs[:4]))
        nodes = self.context.get("nodes")
        if nodes:
            parts.append("nodes " + ",".join(str(n) for n in nodes[:6]))
        faults = self.context.get("faults")
        if faults:
            parts.append("faults " + ",".join(
                f"{k}={v}" for k, v in sorted(faults.items())))
        backends = self.context.get("backends")
        if backends:
            parts.append("backends " + ",".join(
                f"{k or '?'}={v}" for k, v in sorted(backends.items())))
        return "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "rule": self.rule, "metric": self.metric,
            "round_index": self.round_index, "time": self.time,
            "value": self.value, "target": self.target,
            "comparison": self.comparison, "burn_rate": self.burn_rate,
            "window": self.window, "severity": self.severity,
        }
        if self.context:
            data["context"] = self.context
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Alert":
        return Alert(
            rule=data["rule"], metric=data["metric"],
            round_index=data["round_index"], time=data["time"],
            value=data["value"], target=data["target"],
            comparison=data["comparison"], burn_rate=data["burn_rate"],
            window=data["window"], severity=data.get("severity", "warn"),
            context=dict(data.get("context", {})))


@dataclass(frozen=True)
class SLORule:
    """One declarative objective (see module docstring for semantics)."""

    name: str
    metric: str
    target: float
    comparison: str = "<="
    #: rolling evaluation window, rounds (both the series statistic and
    #: the error-budget indicator use it).
    window: int = 20
    #: allowed violating fraction of the window (the error budget).
    error_budget: float = 0.25
    #: fire when violating_fraction / error_budget reaches this multiple.
    burn_rate: float = 1.0
    #: evidence floor: no alert before this many rounds are in the window.
    min_samples: int = 5
    #: rounds to stay quiet after firing (re-arms automatically).
    cooldown: int = 10
    severity: str = "warn"
    #: aggregation for metrics-key rules (ignored for built-in series).
    agg: str = "last"

    def __post_init__(self) -> None:
        if self.comparison not in COMPARISONS:
            raise ValueError(f"rule {self.name!r}: comparison must be one "
                             f"of {COMPARISONS}, got {self.comparison!r}")
        if self.window < 1:
            raise ValueError(f"rule {self.name!r}: window must be >= 1")
        if not 0.0 < self.error_budget <= 1.0:
            raise ValueError(f"rule {self.name!r}: error_budget must be in "
                             f"(0, 1], got {self.error_budget!r}")
        if self.burn_rate <= 0:
            raise ValueError(f"rule {self.name!r}: burn_rate must be > 0")
        if self.min_samples < 1:
            raise ValueError(f"rule {self.name!r}: min_samples must be >= 1")
        if self.severity not in SEVERITIES:
            raise ValueError(f"rule {self.name!r}: severity must be one of "
                             f"{SEVERITIES}, got {self.severity!r}")
        if self.metric not in BUILTIN_SERIES and self.agg not in METRIC_AGGS:
            raise ValueError(f"rule {self.name!r}: agg must be one of "
                             f"{METRIC_AGGS}, got {self.agg!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "metric": self.metric,
                "target": self.target, "comparison": self.comparison,
                "window": self.window, "error_budget": self.error_budget,
                "burn_rate": self.burn_rate, "min_samples": self.min_samples,
                "cooldown": self.cooldown, "severity": self.severity,
                "agg": self.agg}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "SLORule":
        known = {f for f in SLORule.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SLO rule keys: {sorted(unknown)}")
        return SLORule(**data)


def default_rules() -> list[SLORule]:
    """The stock ruleset the CLI's ``--slo default`` evaluates: one rule
    per operational failure mode the obs stack can already attribute."""
    return [
        SLORule(name="round-latency", metric="round_latency_p95",
                target=1.0, comparison="<=", window=20, error_budget=0.25,
                severity="warn"),
        SLORule(name="solver-fallbacks", metric="solver_fallback_rate",
                target=0.25, comparison="<=", window=20, error_budget=0.25,
                severity="page"),
        SLORule(name="queue-wait", metric="queue_wait_p99",
                target=4 * 3600.0, comparison="<=", window=20,
                error_budget=0.25, severity="warn"),
        SLORule(name="estimation-error", metric="estimation_error_median",
                target=1.0, comparison="<=", window=30, error_budget=0.5,
                severity="info"),
        SLORule(name="quarantined-capacity", metric="quarantined_nodes",
                target=0.0, comparison="<=", window=10, error_budget=0.2,
                min_samples=2, severity="page"),
    ]


def parse_rules(source: Any) -> list[SLORule]:
    """Parse a ruleset from a dict/list, a JSON/YAML file path, or the
    literal string ``"default"``.

    Accepted shapes: a list of rule dicts, or ``{"rules": [...]}``.  YAML
    files need PyYAML; when it is missing, a clear error tells the user to
    use JSON (the container does not grow a dependency for it).
    """
    if source is None or source == "default":
        return default_rules()
    if isinstance(source, (str, Path)):
        path = Path(source)
        text = path.read_text()
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env dependent
                raise ValueError(
                    f"{path} is YAML but PyYAML is not installed; "
                    "use a JSON ruleset instead") from exc
            source = yaml.safe_load(text)
        else:
            source = json.loads(text)
    if isinstance(source, dict):
        source = source.get("rules", source)
    if not isinstance(source, list):
        raise ValueError("SLO ruleset must be a list of rules or "
                         "{'rules': [...]}")
    rules = [rule if isinstance(rule, SLORule) else SLORule.from_dict(rule)
             for rule in source]
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate SLO rule names: {sorted(names)}")
    return rules


class _QueueWaitTracker:
    """Online per-job queue-wait attribution (the live sibling of
    :func:`repro.obs.ledger.queue_wait_by_job`).

    Jobs are discovered from admit events and allocations; a round spent
    active without GPUs adds ``dt`` to the job's wait; FINISH events retire
    it.  O(active jobs) per round — never re-derived from history.
    """

    def __init__(self) -> None:
        self.waits: dict[str, float] = {}
        self._finished: set[str] = set()

    def observe(self, record: Any, dt: float) -> None:
        for event in record.events:
            if event.kind == "finish":
                self._finished.add(event.job_id)
                self.waits.pop(event.job_id, None)
            elif event.job_id not in self._finished:
                self.waits.setdefault(event.job_id, 0.0)
        for job_id in record.allocations:
            if job_id not in self._finished:
                self.waits.setdefault(job_id, 0.0)
        for job_id in self.waits:
            if job_id not in record.allocations:
                self.waits[job_id] += dt

    def queued_waits(self, record: Any) -> list[tuple[str, float]]:
        """(job_id, accumulated wait) for jobs queued this round, worst
        first."""
        queued = [(jid, wait) for jid, wait in self.waits.items()
                  if jid not in record.allocations]
        queued.sort(key=lambda item: (-item[1], item[0]))
        return queued


def _round_error_median(record: Any) -> float:
    """Median relative goodput-estimation error of one round (NaN when no
    job has both sides of the ledger), matching
    :meth:`LedgerEntry.relative_error`."""
    errors = []
    for job_id, realized in record.realized.items():
        estimate = record.estimates.get(job_id)
        if estimate is None or realized is None or realized <= 0:
            continue
        errors.append(abs(estimate - realized) / realized)
    if not errors:
        return float("nan")
    errors.sort()
    mid = len(errors) // 2
    if len(errors) % 2:
        return errors[mid]
    return (errors[mid - 1] + errors[mid]) / 2.0


class SLOEngine:
    """Evaluates a ruleset against each round; collects :class:`Alert`s.

    Read-only with respect to the simulation: safe to attach to a live
    engine (via :class:`repro.obs.stream.SLOObserver`) or to replay over a
    loaded result (:func:`evaluate_result`).
    """

    def __init__(self, rules: Sequence[SLORule] | None = None, *,
                 metrics: Any = None):
        self.rules = list(rules) if rules is not None else default_rules()
        #: optional MetricsRegistry: burn-rate gauges + alert counters land
        #: under ``slo.*`` (excluded from the determinism oracle).
        self.metrics = metrics
        self.alerts: list[Alert] = []
        self.rounds_evaluated = 0
        self._queue = _QueueWaitTracker()
        max_window = max((r.window for r in self.rules), default=1)
        #: bounded history for causality extraction (never the full run).
        self._recent: deque_like = _BoundedRecords(max_window)
        self._series: dict[str, RollingWindow] = {}
        self._fallback_rate = RollingRate(max(
            (r.window for r in self.rules
             if r.metric == "solver_fallback_rate"), default=20))
        self._burn: dict[str, RollingRate] = {
            r.name: RollingRate(r.window) for r in self.rules}
        #: per-rule burn gauges resolved once — the f-string + registry
        #: lookup per rule per round is measurable on the hot path.
        self._burn_gauges = (
            {r.name: metrics.gauge(f"slo.burn_rate.{r.name}")
             for r in self.rules} if metrics is not None else None)
        self._last_fired: dict[str, int] = {}

    # -- series ----------------------------------------------------------------

    def _window_for(self, rule: SLORule) -> RollingWindow:
        window = self._series.get(rule.name)
        if window is None:
            window = self._series[rule.name] = RollingWindow(rule.window)
        return window

    def _series_value(self, rule: SLORule, record: Any) -> float:
        metric = rule.metric
        if metric == "round_latency_p95":
            window = self._window_for(rule)
            window.push(record.solve_time)
            return window.quantile(0.95)
        if metric == "solver_fallback_rate":
            return self._fallback_rate.rate
        if metric == "queue_wait_p99":
            waits = [wait for _, wait in self._queue.queued_waits(record)]
            waits.reverse()  # ascending for the shared interpolation
            return interpolated_quantile(waits, 0.99)
        if metric == "estimation_error_median":
            window = self._window_for(rule)
            window.push(_round_error_median(record))
            return window.quantile(0.5) if len(window) else float("nan")
        if metric == "quarantined_nodes":
            return float(record.metrics.get("health.quarantined_nodes", 0.0))
        # Generic: any RoundRecord.metrics key, windowed by rule.agg.
        raw = record.metrics.get(metric)
        if raw is None:
            return float("nan")
        if rule.agg == "last":
            return float(raw)
        window = self._window_for(rule)
        window.push(float(raw))
        if rule.agg == "mean":
            return window.mean
        if rule.agg == "max":
            return window.max
        return window.quantile({"p50": 0.5, "p95": 0.95,
                                "p99": 0.99}[rule.agg])

    # -- evaluation ------------------------------------------------------------

    def observe_round(self, record: Any, round_index: int,
                      dt: float) -> list[Alert]:
        """Fold one finished round in and return the alerts it fired."""
        self.rounds_evaluated += 1
        self._queue.observe(record, dt)
        self._fallback_rate.push(bool(record.degraded))
        self._recent.push(record)
        fired: list[Alert] = []
        for rule in self.rules:
            value = self._series_value(rule, record)
            violated = _violates(value, rule)
            burn = self._burn[rule.name]
            burn.push(violated)
            burn_rate = burn.rate / rule.error_budget
            if self._burn_gauges is not None:
                self._burn_gauges[rule.name].set(burn_rate)
            if len(burn) < rule.min_samples \
                    or burn_rate < rule.burn_rate:
                continue
            last = self._last_fired.get(rule.name)
            if last is not None and round_index - last < rule.cooldown:
                continue
            self._last_fired[rule.name] = round_index
            alert = Alert(
                rule=rule.name, metric=rule.metric,
                round_index=round_index, time=record.time,
                value=value, target=rule.target,
                comparison=rule.comparison, burn_rate=burn_rate,
                window=rule.window, severity=rule.severity,
                context=self._causes(rule, record))
            fired.append(alert)
            self.alerts.append(alert)
            if self.metrics is not None:
                self.metrics.counter("slo.alerts").inc()
                self.metrics.counter(f"slo.alert.{rule.name}").inc()
        return fired

    def _causes(self, rule: SLORule, record: Any) -> dict[str, Any]:
        """Causal context for a breach, from the trails the recent rounds
        already carry: audit/ledger (jobs), faults + health (nodes), and
        the solver-backend history."""
        context: dict[str, Any] = {}
        recent = self._recent.records
        faults: dict[str, int] = {}
        nodes: list[int] = []
        backends: dict[str, int] = {}
        for rnd in recent:
            backends[rnd.backend] = backends.get(rnd.backend, 0) + 1
            for event in rnd.fault_events:
                faults[event.kind] = faults.get(event.kind, 0) + 1
                target = getattr(event, "target", "")
                if target.startswith("node:"):
                    try:
                        nodes.append(int(target.split(":", 1)[1]))
                    except ValueError:
                        pass
            for event in getattr(rnd, "health_events", []):
                if event.kind in ("probation", "quarantine", "drain"):
                    nodes.append(event.node_id)
        if rule.metric == "queue_wait_p99":
            context["jobs"] = [jid for jid, _
                               in self._queue.queued_waits(record)[:5]]
        elif rule.metric == "estimation_error_median":
            worst = sorted(
                ((abs(record.estimates[jid] - realized) / realized, jid)
                 for jid, realized in record.realized.items()
                 if realized and realized > 0
                 and record.estimates.get(jid) is not None),
                reverse=True)
            context["jobs"] = [jid for _, jid in worst[:5]]
        if nodes:
            context["nodes"] = sorted(set(nodes))
        if faults:
            context["faults"] = faults
        if rule.metric in ("round_latency_p95", "solver_fallback_rate") \
                or record.degraded:
            context["backends"] = backends
        return context


class _BoundedRecords:
    """Tiny bounded FIFO of round records (causality lookback)."""

    __slots__ = ("size", "records")

    def __init__(self, size: int):
        self.size = max(1, size)
        self.records: list[Any] = []

    def push(self, record: Any) -> None:
        self.records.append(record)
        if len(self.records) > self.size:
            del self.records[0]


deque_like = _BoundedRecords  # typing alias for the engine attribute


def _violates(value: float, rule: SLORule) -> bool:
    if value != value:  # NaN: no evidence either way — not a violation
        return False
    if rule.comparison == "<=":
        return value > rule.target
    return value < rule.target


def evaluate_result(result: Any,
                    rules: Sequence[SLORule] | None = None) -> list[Alert]:
    """Post-hoc SLO evaluation over a finished/loaded result: replays the
    recorded rounds through a fresh engine, producing exactly the alerts a
    live run with the same ruleset would have produced (wall-clock rules
    track the recorded ``solve_time``)."""
    engine = SLOEngine(rules)
    rounds = result.rounds
    alerts: list[Alert] = []
    for index, record in enumerate(rounds):
        if index + 1 < len(rounds):
            dt = rounds[index + 1].time - record.time
        else:
            dt = max(result.end_time - record.time, 0.0)
        alerts.extend(engine.observe_round(record, index, dt))
    return alerts


def alert_summary(alerts: Iterable[Alert]) -> dict[str, int]:
    """Alert counts by rule name (report/digest convenience)."""
    counts: dict[str, int] = {}
    for alert in alerts:
        counts[alert.rule] = counts.get(alert.rule, 0) + 1
    return counts

"""Serialization: save/load traces and simulation results as JSON.

Traces round-trip exactly (including hybrid specs and inference metadata)
so experiments can be pinned to files and re-run; results serialize the
per-job and per-round records every metric is derived from.

Every writer in this module goes through :func:`atomic_write_text` /
:func:`atomic_write_bytes` — write to a temporary sibling, then
``os.replace`` over the destination — so a crash mid-save never truncates
an existing artifact.  The checkpoint subsystem
(:mod:`repro.sim.checkpoint`) uses the same helper for its snapshots.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.atomicio import atomic_write_bytes as atomic_write_bytes
from repro.atomicio import atomic_write_text as atomic_write_text
from repro.core.health import HealthEvent
from repro.core.types import AdaptivityMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import Job
from repro.obs.audit import AllocationEvent
from repro.obs.diff import RunDiff
from repro.obs.ledger import GoodputLedger, LedgerEntry
from repro.obs.slo import Alert
from repro.sim.telemetry import (FaultEvent, JobRecord, RoundRecord,
                                 SimulationResult)
from repro.workloads.trace import Trace

FORMAT_VERSION = 1


# The atomic-write helpers live in :mod:`repro.atomicio` (shared with the
# checkpoint subsystem without an import cycle) and are re-exported above
# so existing ``repro.io.atomic_write_*`` callers keep working.

# -- traces ------------------------------------------------------------------

def job_to_dict(job: Job) -> dict[str, Any]:
    data: dict[str, Any] = {
        "job_id": job.job_id,
        "model_name": job.model_name,
        "submit_time": job.submit_time,
        "target_samples": job.target_samples,
        "adaptivity": job.adaptivity.value,
        "min_gpus": job.min_gpus,
        "max_gpus": job.max_gpus,
        "fixed_batch_size": job.fixed_batch_size,
        "fixed_num_gpus": job.fixed_num_gpus,
        "fixed_gpu_type": job.fixed_gpu_type,
        "preemptible": job.preemptible,
        "workload": job.workload,
        "latency_slo": job.latency_slo,
    }
    if job.hybrid is not None:
        data["hybrid"] = {
            "stages_per_type": dict(job.hybrid.stages_per_type),
            "micro_batch_size": job.hybrid.micro_batch_size,
            "num_microbatches": job.hybrid.num_microbatches,
        }
    return data


def job_from_dict(data: dict[str, Any]) -> Job:
    hybrid = None
    if "hybrid" in data and data["hybrid"] is not None:
        spec = data["hybrid"]
        hybrid = HybridSpec(stages_per_type=dict(spec["stages_per_type"]),
                            micro_batch_size=spec["micro_batch_size"],
                            num_microbatches=spec["num_microbatches"])
    return Job(
        job_id=data["job_id"],
        model_name=data["model_name"],
        submit_time=data["submit_time"],
        target_samples=data["target_samples"],
        adaptivity=AdaptivityMode(data["adaptivity"]),
        min_gpus=data.get("min_gpus", 1),
        max_gpus=data["max_gpus"],
        fixed_batch_size=data.get("fixed_batch_size"),
        fixed_num_gpus=data.get("fixed_num_gpus"),
        fixed_gpu_type=data.get("fixed_gpu_type"),
        preemptible=data.get("preemptible", True),
        hybrid=hybrid,
        workload=data.get("workload", "training"),
        latency_slo=data.get("latency_slo"),
    )


def save_trace(trace: Trace, path: str | Path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "trace",
        "name": trace.name,
        "seed": trace.seed,
        "jobs": [job_to_dict(job) for job in trace.jobs],
    }
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_trace(path: str | Path) -> Trace:
    payload = json.loads(Path(path).read_text())
    _check_payload(payload, "trace")
    jobs = [job_from_dict(item) for item in payload["jobs"]]
    return Trace(name=payload["name"], jobs=jobs, seed=payload.get("seed", 0))


# -- results -----------------------------------------------------------------

def _record_to_dict(record: JobRecord) -> dict[str, Any]:
    return {
        "job_id": record.job_id,
        "model_name": record.model_name,
        "category": record.category,
        "adaptivity": record.adaptivity,
        "submit_time": record.submit_time,
        "first_start": record.first_start,
        "finish_time": record.finish_time,
        "num_restarts": record.num_restarts,
        "num_preemptions": record.num_preemptions,
        "num_migrations": record.num_migrations,
        "gpu_seconds": dict(record.gpu_seconds),
        "profiling_gpu_seconds": record.profiling_gpu_seconds,
        "avg_contention": record.avg_contention,
        "target_samples": record.target_samples,
    }


def _round_to_dict(record: RoundRecord) -> dict[str, Any]:
    data: dict[str, Any] = {
        "time": record.time,
        "active_jobs": record.active_jobs,
        "running_jobs": record.running_jobs,
        "solve_time": record.solve_time,
        "allocations": {jid: list(alloc)
                        for jid, alloc in record.allocations.items()},
        "gpus_used": dict(record.gpus_used),
    }
    # Robustness telemetry is only written when present, so results from
    # fault-free runs stay byte-compatible with older readers.
    if record.backend:
        data["backend"] = record.backend
    if record.degraded:
        data["degraded"] = True
    if record.fault_events:
        data["fault_events"] = [{
            "kind": e.kind, "time": e.time,
            "target": e.target, "detail": e.detail,
        } for e in record.fault_events]
    if record.metrics:
        data["metrics"] = dict(record.metrics)
    # Decision-level observability (goodput ledger + audit trail) is also
    # written only when present, keeping fault-free pre-ledger results
    # byte-compatible.
    if record.estimates:
        data["estimates"] = dict(record.estimates)
    if record.realized:
        data["realized"] = dict(record.realized)
    if record.throughputs:
        data["throughputs"] = dict(record.throughputs)
    if record.events:
        data["events"] = [e.to_dict() for e in record.events]
    if record.health_events:
        data["health_events"] = [e.to_dict() for e in record.health_events]
    if record.alerts:
        data["alerts"] = [a.to_dict() for a in record.alerts]
    return data


def save_result(result: SimulationResult, path: str | Path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "result",
        "scheduler_name": result.scheduler_name,
        "cluster_description": result.cluster_description,
        "end_time": result.end_time,
        "censored": result.censored,
        "node_failures": result.node_failures,
        "jobs": [_record_to_dict(record) for record in result.jobs],
        "rounds": [_round_to_dict(record) for record in result.rounds],
    }
    if result.final_metrics:
        payload["final_metrics"] = dict(result.final_metrics)
    if result.run_spec:
        payload["run_spec"] = result.run_spec
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_result(path: str | Path) -> SimulationResult:
    payload = json.loads(Path(path).read_text())
    _check_payload(payload, "result")
    result = SimulationResult(
        scheduler_name=payload["scheduler_name"],
        cluster_description=payload["cluster_description"],
        end_time=payload["end_time"],
        censored=payload.get("censored", 0),
        node_failures=payload.get("node_failures", 0),
        final_metrics=dict(payload.get("final_metrics", {})),
        run_spec=payload.get("run_spec"),
    )
    for item in payload["jobs"]:
        result.jobs.append(JobRecord(
            job_id=item["job_id"], model_name=item["model_name"],
            category=item["category"], adaptivity=item["adaptivity"],
            submit_time=item["submit_time"], first_start=item["first_start"],
            finish_time=item["finish_time"],
            num_restarts=item["num_restarts"],
            num_preemptions=item.get("num_preemptions", 0),
            num_migrations=item.get("num_migrations", 0),
            gpu_seconds=dict(item["gpu_seconds"]),
            profiling_gpu_seconds=item.get("profiling_gpu_seconds", 0.0),
            avg_contention=item.get("avg_contention", 0.0),
            target_samples=item.get("target_samples", 0.0)))
    for item in payload.get("rounds", []):
        result.rounds.append(RoundRecord(
            time=item["time"], active_jobs=item["active_jobs"],
            running_jobs=item["running_jobs"], solve_time=item["solve_time"],
            allocations={jid: (alloc[0], int(alloc[1]))
                         for jid, alloc in item["allocations"].items()},
            gpus_used={t: int(n) for t, n in item["gpus_used"].items()},
            backend=item.get("backend", ""),
            degraded=item.get("degraded", False),
            fault_events=[FaultEvent(kind=e["kind"], time=e["time"],
                                     target=e["target"],
                                     detail=e.get("detail", ""))
                          for e in item.get("fault_events", [])],
            metrics=dict(item.get("metrics", {})),
            estimates=dict(item.get("estimates", {})),
            realized=dict(item.get("realized", {})),
            throughputs=dict(item.get("throughputs", {})),
            events=[AllocationEvent.from_dict(e)
                    for e in item.get("events", [])],
            health_events=[HealthEvent.from_dict(e)
                           for e in item.get("health_events", [])],
            alerts=[Alert.from_dict(a) for a in item.get("alerts", [])]))
    return result


# -- goodput ledger (JSONL) ---------------------------------------------------

def load_ledger(path: str | Path,
                ) -> tuple[GoodputLedger, list[AllocationEvent]]:
    """Read a ``--ledger-out`` JSONL file (written by
    :class:`repro.obs.stream.LedgerStreamObserver`) back into a
    :class:`~repro.obs.ledger.GoodputLedger` plus its allocation events."""
    entries: list[LedgerEntry] = []
    events: list[AllocationEvent] = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        item = json.loads(line)
        kind = item.get("kind")
        if kind == "ledger":
            _check_payload(item, "ledger")
            header_seen = True
        elif kind == "ledger_entry":
            entries.append(LedgerEntry.from_dict(item))
        elif kind == "alloc_event":
            events.append(AllocationEvent.from_dict(item["event"]))
        elif kind == "ledger_end":
            # Completeness trailer written on finalize; its absence on a
            # ``.part`` file marks a truncated crash prefix.
            pass
        else:
            raise ValueError(f"unknown ledger line kind {kind!r}")
    if not header_seen:
        raise ValueError(f"{path} is not a ledger JSONL (missing header)")
    return GoodputLedger(entries), events


# -- SLO alerts (JSONL) --------------------------------------------------------

def load_alerts(path: str | Path) -> list[Alert]:
    """Read an alerts JSONL file (``--alerts-out``, written by
    :class:`repro.obs.stream.AlertStreamObserver`) back into
    :class:`~repro.obs.slo.Alert` objects, in file order."""
    alerts: list[Alert] = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        item = json.loads(line)
        kind = item.get("kind")
        if kind == "alerts":
            _check_payload(item, "alerts")
            header_seen = True
        elif kind == "alert":
            alerts.append(Alert.from_dict(item))
        elif kind == "alerts_end":
            pass  # completeness trailer written on finalize
        else:
            raise ValueError(f"unknown alerts line kind {kind!r}")
    if not header_seen:
        raise ValueError(f"{path} is not an alerts JSONL (missing header)")
    return alerts


# -- health events (JSONL) ----------------------------------------------------

def save_health_events(result: SimulationResult, path: str | Path) -> None:
    """Export every node-health transition as JSONL: a header line plus one
    ``health_event`` line per event, tagged with its round index.  This is
    the CLI's ``--health-events-out`` format and the CI chaos artifact;
    :func:`load_health_events` round-trips it."""
    lines = [json.dumps({
        "kind": "health_events", "format_version": FORMAT_VERSION,
        "scheduler_name": result.scheduler_name,
        "num_rounds": len(result.rounds),
    })]
    for index, rnd in enumerate(result.rounds):
        for event in rnd.health_events:
            # The event's own dict carries a "kind" (the transition kind),
            # so it is nested rather than spread into the line.
            lines.append(json.dumps({"kind": "health_event", "round": index,
                                     "event": event.to_dict()}))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_health_events(path: str | Path,
                       ) -> list[tuple[int, HealthEvent]]:
    """Read a ``--health-events-out`` JSONL file back into
    ``(round_index, HealthEvent)`` pairs, in file order."""
    events: list[tuple[int, HealthEvent]] = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        item = json.loads(line)
        kind = item.get("kind")
        if kind == "health_events":
            _check_payload(item, "health_events")
            header_seen = True
        elif kind == "health_event":
            events.append((item["round"],
                           HealthEvent.from_dict(item["event"])))
        else:
            raise ValueError(f"unknown health-event line kind {kind!r}")
    if not header_seen:
        raise ValueError(f"{path} is not a health-events JSONL "
                         "(missing header)")
    return events


# -- counterfactual run diffs --------------------------------------------------

def save_run_diff(diff: RunDiff, path: str | Path) -> None:
    """Persist a counterfactual :class:`~repro.obs.diff.RunDiff`
    (``repro replay --diff-out``) as JSON; :func:`load_run_diff`
    round-trips it exactly."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "run_diff",
        **diff.to_dict(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_run_diff(path: str | Path) -> RunDiff:
    payload = json.loads(Path(path).read_text())
    _check_payload(payload, "run_diff")
    return RunDiff.from_dict(payload)


def _check_payload(payload: dict[str, Any], kind: str) -> None:
    if payload.get("kind") != kind:
        raise ValueError(f"file is a {payload.get('kind')!r}, expected {kind!r}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r} "
                         f"(this build reads version {FORMAT_VERSION})")

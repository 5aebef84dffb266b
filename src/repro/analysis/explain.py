"""Human-readable decision timelines: *why* did a job run where it ran?

Renders one job's life through a simulation as text, from the decision-level
observability a run records (see :mod:`repro.obs.ledger` and
:mod:`repro.obs.audit`): per-round estimated vs. realized goodput with the
relative estimation error, and the classified allocation-change events
(admit, scale, migrate, preempt, fault restart, finish).  Works identically
on live :class:`~repro.sim.telemetry.SimulationResult` objects and on results
loaded from JSON via :mod:`repro.io`; the CLI exposes it as
``python -m repro explain run.json --job JOB``.
"""

from __future__ import annotations

from repro.obs.audit import events_for_job
from repro.obs.diff import RunDiff
from repro.obs.ledger import GoodputLedger, queue_wait_by_job
from repro.sim.telemetry import JobRecord, SimulationResult


def _hms(seconds: float) -> str:
    """Seconds -> compact ``h:mm:ss`` clock string."""
    total = int(round(seconds))
    return f"{total // 3600}:{total % 3600 // 60:02d}:{total % 60:02d}"


def _find_job(result: SimulationResult, job_id: str) -> JobRecord:
    for record in result.jobs:
        if record.job_id == job_id:
            return record
    known = ", ".join(sorted(r.job_id for r in result.jobs)) or "(none)"
    raise KeyError(f"unknown job {job_id!r}; result has jobs: {known}")


def _header_lines(result: SimulationResult, record: JobRecord,
                  queue_wait: float) -> list[str]:
    lines = [f"job {record.job_id} ({record.model_name}, "
             f"{record.adaptivity} adaptivity) under "
             f"{result.scheduler_name}",
             f"  submitted {_hms(record.submit_time)}"]
    if record.first_start is not None:
        lines.append(f"  first started {_hms(record.first_start)} "
                     f"(initial queue delay "
                     f"{_hms(record.first_start - record.submit_time)})")
    if record.finish_time is not None:
        lines.append(f"  finished {_hms(record.finish_time)} "
                     f"(JCT {_hms(record.jct())})")
    else:
        lines.append("  did not finish before the simulation ended")
    lines.append(f"  restarts: {record.num_restarts}, scheduler preemptions: "
                 f"{record.num_preemptions}, migrations: "
                 f"{record.num_migrations}, total queued: "
                 f"{_hms(queue_wait)}")
    return lines


def _round_rows(result: SimulationResult, ledger: GoodputLedger,
                job_id: str) -> list[dict[str, str]]:
    """One row per round the job appears in: allocation, estimate vs.
    realized goodput, relative error, and any allocation event."""
    by_round = {entry.round_index: entry for entry in ledger.for_job(job_id)}
    events: dict[int, list] = {}
    for event in events_for_job(result.allocation_events(), job_id):
        events.setdefault(event.round_index, []).append(event)
    rows: list[dict[str, str]] = []
    for index, rnd in enumerate(result.rounds):
        entry = by_round.get(index)
        round_events = events.get(index, [])
        alloc = rnd.allocations.get(job_id)
        if entry is None and not round_events and alloc is None:
            continue
        row = {"round": str(index), "t": _hms(rnd.time),
               "alloc": f"{alloc[1]}x {alloc[0]}" if alloc else "-",
               "est": "-", "realized": "-", "err%": "-", "event": ""}
        if entry is not None:
            if entry.estimated_goodput is not None:
                row["est"] = f"{entry.estimated_goodput:.1f}"
            if entry.realized_goodput is not None:
                row["realized"] = f"{entry.realized_goodput:.1f}"
            error = entry.relative_error
            if error is not None:
                row["err%"] = f"{100 * error:.1f}"
        if round_events:
            row["event"] = "; ".join(e.describe() for e in round_events)
        rows.append(row)
    return rows


def _format_rows(rows: list[dict[str, str]]) -> list[str]:
    if not rows:
        return ["  (this result has no per-round decision records; re-run "
                "the simulation, or save it with rounds included)"]
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(row[c]) for row in rows)) for c in columns}
    lines = ["  " + "  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  " + "  ".join(row[c].ljust(widths[c])
                                      for c in columns).rstrip())
    return lines


def _round_detail(result: SimulationResult, ledger: GoodputLedger,
                  job_id: str, round_index: int) -> list[str]:
    if not 0 <= round_index < len(result.rounds):
        raise IndexError(f"round {round_index} out of range; result has "
                         f"{len(result.rounds)} rounds")
    rnd = result.rounds[round_index]
    lines = [f"round {round_index} at t={_hms(rnd.time)}: "
             f"{rnd.active_jobs} active, {rnd.running_jobs} running, "
             f"solve took {rnd.solve_time * 1000:.1f} ms"]
    alloc = rnd.allocations.get(job_id)
    lines.append(f"  allocation: {alloc[1]}x {alloc[0]}" if alloc
                 else f"  {job_id} held no GPUs this round")
    entry = next((e for e in ledger.for_job(job_id)
                  if e.round_index == round_index), None)
    if entry is not None:
        if entry.estimated_goodput is not None:
            lines.append(f"  scheduler expected {entry.estimated_goodput:.2f} "
                         "samples/s of goodput")
        if entry.realized_goodput is not None:
            realized = f"  executor delivered {entry.realized_goodput:.2f}"
            if entry.realized_throughput is not None:
                realized += (" goodput at "
                             f"{entry.realized_throughput:.2f} samples/s raw")
            error = entry.relative_error
            if error is not None:
                realized += f" (estimation error {100 * error:.1f}%)"
            lines.append(realized)
    for event in rnd.events:
        if event.job_id == job_id:
            lines.append(f"  event: {event.describe()}")
    for fault in rnd.fault_events:
        lines.append(f"  fault: {fault.kind} on {fault.target}"
                     + (f" ({fault.detail})" if fault.detail else ""))
    for event in rnd.health_events:
        lines.append(f"  health: {event.describe()}")
    for alert in rnd.alerts:
        lines.append(f"  alert: {alert.describe()}")
    return lines


def _fmt_alloc(alloc: "tuple[str, int] | None") -> str:
    return f"{alloc[1]}x {alloc[0]}" if alloc else "-"


def _counterfactual_lines(diff: RunDiff, job_id: str) -> list[str]:
    """Header block comparing this job's two futures (base vs fork)."""
    over = ", ".join(f"{k}={v}" for k, v in diff.overrides.items()) \
        or "none (identity fork)"
    lines = ["",
             f"  counterfactual: forked at round {diff.fork_round} under "
             f"{diff.fork_scheduler} (overrides: {over})"]
    if diff.identical:
        lines.append("  the fork reproduced this run exactly — the two "
                     "futures do not differ")
        return lines
    d = diff.divergence
    lines.append(f"  futures diverged at round {d.round_index} "
                 f"(t={_hms(d.time)}): {d.reason}")
    vals = diff.job_deltas.get(job_id)
    if vals:
        base_jct, fork_jct = vals.get("base_jct"), vals.get("fork_jct")
        if base_jct is not None or fork_jct is not None:
            base_s = _hms(base_jct * 3600) if base_jct is not None \
                else "did not finish"
            fork_s = _hms(fork_jct * 3600) if fork_jct is not None \
                else "did not finish"
            lines.append(f"  JCT: {base_s} (base) vs {fork_s} (fork)")
        base_w, fork_w = vals.get("base_queue_wait"), \
            vals.get("fork_queue_wait")
        if base_w is not None and fork_w is not None \
                and (base_w or fork_w):
            lines.append(f"  queued: {_hms(base_w)} (base) vs "
                         f"{_hms(fork_w)} (fork)")
    return lines


def _annotate_counterfactual(rows: list[dict[str, str]],
                             result: SimulationResult, diff: RunDiff,
                             job_id: str) -> list[dict[str, str]]:
    """Add a ``fork`` column to the timeline: what the alternate future
    gave this job wherever it differs ('=' where both futures agree, '.'
    on shared history before the fork round).  Rounds only the fork ran
    (a longer alternate future) are appended as extra rows."""
    changes = diff.job_changes(job_id)
    for row in rows:
        index = int(row["round"])
        if index in changes:
            change = changes[index]
            row["fork"] = _fmt_alloc(change.fork) \
                + (f" [{change.kind}]" if change.kind else "")
        elif index < diff.fork_round:
            row["fork"] = "."
        else:
            row["fork"] = "="
    for index in sorted(changes):
        if index < len(result.rounds):
            continue
        rnd = next((r for r in diff.round_deltas
                    if r.round_index == index), None)
        change = changes[index]
        rows.append({"round": str(index),
                     "t": _hms(rnd.time) if rnd else "-",
                     "alloc": "-", "est": "-", "realized": "-",
                     "err%": "-", "event": "(fork only)",
                     "fork": _fmt_alloc(change.fork)
                     + (f" [{change.kind}]" if change.kind else "")})
    return rows


def explain_job(result: SimulationResult, job_id: str,
                round_index: int | None = None,
                counterfactual: RunDiff | None = None) -> str:
    """Render a job's decision timeline (or one round of it) as text.

    ``counterfactual`` annotates the timeline with the alternate future
    from a :class:`~repro.obs.diff.RunDiff` (``repro explain
    --counterfactual diff.json``): a ``fork`` column showing where the two
    futures differ, plus a base-vs-fork JCT/queue-wait header.

    Raises ``KeyError`` for an unknown job and ``IndexError`` for an
    out-of-range round, so the CLI can turn both into clean errors.
    """
    record = _find_job(result, job_id)
    ledger = GoodputLedger.from_result(result)
    queue_wait = queue_wait_by_job(result).get(job_id, 0.0)
    lines = _header_lines(result, record, queue_wait)
    if counterfactual is not None:
        lines.extend(_counterfactual_lines(counterfactual, job_id))
    lines.append("")
    if round_index is not None:
        lines.extend(_round_detail(result, ledger, job_id, round_index))
        return "\n".join(lines)
    rows = _round_rows(result, ledger, job_id)
    if counterfactual is not None:
        rows = _annotate_counterfactual(rows, result, counterfactual,
                                        job_id)
    if not rows and record.first_start is None:
        # Censored before admission: there is no timeline to print — say
        # so cleanly instead of showing an empty/garbled table.
        reason = "the simulation ended while it was still queued" \
            if record.submit_time <= result.end_time \
            else "it was submitted after the simulation ended"
        lines.append(f"  queued, never admitted: {reason}; no allocation "
                     "rounds to show")
        return "\n".join(lines)
    lines.extend(_format_rows(rows))
    errors = ledger.error_series(job_id)
    if len(errors) >= 2:
        first, last = errors[0][1], errors[-1][1]
        lines.append("")
        lines.append(f"  estimation error went {100 * first:.1f}% -> "
                     f"{100 * last:.1f}% over the job's lifetime")
    return "\n".join(lines)

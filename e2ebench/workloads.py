"""The benchmark's workloads: one seeded whole simulation each.

Every workload is an *ensemble* of sub-traces.  A run with workload seed
``s`` simulates sub-traces ``0..n-1``, each once and in its own process;
sub-trace ``i`` samples its jobs and the engine's noise/fault streams from
``s * 100 + i``.  The ensemble size ``n`` is fixed by ``--seconds`` and the
workload's nominal cost (:func:`ensemble_size`), never by how fast the
program runs, so two commits always simulate the same jobs.

Traces are sampled through :func:`repro.workloads.trace.generate_trace`,
stratified by job category: each category of the trace family's mix gets
its exact share of the jobs (largest remainder), sampled as a trace of that
category alone, and the jobs, shuffled, take the arrival times of one trace
of the whole family (its diurnal swings and bursts included).  The plain
generator draws categories independently, which puts anywhere from 0 to 7
XL jobs in a 160-job Philly trace; that moved host time per simulation
2.6x across seeds (3.3-8.6 s) and GPU-hours per job 3x, too wide for any
cross-seed bound.  Within a category, models and work jitter stay random.

This module imports nothing from ``repro`` at load time, so the parent
process can read the workload table without the program on its path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: rounds after which a simulation counts as stuck (liveness guard).  The
#: longest workload records ~450 rounds per sub-trace.
ROUND_CEILING = 4000

#: hours of simulated time after which the engine stops and reports the
#: remaining jobs as censored (a censored job fails the run).
MAX_HOURS = 1000.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    why: str
    #: trace family: 'philly', 'helios' or 'newtrace'.
    trace: str
    num_jobs: int
    #: submission window, hours (None keeps the family's default).
    window_hours: float | None
    #: 64 for the paper's heterogeneous preset, else the scaled preset.
    gpus: int
    solver: str
    #: host seconds one sub-trace costs on the reference host, process
    #: start to result; with ``--seconds`` it fixes the ensemble size.
    nominal_s: float
    work_scale: float = 0.2
    #: fault knobs, as :func:`repro.core.fork.make_fault_models` takes them.
    faults: dict[str, float] = field(default_factory=dict)
    #: health layer, resilient solving, strict invariants, checkpoints,
    #: SLO/ledger/alert streams and a saved result.
    full_stack: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="philly-64-milp",
        why="paper headline: Philly on the 64-GPU preset with the MILP; "
            "the solver does most of the work",
        trace="philly", num_jobs=160, window_hours=None, gpus=64,
        solver="milp", nominal_s=4.8),
    Workload(
        name="helios-1024-lpround",
        why="datacenter scale: Helios on 1024 GPUs with lp_round; goodput "
            "evaluation, admission and placement do the work",
        trace="helios", num_jobs=640, window_hours=3.0, gpus=1024,
        solver="lp_round", nominal_s=9.6),
    Workload(
        name="newtrace-faults-64",
        why="churn: newTrace on 64 GPUs under five fault kinds with health, "
            "invariants, checkpoints, streams and a saved result",
        trace="newtrace", num_jobs=240, window_hours=6.0, gpus=64,
        solver="milp", nominal_s=8.6, work_scale=0.1,
        faults={"gray_rate": 0.05, "placement_fail_prob": 0.02,
                "job_crash_rate": 0.1, "restore_failure_prob": 0.05,
                "telemetry_corrupt_rate": 0.01},
        full_stack=True),
)}


def ensemble_size(workload: Workload, seconds: float) -> int:
    """Sub-traces one run simulates: as many as fit in ``seconds``, and at
    least one."""
    return max(1, int(seconds // workload.nominal_s))


def sub_seed(seed: int, index: int) -> int:
    """The generator/engine seed of sub-trace ``index`` of workload seed
    ``seed``."""
    return seed * 100 + index


def make_jobs(workload: Workload, seed: int) -> list:
    """The sub-trace's jobs (see the module doc): arrival times from the
    trace family's own process, job population stratified by category."""
    from dataclasses import replace

    import numpy as np

    from repro.workloads.generators import SPECS
    from repro.workloads.trace import generate_trace

    spec = SPECS[workload.trace]
    n = workload.num_jobs
    sample = {"work_scale_factor": workload.work_scale,
              "window_hours": workload.window_hours}
    mix = spec.category_mix
    shares = {c: p * n for c, p in mix.items()}
    counts = {c: int(s) for c, s in shares.items()}
    by_remainder = sorted(mix, key=lambda c: (counts[c] - shares[c], c))
    for category in by_remainder[:n - sum(counts.values())]:
        counts[category] += 1
    jobs = []
    for k, (category, count) in enumerate(counts.items()):
        if count:
            stratum = replace(spec, name=f"{spec.name}-{category}",
                              category_mix={category: 1.0})
            jobs += generate_trace(stratum, seed=seed * 10 + k,
                                   num_jobs=count, **sample).jobs
    arrivals = [j.submit_time for j in generate_trace(
        spec, seed=seed * 10 + 9, num_jobs=n, **sample).jobs]
    order = np.random.default_rng(seed).permutation(n)
    return [replace(jobs[k], submit_time=t) for k, t in zip(order, arrivals)]


def make_simulator(workload: Workload, seed: int, jobs: list, workdir,
                   observers: list, tracer=None):
    """Build the simulator for one sub-trace.  ``observers`` are appended
    after the workload's own streams; ``tracer`` (a
    :class:`repro.obs.tracer.Tracer`) turns on the program's spans.
    Returns ``(simulator, outputs)`` where ``outputs`` names the files the
    run writes."""
    from pathlib import Path

    from repro.cluster import presets
    from repro.core.fork import make_fault_models, make_scheduler
    from repro.core.health import HealthConfig
    from repro.obs.slo import SLOEngine, parse_rules
    from repro.obs.stream import (AlertStreamObserver, LedgerStreamObserver,
                                  SLOObserver)
    from repro.sim.checkpoint import CheckpointConfig
    from repro.sim.engine import Simulator, SimulatorConfig

    cluster = presets.heterogeneous() if workload.gpus == 64 \
        else presets.scaled_heterogeneous(workload.gpus)
    scheduler = make_scheduler("sia", solver=workload.solver,
                               resilient=workload.full_stack)
    config = SimulatorConfig(seed=seed, max_hours=MAX_HOURS,
                             fault_models=make_fault_models(workload.faults),
                             tracer=tracer)
    outputs: dict[str, Path] = {}
    if workload.full_stack:
        workdir = Path(workdir)
        config.resilient = True
        config.health = HealthConfig()
        config.invariants = "strict"
        config.checkpoint = CheckpointConfig(directory=workdir / "ckpt",
                                             every_rounds=50)
        outputs = {"ledger": workdir / "ledger.jsonl",
                   "alerts": workdir / "alerts.jsonl",
                   "result": workdir / "result.json"}
    simulator = Simulator(cluster, scheduler, jobs, config)
    if workload.full_stack:
        # The CLI's order: SLO evaluation first, so each round's alerts
        # exist before the streams that write them.
        simulator.config.observers += [
            SLOObserver(SLOEngine(parse_rules("default"),
                                  metrics=simulator.metrics)),
            AlertStreamObserver(outputs["alerts"], scheduler.name),
            LedgerStreamObserver(outputs["ledger"], scheduler.name)]
    simulator.config.observers += observers
    return simulator, outputs

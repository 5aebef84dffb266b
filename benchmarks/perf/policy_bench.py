"""Policy-pipeline microbenchmarks: goodput pass + solver backends at scale.

Measures, per (cluster size, job count) point:

* full policy round latency (bootstrap + goodput_eval + solve + placement)
  via the observability phase spans;
* per-solver-backend columns (``milp`` and ``lp_round`` by default): round
  latency, solve-phase time, first-round objective and its gap vs the MILP
  reference — the solver scaling story up to 4096 GPUs / 1024 jobs;
* steady-state estimator cache hit rate across consecutive rounds.

Results land in ``BENCH_policy.json``.  ``--check-baseline`` compares the
``milp`` round latencies (stored under the point's ``vectorized`` key, the
gated column's historical name) against a committed baseline and exits
non-zero on a > ``--regression-factor`` (default 2x) slowdown, which is
how CI gates performance regressions.  ``--sizes`` / ``--backends`` narrow
a run (CI uses ``--sizes 1024`` for the large-point gate without paying
for 4096).

``--stream-overhead`` instead measures what the live telemetry plane
(streaming JSONL exporters + SLO evaluation, see ``repro.obs.stream``)
adds to the per-round path: it runs the same simulation bare and fully
observed and exits non-zero when the observed run's per-round latency
exceeds the bare one by more than ``--overhead-budget`` (default 5%).

Run:  PYTHONPATH=src python benchmarks/perf/policy_bench.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.cluster import presets
from repro.core.policy import SiaPolicyParams
from repro.core.types import ProfilingMode
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.schedulers.base import PLAN_PHASES, JobView
from repro.workloads import helios_trace

#: active jobs per 64 GPUs (paper-proportional load, as in Figure 9).
JOBS_PER_64 = 16

#: consecutive policy rounds per point; the round-latency median (the
#: gated number) is taken over these, cold first round included.
ROUNDS = 3

#: solver columns measured at every point; ``milp`` is the gated one.
DEFAULT_BACKENDS = ("milp", "lp_round")


def make_views(scheduler, cluster, n_jobs: int) -> list[JobView]:
    trace = helios_trace(seed=4, num_jobs=n_jobs)
    views = []
    for job in trace.jobs:
        estimator = scheduler.make_estimator(job, cluster,
                                             ProfilingMode.BOOTSTRAP)
        estimator.profile_initial()
        views.append(JobView(job=job, estimator=estimator,
                             current_config=None, age=0.0, num_restarts=0,
                             progress=0.0))
    return views


def run_rounds(scheduler, cluster, views, rounds: int) -> dict:
    """Run consecutive policy rounds over the same views (steady state after
    round 1: no new observations, so estimator caches stay warm), then one
    extra *cold-cache* round at the warm running state.

    The cold round is the honest goodput_eval comparison point: every job
    is running at a realistic configuration (large feasible sets) and every
    feasible (job, config) pair is evaluated exactly once.  The earlier
    warm rounds measure the latency jobs actually see (cache hits included).
    """
    from repro.obs.metrics import MetricsRegistry

    tracer = Tracer()
    scheduler.tracer = tracer
    scheduler.metrics = MetricsRegistry()
    latencies = []
    objectives = []
    previous: dict = {}
    for r in range(rounds):
        start = time.perf_counter()
        plan = scheduler.decide(views, cluster, previous, 60.0 * r)
        latencies.append(time.perf_counter() - start)
        objectives.append(plan.objective)
        previous = dict(plan.allocations)
        for view in views:
            alloc = plan.allocations.get(view.job_id)
            view.current_config = alloc.configuration() \
                if alloc is not None else None
    phases = {name: tracer.span_stats(name).total for name in PLAN_PHASES}
    hits = sum(getattr(v.estimator, "cache_hits", 0) for v in views)
    misses = sum(getattr(v.estimator, "cache_misses", 0) for v in views)
    counters = scheduler.metrics.snapshot()

    for view in views:
        cache = getattr(view.estimator, "_goodput_cache", None)
        if cache is not None:
            cache.clear()
    cold_tracer = Tracer()
    scheduler.tracer = cold_tracer
    scheduler.decide(views, cluster, previous, 60.0 * rounds)
    return {
        "latencies": latencies,
        "objectives": objectives,
        "phases": phases,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "eval_cold": cold_tracer.span_stats("goodput_eval").total,
        "warm_start_hits": counters.get("solver.warm_start_hits", 0),
        "reuse_skips": counters.get("solver.reuse_skips", 0),
    }


def _column(result: dict) -> dict:
    return {
        "round_latency_median": statistics.median(result["latencies"]),
        "round_latency_first": result["latencies"][0],
        "objective_first": result["objectives"][0],
        "phase_totals": result["phases"],
        "goodput_eval_cold": result["eval_cold"],
        "cache_hit_rate": result["cache_hit_rate"],
        "warm_start_hits": result["warm_start_hits"],
        "reuse_skips": result["reuse_skips"],
    }


def measure_backend(cluster, n_jobs: int, rounds: int, solver: str) -> dict:
    """One (point, solver backend) measurement from a fresh job trace."""
    scheduler = SiaScheduler(SiaPolicyParams(solver=solver))
    views = make_views(scheduler, cluster, n_jobs)
    return run_rounds(scheduler, cluster, views, rounds)


def measure_point(size: int, n_jobs: int, rounds: int,
                  backends: tuple[str, ...] = DEFAULT_BACKENDS) -> dict:
    cluster = presets.scaled_heterogeneous(size)
    point: dict = {"gpus": size, "jobs": n_jobs, "rounds": rounds}

    point["backends"] = {}
    for solver in backends:
        point["backends"][solver] = _column(
            measure_backend(cluster, n_jobs, rounds, solver))
    # First-round objective gap vs the MILP reference (identical initial
    # views per backend: same trace seed, no prior allocations).  Rigorous
    # gap bounds live in tests/test_solver_tiers.py; this is the at-scale
    # spot check.
    milp_obj = point["backends"].get("milp", {}).get("objective_first")
    if milp_obj:
        for solver, column in point["backends"].items():
            column["optimality_gap_first"] = \
                (milp_obj - column["objective_first"]) / abs(milp_obj)

    # The gated latency, under the key the committed baseline stores it:
    # the MILP column, or the first measured one when --backends drops it.
    point["vectorized"] = point["backends"].get("milp") \
        or next(iter(point["backends"].values()))
    return point


class _TimedObserver:
    """Transparent wrapper that accumulates the wall time spent inside one
    observer's per-round hook (the code the overhead gate measures)."""

    def __init__(self, inner):
        self.inner = inner
        self.total = 0.0

    def on_round(self, result, round_index, dt):
        start = time.perf_counter()
        self.inner.on_round(result, round_index, dt)
        self.total += time.perf_counter() - start

    def on_finalize(self, result):
        self.inner.on_finalize(result)

    def close(self):
        self.inner.close()


def measure_stream_overhead(quick: bool, repeats: int = 3) -> dict:
    """What the streaming + SLO observer stack (events, ledger, alerts,
    live SLO evaluation, Prometheus snapshot) adds to the per-round path.

    The added cost is timed *directly* — each observer's ``on_round`` hook
    is wrapped with a timer — and compared against the same run's round
    latency with the observer time subtracted, so the ratio is immune to
    run-to-run machine drift (an end-to-end bare-vs-observed wall-clock
    diff cannot resolve a sub-5% signal on a noisy host).  Bare runs still
    execute as the reference denominator *and* to assert both modes
    simulate identical round counts (the observers are read-only by
    contract)."""
    import shutil
    import tempfile

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOEngine, default_rules
    from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                                  LedgerStreamObserver,
                                  PrometheusSnapshotObserver, SLOObserver)
    from repro.sim import Simulator, SimulatorConfig

    sizes = (64,) if quick else (64, 128)
    points = []
    for size in sizes:
        cluster = presets.scaled_heterogeneous(size)
        n_jobs = JOBS_PER_64 * (size // 64)

        def one_run(observed: bool) -> tuple[float, int, float]:
            # Same preset load the policy-round benchmark measures: all
            # n_jobs concurrently active (submit_time 0), so every round's
            # latency is representative of the loaded cluster rather than
            # a near-empty arrival/drain tail.  work_scale 0.4 keeps them
            # alive long enough to amortize one-time costs (imports,
            # finalize fsyncs) over a few hundred rounds.
            trace = helios_trace(seed=4, num_jobs=n_jobs,
                                 work_scale_factor=0.4)
            jobs = [replace(job, submit_time=0.0) for job in trace.jobs]
            tracer = Tracer()
            registry = MetricsRegistry()
            observers: list = []
            out_dir = None
            if observed:
                out_dir = Path(tempfile.mkdtemp(prefix="stream-bench-"))
                observers = [_TimedObserver(obs) for obs in (
                    SLOObserver(SLOEngine(default_rules(),
                                          metrics=registry)),
                    AlertStreamObserver(out_dir / "alerts.jsonl", "sia"),
                    EventStreamObserver(tracer, out_dir / "events.jsonl",
                                        registry),
                    LedgerStreamObserver(out_dir / "ledger.jsonl", "sia"),
                    PrometheusSnapshotObserver(registry,
                                               out_dir / "metrics.prom"),
                )]
            config = SimulatorConfig(tracer=tracer, metrics=registry,
                                     observers=observers)
            start = time.perf_counter()
            result = Simulator(cluster, SiaScheduler(), jobs, config).run()
            elapsed = time.perf_counter() - start
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
            obs_time = sum(obs.total for obs in observers)
            return elapsed, len(result.rounds), obs_time

        one_run(False)  # warmup: first run pays import/cache costs
        bares = [one_run(False) for _ in range(repeats)]
        observeds = [one_run(True) for _ in range(repeats)]
        bare_s, bare_rounds, _ = min(bares)
        rounds_seen = {r for _, r, _ in bares + observeds}
        assert rounds_seen == {bare_rounds}, \
            "observers changed the round count — determinism contract broken"
        # Per-repeat overhead ratio, each self-consistent within one run:
        # observer time over that same run's observer-free round latency.
        ratios = sorted(obs_time / (elapsed - obs_time)
                        for elapsed, _, obs_time in observeds)
        overhead = statistics.median(ratios)
        observed_s = min(elapsed for elapsed, _, _ in observeds)
        observer_s = min(obs_time for _, _, obs_time in observeds)
        points.append({
            "gpus": size, "jobs": n_jobs, "rounds": bare_rounds,
            "bare_round_s": bare_s / bare_rounds,
            "observed_round_s": observed_s / bare_rounds,
            "observer_round_s": observer_s / bare_rounds,
            "overhead": overhead,
        })
    return {"benchmark": "stream_overhead", "repeats": repeats,
            "points": points}


def run_bench(quick: bool, sizes: tuple[int, ...] | None = None,
              backends: tuple[str, ...] = DEFAULT_BACKENDS) -> dict:
    if sizes is None:
        sizes = (64,) if quick else (64, 128, 256, 1024, 4096)
    # Always the baseline's 3-round protocol: --quick narrows the sizes
    # only, so its median stays comparable with baseline.json.
    points = [measure_point(size, JOBS_PER_64 * (size // 64), ROUNDS,
                            backends=backends)
              for size in sizes]
    return {"benchmark": "policy_round", "jobs_per_64_gpus": JOBS_PER_64,
            "points": points}


def check_baseline(report: dict, baseline_path: Path,
                   factor: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    by_size = {p["gpus"]: p for p in baseline["points"]}
    failures = []
    for point in report["points"]:
        ref = by_size.get(point["gpus"])
        if ref is None:
            continue
        now = point["vectorized"]["round_latency_median"]
        then = ref["vectorized"]["round_latency_median"]
        if now > factor * then:
            failures.append(
                f"{point['gpus']} GPUs: round latency {now:.4f}s "
                f"> {factor:.1f}x baseline {then:.4f}s")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smallest instance only (CI); same rounds "
                             "per point as the baseline")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated GPU counts to measure "
                             "(overrides --quick's size selection)")
    parser.add_argument("--backends", type=str, default=None,
                        help="comma-separated solver backends to column "
                             f"(default: {','.join(DEFAULT_BACKENDS)})")
    parser.add_argument("--out", type=Path, default=Path("BENCH_policy.json"))
    parser.add_argument("--check-baseline", type=Path, default=None,
                        help="baseline JSON to gate regressions against")
    parser.add_argument("--regression-factor", type=float, default=2.0)
    parser.add_argument("--stream-overhead", action="store_true",
                        help="measure streaming+SLO observer overhead "
                             "instead of the policy-round benchmark")
    parser.add_argument("--overhead-budget", type=float, default=0.05,
                        help="max allowed fractional per-round overhead "
                             "for --stream-overhead")
    args = parser.parse_args(argv)

    if args.stream_overhead:
        report = measure_stream_overhead(args.quick)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        failed = False
        for point in report["points"]:
            verdict = "ok" if point["overhead"] <= args.overhead_budget \
                else "OVER BUDGET"
            failed |= point["overhead"] > args.overhead_budget
            print(f"{point['gpus']:5d} GPUs / {point['jobs']:3d} jobs / "
                  f"{point['rounds']:3d} rounds: bare "
                  f"{point['bare_round_s'] * 1e3:8.2f} ms/round, observers "
                  f"+{point['observer_round_s'] * 1e3:.2f} ms/round, "
                  f"overhead {point['overhead']:+.1%} "
                  f"(budget {args.overhead_budget:.0%}) {verdict}")
        print(f"wrote {args.out}")
        return 1 if failed else 0

    sizes = tuple(int(s) for s in args.sizes.split(",")) \
        if args.sizes else None
    backends = tuple(args.backends.split(",")) if args.backends \
        else DEFAULT_BACKENDS
    report = run_bench(args.quick, sizes=sizes, backends=backends)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for point in report["points"]:
        vec = point["vectorized"]
        print(f"{point['gpus']:5d} GPUs / {point['jobs']:4d} jobs: "
              f"round {vec['round_latency_median'] * 1e3:8.1f} ms, "
              f"cache hit rate {vec['cache_hit_rate']:.0%}")
        for solver, column in point.get("backends", {}).items():
            gap = column.get("optimality_gap_first")
            gap_text = f", gap {gap:+.2%}" if gap is not None else ""
            print(f"        {solver:10s} round "
                  f"{column['round_latency_median'] * 1e3:8.1f} ms, solve "
                  f"{column['phase_totals']['solve'] * 1e3:8.1f} ms total"
                  f"{gap_text}")
    print(f"wrote {args.out}")

    if args.check_baseline is not None:
        failures = check_baseline(report, args.check_baseline,
                                  args.regression_factor)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One simulation in a fresh process: ``run.py`` starts one per sub-trace.

    python3 e2ebench/worker.py --workload NAME --seed N --index I \\
        --spawned MONOTONIC --traced 0|1 --workdir DIR

Prints one JSON object on stdout: timings, the simulated outcomes, the
guard's verdict, the decision digest and, when traced, the layer table.

Host times come with the reference probe's time after every round (see
:func:`reference_probe`), so ``run.py`` can report them at the reference
host's speed.  Traced runs do not probe.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

_RNG = np.random.default_rng(7)
_MATRIX = _RNG.random((48, 48))
_VECTOR = _RNG.random(3000)


class GuardError(RuntimeError):
    """The simulation broke the benchmark's liveness/correctness guard."""


def reference_probe() -> float:
    """Time one fixed slice of interpreter and numpy work, seconds.

    The probe is the benchmark's own code, so a change to the program
    never changes its cost; only the host's speed does.  It runs between
    rounds, outside the timed intervals, so the probes around a round say
    how fast the host ran during it.  The garbage collector is off
    meanwhile, so the program's heap never lands in it.
    """
    gc.disable()
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(600):
        table[i % 37] = table.get(i % 37, 0) + i * 3
    sorted(table.items(), key=lambda kv: -kv[1])
    for _ in range(8):
        np.sort(np.exp(_VECTOR) * 1.5)
        _MATRIX @ _MATRIX
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def decision_digest(rounds) -> str:
    """Hash of the per-round allocation series (job -> GPU type, count)."""
    h = hashlib.sha256()
    for index, record in enumerate(rounds):
        h.update(json.dumps([index, sorted(record.allocations.items())],
                            separators=(",", ":")).encode())
    return h.hexdigest()[:12]


def check(result, jobs, capacities) -> tuple[list[str], int]:
    """The guard: every job finishes before the time cap, and every round
    fits the cluster.  Returns (problems, failed rounds), where a failed
    round was carried forward instead of planned."""
    problems = []
    if result.censored:
        problems.append(f"{result.censored} jobs censored")
    if result.end_time >= workloads.MAX_HOURS * 3600.0:
        problems.append("reached the time cap")
    finished = sum(1 for j in result.jobs if j.finish_time is not None)
    if len(result.jobs) != len(jobs) or finished != len(jobs):
        problems.append(f"{finished}/{len(jobs)} jobs finished")
    failed_rounds = 0
    for index, record in enumerate(result.rounds):
        if record.backend == "carry":
            failed_rounds += 1
        for gpu_type, used in record.gpus_used.items():
            if used > capacities.get(gpu_type, 0):
                problems.append(f"round {index} uses {used} {gpu_type} "
                                f"GPUs of {capacities.get(gpu_type, 0)}")
        if len(record.allocations) != record.running_jobs:
            problems.append(f"round {index} records "
                            f"{len(record.allocations)} allocations for "
                            f"{record.running_jobs} running jobs")
    return problems, failed_rounds


def check_outputs(result, outputs, jobs) -> list[str]:
    """The write path: streams finalized, saved result reads back whole."""
    from repro import io

    problems = []
    for name in ("ledger", "alerts"):
        if not outputs[name].is_file():
            problems.append(f"{name} stream not finalized")
    saved = io.load_result(outputs["result"])
    if len(saved.jobs) != len(jobs) or saved.censored \
            or len(saved.rounds) != len(result.rounds):
        problems.append("saved result does not read back whole")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.sub_seed(args.seed, args.index)

    from repro import io
    from repro.metrics.jct import summarize
    from repro.obs.stream import RoundObserver
    from repro.sim.invariants import InvariantError
    t_imported = time.monotonic()

    jobs = workloads.make_jobs(workload, seed)
    t_trace = time.monotonic()

    class RoundClock(RoundObserver):
        """Times each recorded round, probes the host between rounds and
        enforces the round ceiling."""

        def __init__(self, probing: bool) -> None:
            super().__init__()
            self.probing = probing
            self.intervals: list[float] = []
            self.probes: list[float] = []
            self.begin = 0.0

        def on_round(self, result, round_index, dt) -> None:
            self.intervals.append(time.perf_counter() - self.begin)
            if self.probing:
                self.probes.append(reference_probe())
            self.begin = time.perf_counter()
            if round_index + 1 > workloads.ROUND_CEILING:
                raise GuardError(f"exceeded {workloads.ROUND_CEILING} rounds")

    clock = RoundClock(probing=not args.traced)
    probe = None
    if args.traced:
        import layers
        probe = layers.LayerProbe()
    simulator, outputs = workloads.make_simulator(
        workload, seed, jobs, args.workdir, [clock],
        tracer=probe.tracer if probe else None)
    if probe is not None:
        probe.install(simulator)
    t_built = time.monotonic()

    start = clock.begin = time.perf_counter()
    try:
        result = simulator.run()
        if "result" in outputs:
            with probe.tracer.span("bench.save") if probe else nullcontext():
                io.save_result(result, outputs["result"])
    except (GuardError, InvariantError) as exc:
        print(json.dumps({"ok": False, "problems": [str(exc)]}))
        return 0
    wall = time.perf_counter() - start - sum(clock.probes)

    capacities = simulator.cluster.capacities()
    problems, failed_rounds = check(result, jobs, capacities)
    if outputs:
        problems += check_outputs(result, outputs, jobs)
    summary = summarize(result)
    out = {
        "ok": not problems,
        "problems": problems,
        "digest": decision_digest(result.rounds),
        "jobs": len(jobs),
        "unfinished_jobs": sum(1 for j in result.jobs
                               if j.finish_time is None),
        "rounds": len(result.rounds),
        "failed_rounds": failed_rounds,
        "setup_s": t_built - args.spawned,
        "import_s": t_imported - args.spawned,
        "trace_gen_s": t_trace - t_imported,
        "sim_wall_s": wall,
        "probe_ms": [x * 1e3 for x in clock.probes],
        "round_ms": [x * 1e3 for x in clock.intervals],
        "plan_ms": [r.solve_time * 1e3 for r in result.rounds],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "outcomes": {"avg_jct_h": summary.avg_jct_hours,
                     "gpu_h_per_job": summary.avg_gpu_hours_per_job,
                     "makespan_h": summary.makespan_hours},
    }
    if probe is not None:
        out["layers"] = probe.table(result, wall, outputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

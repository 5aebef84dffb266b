"""End-to-end benchmark: seeded whole simulations through the public API.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` simulates the workload's ensemble of sub-traces, one fresh
process each (``worker.py``), and prints the end-to-end metrics, with host
times at the reference host's speed (:data:`PROBE_REF_MS`).
``--trace 1`` simulates sub-trace 0 twice, untraced and traced, and prints
the per-layer table of the traced run.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give the decision digest, the guard's counts and the environment.  See
README.md for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: the whole run, set-up included, ends before this many seconds.
DEADLINE_S = 170.0

#: the reference probe's mean time between rounds on the reference host,
#: ms.  Host times are reported at that host's speed: each is multiplied by
#: this over the mean of the probes taken around it (see
#: ``worker.reference_probe`` and README.md, "Calibrated host time").
PROBE_REF_MS = 0.5

#: a round is calibrated by the probes of the rounds this close to it,
#: because the host's speed changes within a simulation too.
PROBE_WINDOW = 10

#: one simulation per process, one BLAS/OpenMP thread each, and a fixed
#: string-hash seed so dict layouts repeat from process to process.
WORKER_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")} | {"PYTHONHASHSEED": "0"}

END_TO_END = {
    "sim_wall_s": "s", "setup_s": "s",
    "round_ms.p50": "ms", "round_ms.p95": "ms",
    "plan_ms.p50": "ms", "plan_ms.p95": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s", "workloads.trace_gen_s": "s",
    "admit.s": "s", "faults.s": "s", "health.s": "s", "bootstrap.s": "s",
    "goodput_eval.s": "s", "goodput_eval.pairs": "count",
    "goodput_eval.cache_hit_rate": "ratio",
    "solve.s": "s", "solve.calls": "count", "solve.warm_start_hits": "count",
    "solve.reuse_skips": "count", "solve.fallbacks": "count",
    "placement.s": "s", "placement.calls": "count",
    "apply.s": "s", "advance.s": "s", "invariants.s": "s",
    "observers.s": "s", "observers.bytes": "bytes",
    "checkpoint.s": "s", "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes", "save.s": "s", "save.bytes": "bytes",
    "unattributed.s": "s", "unattributed.share": "ratio",
    "trace_overhead.share": "ratio",
}


def spawn(workload: str, seed: int, index: int, traced: bool,
          deadline: float, scratch: Path) -> dict:
    """Run one simulation in a fresh process and return its report."""
    workdir = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, **WORKER_ENV)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--index", str(index),
             "--spawned", repr(spawned), "--traced", str(int(traced)),
             "--workdir", workdir],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["worker ran past the deadline"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"ok": False,
                "problems": [f"worker exited with {proc.returncode}"]}
    return json.loads(lines[-1])


def environment() -> str:
    """The host and software the run measured, as one line."""
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() \
                else ref[5:]
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={version('numpy')} scipy={version('scipy')} "
            f"commit={commit[:12]} threads={WORKER_ENV['OMP_NUM_THREADS']}")


def speeds(probe_ms: list[float]) -> list[float]:
    """Each round's calibration factor: ``PROBE_REF_MS`` over the mean of
    the probes within ``PROBE_WINDOW`` rounds of it."""
    sums = list(itertools.accumulate(probe_ms, initial=0.0))
    n = len(probe_ms)
    out = []
    for i in range(n):
        lo, hi = max(0, i - PROBE_WINDOW), min(n, i + PROBE_WINDOW + 1)
        out.append(PROBE_REF_MS * (hi - lo) / (sums[hi] - sums[lo]))
    return out


def end_to_end(sims: list[dict]) -> dict[str, float]:
    """Metrics of an ensemble of simulations, one per sub-trace, with host
    times at the reference host's speed."""
    round_ms: list[float] = []
    plan_ms: list[float] = []
    walls = []
    setups = []
    for sim in sims:
        scale = speeds(sim["probe_ms"])
        rounds = [t * k for t, k in zip(sim["round_ms"], scale)]
        round_ms += rounds
        plan_ms += [t * k for t, k in zip(sim["plan_ms"], scale)]
        # The time after the last round: finalizing and saving.
        rest = sim["sim_wall_s"] - sum(sim["round_ms"]) / 1e3
        walls.append(sum(rounds) / 1e3 + rest * scale[-1])
        # Set-up is calibrated like the first round, which follows it.
        setups.append(sim["setup_s"] * scale[0])
    # Cut points at every 5 %, interpolated as numpy's default does.
    rounds = statistics.quantiles(round_ms, n=20, method="inclusive")
    plans = statistics.quantiles(plan_ms, n=20, method="inclusive")
    return {
        "sim_wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "round_ms.p50": rounds[9], "round_ms.p95": rounds[18],
        "plan_ms.p50": plans[9], "plan_ms.p95": plans[18],
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sims),
    }


def per_layer(base: dict, traced: dict) -> dict[str, float]:
    out = dict(traced["layers"])
    out["setup.import_s"] = base["import_s"]
    out["workloads.trace_gen_s"] = base["trace_gen_s"]
    out["trace_overhead.share"] = traced["sim_wall_s"] / base["sim_wall_s"]
    return out


def report(name: str, seed: int, schedule: list[tuple[int, bool]],
           sims: list[dict]) -> None:
    """The lines above the result: guard counts, then per simulation its
    decision digest, raw host times, host speed and simulated outcomes.
    The counts leave out the traced run, a second run of sub-trace 0."""
    counted = [s for (_, traced), s in zip(schedule, sims) if not traced]
    rounds = sum(s["rounds"] for s in counted)
    jobs = sum(s["jobs"] for s in counted)
    print(f"{name} seed={seed} simulations={len(sims)} rounds={rounds} "
          f"jobs={jobs} failed_rounds_frac="
          f"{sum(s['failed_rounds'] for s in counted) / rounds:.4f} "
          f"unfinished_jobs_frac="
          f"{sum(s['unfinished_jobs'] for s in counted) / jobs:.4f}")
    for (index, traced), sim in zip(schedule, sims):
        outcomes = " ".join(f"{k}={v:.6f}" for k, v in sim["outcomes"].items())
        probes = sim["probe_ms"]
        speed = "" if not probes else \
            f" host_speed={PROBE_REF_MS / statistics.fmean(probes):.3f}"
        print(f"  sub-trace {index}{' traced' if traced else ''}: "
              f"rounds={sim['rounds']} "
              f"digest={sim['digest']} raw_sim_wall_s={sim['sim_wall_s']:.3f}"
              f"{speed} {outcomes}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        schedule = [(0, False), (0, True)]
    else:
        count = workloads.ensemble_size(workload, args.seconds)
        schedule = [(i, False) for i in range(count)]
    scratch = ROOT / ".e2ebench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        sims = [spawn(workload.name, args.seed, index, traced, deadline,
                      scratch) for index, traced in schedule]
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    correct = True
    for (index, traced), sim in zip(schedule, sims):
        if not sim["ok"]:
            print(f"sub-trace {index} FAILED: {'; '.join(sim['problems'])}")
            correct = False
    if correct:
        report(workload.name, args.seed, schedule, sims)
        if args.trace and sims[0]["digest"] != sims[1]["digest"]:
            print("FAILED: the traced run made different decisions")
            correct = False
    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    if correct:
        metrics = per_layer(*sims) if args.trace else end_to_end(sims)
    print(environment())
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": len(sims),
        "failed": sum(1 for s in sims if not s["ok"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer attribution for a traced simulation.

The traced worker hands the engine a real :class:`repro.obs.tracer.Tracer`
(turning on the program's own ``admit``/``round``/``plan``/phase/``apply``/
``advance``/``faults``/``checkpoint`` spans) and wraps the public entry
points of the layers that have no span of their own, from the benchmark's
side, as ``bench.*`` spans on the same tracer: estimator ``goodput_batch``,
``solve_assignment`` / ``ResilientSolver.solve``, ``Placer.place``,
``InvariantChecker.check_round``, the ``HealthTracker`` methods the engine
calls, the fault models' in-round samplers, each stream observer's
``on_round``/``on_finalize``, ``Simulator.save_checkpoint`` and
``io.save_result``.  Methods are wrapped on the classes, never on
instances, because checkpoints pickle the instances.

A layer's time is the self time of its spans (duration minus the time its
child spans cover), so the layers never double-count and, with
``unattributed``, sum exactly to the traced wall time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from pathlib import Path

from repro.core import policy as policy_module
from repro.core.health import HealthTracker
from repro.core.placement import Placer
from repro.core.resilience import ResilientSolver
from repro.obs.stream import RoundObserver
from repro.obs.tracer import Tracer
from repro.perf.estimator import JobPerfEstimator
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker

#: span name -> layer.  Spans not listed (``round``, ``plan``) keep their
#: self time out of every layer: it is reported as ``unattributed``.
LAYER_OF_SPAN = {
    "admit": "admit",
    "faults": "faults", "bench.faults": "faults",
    "bench.health": "health",
    "bootstrap": "bootstrap",
    "goodput_eval": "goodput_eval", "bench.goodput_batch": "goodput_eval",
    "solve": "solve", "ilp_solve": "solve", "solve_attempt": "solve",
    "reuse_check": "solve", "solve_partition": "solve",
    "carry_forward": "solve", "bench.solve": "solve",
    "placement": "placement", "bench.place": "placement",
    "apply": "apply",
    "advance": "advance",
    "bench.invariants": "invariants",
    "bench.observers": "observers",
    "checkpoint": "checkpoint", "bench.checkpoint": "checkpoint",
    "bench.save": "save",
}

LAYERS = ("admit", "faults", "health", "bootstrap", "goodput_eval", "solve",
          "placement", "apply", "advance", "invariants", "observers",
          "checkpoint", "save")

#: HealthTracker methods the engine and ResilientScheduler call per round.
HEALTH_METHODS = ("tick", "healthy_view", "excluded_nodes", "type_discounts",
                  "note_eviction", "record_goodput",
                  "record_placement_failure", "record_placement_success",
                  "state_counts", "drain_events")

#: fault-model samplers called inside apply/advance (``sample`` itself runs
#: under the engine's ``faults`` span).
FAULT_METHODS = ("sample_restore_failures", "sample_placement_failures",
                 "corrupt_observation")


class LayerProbe:
    """Installs the ``bench.*`` wrappers and builds the layer table."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.goodput_pairs = 0
        self.solve_calls = 0
        self.placement_calls = 0
        self.checkpoint_bytes = 0
        self.checkpoint_writes = 0
        self._estimators: dict[int, JobPerfEstimator] = {}

    def _wrap(self, owner, attr: str, span: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with tracer.span(span):
                out = original(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, timed)

    def install(self, simulator: Simulator) -> None:
        """Wrap every layer entry point this simulator can reach."""

        def goodput(args, out):
            self.goodput_pairs += len(args[1])
            self._estimators[id(args[0])] = args[0]

        def solve(args, out):
            self.solve_calls += 1

        def place(args, out):
            self.placement_calls += 1

        def checkpoint(args, path):
            self.checkpoint_writes += 1
            self.checkpoint_bytes += Path(path).stat().st_size

        self._wrap(JobPerfEstimator, "goodput_batch", "bench.goodput_batch",
                   goodput)
        self._wrap(policy_module, "solve_assignment", "bench.solve", solve)
        self._wrap(ResilientSolver, "solve", "bench.solve", solve)
        self._wrap(Placer, "place", "bench.place", place)
        self._wrap(InvariantChecker, "check_round", "bench.invariants")
        for name in HEALTH_METHODS:
            self._wrap(HealthTracker, name, "bench.health")
        for cls in {type(m) for m in simulator.config.fault_models}:
            for name in FAULT_METHODS:
                self._wrap(cls, name, "bench.faults")
        self._wrap(RoundObserver, "on_round", "bench.observers")
        for cls in {type(o) for o in simulator.config.observers}:
            if "on_finalize" in vars(cls):
                self._wrap(cls, "on_finalize", "bench.observers")
        self._wrap(Simulator, "save_checkpoint", "bench.checkpoint",
                   checkpoint)

    def table(self, result, wall: float, outputs: dict[str, Path]) -> dict:
        """The per-layer metrics of one traced run of ``wall`` seconds."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.tracer.spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration
        seconds = dict.fromkeys(LAYERS, 0.0)
        for span in self.tracer.spans:
            layer = LAYER_OF_SPAN.get(span.name)
            if layer is not None:
                seconds[layer] += span.duration - covered[span.span_id]
        hits = sum(e.cache_hits for e in self._estimators.values())
        queries = hits + sum(e.cache_misses for e in self._estimators.values())
        final = result.final_metrics or {}
        unattributed = wall - sum(seconds.values())
        out = {f"{layer}.s": value for layer, value in seconds.items()}
        out.update({
            "goodput_eval.pairs": self.goodput_pairs,
            "goodput_eval.cache_hit_rate": hits / queries if queries else 0.0,
            "solve.calls": self.solve_calls,
            "solve.warm_start_hits": final.get("solver.warm_start_hits", 0),
            "solve.reuse_skips": final.get("solver.reuse_skips", 0),
            "solve.fallbacks": final.get("solver_fallbacks", 0),
            "placement.calls": self.placement_calls,
            "observers.bytes": sum(outputs[name].stat().st_size
                                   for name in ("ledger", "alerts")
                                   if name in outputs),
            "checkpoint.writes": self.checkpoint_writes,
            "checkpoint.bytes": self.checkpoint_bytes,
            "save.bytes": outputs["result"].stat().st_size
            if "result" in outputs else 0,
            "unattributed.s": unattributed,
            "unattributed.share": unattributed / wall,
        })
        return out

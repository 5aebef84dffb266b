"""Goodput model: throughput x statistical efficiency, with batch-size
co-optimization (Sections 3.1-3.2).

Given an allocation shape (GPU type, GPU count ``k``, node count ``n``), the
Adaptive Executor picks the per-GPU batch size and gradient-accumulation
steps maximizing goodput, subject to

* the GPU type's memory limit on local batch size,
* the submitter's ``max_bsz`` cap on total batch size,
* a floor of the reference batch size ``M0`` (training below the submitted
  batch size is never beneficial: efficiency is capped and throughput falls).

Gradient accumulation lets memory-limited GPUs reach statistically-optimal
total batch sizes (Section 3.1, "Heterogeneous Execution").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.efficiency import EfficiencyModel
from repro.perf.throughput import ThroughputModel

#: Cap on gradient-accumulation sub-steps considered per iteration.
MAX_ACCUM_STEPS: int = 16

#: Relative slack when shortlisting grid maxima in the vectorized pass.
#: Vectorized numpy ``pow`` can differ from CPython's by an ulp, so every
#: candidate within this band of the vectorized maximum is re-evaluated
#: through the scalar path and the scalar tie-break rule applied — making
#: the vectorized optimizer *exactly* equivalent to the scalar loop.
_SHORTLIST_RTOL: float = 1e-12

#: Candidate grids are pure functions of (shape, batch-size caps); one
#: cluster-wide scheduling round asks for the same few dozen grids hundreds
#: of times (every job of a model on every GPU type), so the vectorized
#: path memoizes them together with their numpy columns.
_GRID_CACHE: dict[tuple, BatchGrid] = {}
_GRID_CACHE_MAX = 4096


@dataclass(frozen=True, eq=False)
class BatchGrid:
    """A candidate (accum_steps, local_bsz) grid for one GPU count, with
    the numpy columns a batched evaluation reads.

    A grid holds only a few points per local batch size (one per
    accumulation level), so the per-local work of the throughput model
    runs on :attr:`locals_` and is gathered to the points via
    :attr:`inverse`.
    """

    pairs: list[tuple[int, int]]   # (accum_steps, local_bsz) per point
    accum: np.ndarray              # float accum_steps per point
    total: np.ndarray              # float total batch size per point
    locals_: np.ndarray            # sorted distinct float local sizes
    inverse: np.ndarray            # point -> index into ``locals_``

    @classmethod
    def from_pairs(cls, num_gpus: int,
                   pairs: list[tuple[int, int]]) -> BatchGrid:
        accum = np.array([a for a, _ in pairs], dtype=float)
        local = np.array([m for _, m in pairs], dtype=float)
        locals_, inverse = np.unique(local, return_inverse=True)
        return cls(pairs=pairs, accum=accum, total=num_gpus * local * accum,
                   locals_=locals_, inverse=inverse)


@dataclass(frozen=True)
class BatchPlan:
    """An executable batch-size decision with its predicted rates."""

    local_bsz: int
    accum_steps: int
    total_batch_size: int
    throughput: float    # samples / second
    efficiency: float    # effective samples per sample
    goodput: float       # effective samples / second


def candidate_local_sizes(lo: int, hi: int, *, max_candidates: int = 24) -> list[int]:
    """A geometric grid of candidate local batch sizes in [lo, hi]."""
    if lo < 1 or hi < lo:
        return []
    sizes: set[int] = {lo, hi}
    value = float(lo)
    ratio = (hi / lo) ** (1.0 / max(1, max_candidates - 1)) if hi > lo else 1.0
    for _ in range(max_candidates):
        sizes.add(int(round(value)))
        value *= ratio
        if value > hi:
            break
    return sorted(s for s in sizes if lo <= s <= hi)


class GoodputModel:
    """Combines one throughput model with the job's efficiency model.

    Throughput models with a ``throughput_grid`` method get the batched
    grid evaluation (one numpy pass over a :class:`BatchGrid`); others get
    the scalar reference loop.  Both produce identical plans: the
    vectorized pass ranks candidates in bulk, then re-evaluates the (tiny)
    shortlist of maxima through the scalar path so returned numbers are
    bit-identical.
    """

    def __init__(self, throughput_model: ThroughputModel,
                 efficiency_model: EfficiencyModel):
        self.throughput_model = throughput_model
        self.efficiency_model = efficiency_model
        self.vectorized = hasattr(throughput_model, "throughput_grid")

    def evaluate(self, local_bsz: int, num_gpus: int, num_nodes: int,
                 accum_steps: int = 1) -> BatchPlan:
        """Predicted rates for one fully-specified execution plan."""
        total = num_gpus * local_bsz * accum_steps
        xput = self.throughput_model.throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)
        eff = self.efficiency_model.efficiency(total)
        return BatchPlan(local_bsz=local_bsz, accum_steps=accum_steps,
                         total_batch_size=total, throughput=xput,
                         efficiency=eff, goodput=xput * eff)

    def optimize_batch_size(self, num_gpus: int, num_nodes: int, *,
                            max_local_bsz: int,
                            max_total_bsz: int,
                            min_total_bsz: int | None = None,
                            fixed_total_bsz: int | None = None) -> BatchPlan | None:
        """Best batch plan for an allocation shape, or None if infeasible.

        ``fixed_total_bsz`` implements strong-scaling/rigid jobs: the total
        batch size is pinned and only its (local, accumulation) split is
        optimized.
        """
        if num_gpus < 1 or max_local_bsz < 1:
            return None
        if fixed_total_bsz is not None:
            key = ("fixed", num_gpus, fixed_total_bsz, max_local_bsz)
            build = lambda: self._fixed_total_grid(  # noqa: E731
                num_gpus, fixed_total_bsz, max_local_bsz)
        else:
            floor_total = min_total_bsz or 1
            if floor_total > max_total_bsz:
                return None
            key = ("adaptive", num_gpus, max_local_bsz, max_total_bsz,
                   floor_total)
            build = lambda: self._adaptive_grid(  # noqa: E731
                num_gpus, max_local_bsz, max_total_bsz, floor_total)
        if not self.vectorized:
            pairs = build()
            if not pairs:
                return None
            return self._best_of_grid_scalar(pairs, num_gpus, num_nodes)
        grid = self._cached_grid(key, num_gpus, build)
        if not grid.pairs:
            return None
        return self._best_of_grid_vectorized(grid, num_gpus, num_nodes)

    @staticmethod
    def _cached_grid(key, num_gpus: int, build) -> BatchGrid:
        grid = _GRID_CACHE.get(key)
        if grid is None:
            if len(_GRID_CACHE) >= _GRID_CACHE_MAX:
                _GRID_CACHE.clear()
            _GRID_CACHE[key] = grid = BatchGrid.from_pairs(num_gpus, build())
        return grid

    # -- candidate grids ---------------------------------------------------

    @staticmethod
    def _adaptive_grid(num_gpus: int, max_local_bsz: int, max_total_bsz: int,
                       floor_total: int) -> list[tuple[int, int]]:
        """(accum, local) candidates for an adaptive-batch-size job."""
        pairs: list[tuple[int, int]] = []
        for accum in range(1, MAX_ACCUM_STEPS + 1):
            # Local size must keep the total within [floor, cap].
            lo = max(1, -(-floor_total // (num_gpus * accum)))  # ceil div
            hi = min(max_local_bsz, max_total_bsz // (num_gpus * accum))
            if hi < lo:
                continue
            pairs.extend((accum, local)
                         for local in candidate_local_sizes(lo, hi))
            # Accumulation only helps when memory-limited; once the full
            # range is reachable without accumulation there is no gain.
            if accum == 1 and max_local_bsz * num_gpus >= max_total_bsz:
                break
        return pairs

    @staticmethod
    def _fixed_total_grid(num_gpus: int, total: int,
                          max_local_bsz: int) -> list[tuple[int, int]]:
        """(accum, local) splits of a pinned total batch size."""
        if total < num_gpus:
            return []  # cannot give every GPU at least one sample
        pairs: list[tuple[int, int]] = []
        for accum in range(1, MAX_ACCUM_STEPS + 1):
            local = total // (num_gpus * accum)
            if local < 1:
                break
            if local > max_local_bsz:
                continue
            pairs.append((accum, local))
        return pairs

    # -- grid evaluation ---------------------------------------------------

    def _best_of_grid_scalar(self, pairs: list[tuple[int, int]],
                             num_gpus: int, num_nodes: int) -> BatchPlan | None:
        """The legacy per-candidate loop (reference implementation)."""
        best: BatchPlan | None = None
        for accum, local in pairs:
            plan = self.evaluate(local, num_gpus, num_nodes, accum)
            if best is None or plan.goodput > best.goodput:
                best = plan
        return best

    def _best_of_grid_vectorized(self, grid: BatchGrid, num_gpus: int,
                                 num_nodes: int) -> BatchPlan | None:
        """Rank the whole grid in one batched pass, then pin the winner to
        the scalar path so the returned plan is bit-identical to
        :meth:`_best_of_grid_scalar`."""
        xput = self.throughput_model.throughput_grid(grid, num_gpus,
                                                     num_nodes)
        goodput = xput * self.efficiency_model.efficiency_batch(grid.total)
        best = float(np.max(goodput))
        shortlist = np.flatnonzero(goodput >= best - _SHORTLIST_RTOL
                                   * abs(best))
        if shortlist.size == 0:  # non-finite grid; defer to the reference
            return self._best_of_grid_scalar(grid.pairs, num_gpus, num_nodes)
        best_plan: BatchPlan | None = None
        for idx in shortlist:
            accum, local = grid.pairs[idx]
            plan = self.evaluate(local, num_gpus, num_nodes, accum)
            if best_plan is None or plan.goodput > best_plan.goodput:
                best_plan = plan
        return best_plan

    def goodput(self, num_gpus: int, num_nodes: int, *,
                max_local_bsz: int, max_total_bsz: int,
                min_total_bsz: int | None = None,
                fixed_total_bsz: int | None = None) -> float:
        """Convenience: maximum achievable goodput for an allocation shape."""
        plan = self.optimize_batch_size(
            num_gpus, num_nodes, max_local_bsz=max_local_bsz,
            max_total_bsz=max_total_bsz, min_total_bsz=min_total_bsz,
            fixed_total_bsz=fixed_total_bsz)
        return plan.goodput if plan is not None else 0.0

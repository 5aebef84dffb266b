"""Per-(job, GPU type) throughput model.

The paper reuses Pollux's throughput model family (Section 3.2): iteration
time decomposes into a gradient-computation phase that grows linearly with
per-GPU batch size, and a synchronization (all-reduce) phase that depends on
GPU count and whether the allocation crosses node boundaries.  The two
phases partially overlap, modeled with a gamma-norm::

    T_grad(m)       = alpha_c + beta_c * m
    T_sync(n, k)    = 0                                if k == 1
                    = alpha_r + beta_r * max(0, k - 2) if n == 1
                    = alpha_n + beta_n * max(0, k - 2) if n > 1
    T_iter(m,k,n,s) = (s - 1) * T_grad + (T_grad^g + T_sync^g)^(1/g)

where ``m`` is the local (per-GPU) batch size, ``k`` the GPU count, ``n`` the
node count, ``s >= 1`` the gradient-accumulation steps per iteration and
``g`` the overlap exponent GAMMA.  Throughput is ``k * m * s / T_iter``
samples per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.perf.goodput import BatchGrid

#: Overlap exponent; larger means less compute/communication overlap.
GAMMA: float = 1.6


@dataclass(frozen=True)
class ThroughputParams:
    """Fitted (or ground-truth) parameters of the throughput model."""

    alpha_c: float  # fixed per-step compute overhead (s)
    beta_c: float   # compute seconds per local sample
    alpha_r: float  # intra-node sync base cost (s)
    beta_r: float   # intra-node sync per extra GPU (s)
    alpha_n: float  # inter-node sync base cost (s)
    beta_n: float   # inter-node sync per extra GPU (s)
    gamma: float = GAMMA

    def __post_init__(self) -> None:
        if min(self.alpha_c, self.beta_c, self.alpha_r, self.beta_r,
               self.alpha_n, self.beta_n) < 0:
            raise ValueError("throughput parameters must be non-negative")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")

    def scaled(self, factor: float) -> "ThroughputParams":
        """Uniformly scale all time components (e.g. to perturb ground truth)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            alpha_c=self.alpha_c * factor, beta_c=self.beta_c * factor,
            alpha_r=self.alpha_r * factor, beta_r=self.beta_r * factor,
            alpha_n=self.alpha_n * factor, beta_n=self.beta_n * factor,
        )


class ThroughputModel:
    """Evaluates iteration time and throughput from :class:`ThroughputParams`."""

    def __init__(self, params: ThroughputParams):
        self.params = params

    def grad_time(self, local_bsz: float) -> float:
        """Seconds for one gradient-computation step at local batch size m."""
        if local_bsz <= 0:
            raise ValueError("local_bsz must be positive")
        p = self.params
        return p.alpha_c + p.beta_c * local_bsz

    def sync_time(self, num_nodes: int, num_gpus: int) -> float:
        """Seconds for gradient synchronization across the allocation."""
        if num_gpus < 1 or num_nodes < 1 or num_nodes > num_gpus:
            raise ValueError("invalid allocation shape")
        if num_gpus == 1:
            return 0.0
        p = self.params
        extra = max(0, num_gpus - 2)
        if num_nodes == 1:
            return p.alpha_r + p.beta_r * extra
        return p.alpha_n + p.beta_n * extra

    def iter_time(self, local_bsz: float, num_gpus: int, num_nodes: int,
                  accum_steps: int = 1) -> float:
        """Seconds per training iteration (one optimizer step)."""
        if accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        t_grad = self.grad_time(local_bsz)
        t_sync = self.sync_time(num_nodes, num_gpus)
        g = self.params.gamma
        overlapped = (t_grad ** g + t_sync ** g) ** (1.0 / g)
        return (accum_steps - 1) * t_grad + overlapped

    def throughput(self, local_bsz: float, num_gpus: int, num_nodes: int,
                   accum_steps: int = 1) -> float:
        """Samples processed per second for the given execution plan."""
        total = num_gpus * local_bsz * accum_steps
        return total / self.iter_time(local_bsz, num_gpus, num_nodes, accum_steps)

    # -- vectorized entry points ------------------------------------------

    def _phases(self, grid: BatchGrid, num_gpus: int,
                num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """``T_grad`` and the overlapped compute/sync phase at each distinct
        local size of ``grid`` (sorted ascending, so the first is the least).

        These hold both array ``pow``s of the model, so they run once per
        distinct local batch size and callers gather the results.
        """
        local = grid.locals_
        if local.size and local[0] <= 0:
            raise ValueError("local_bsz must be positive")
        p = self.params
        t_grad = p.alpha_c + p.beta_c * local
        t_sync = self.sync_time(num_nodes, num_gpus)
        g = p.gamma
        return t_grad, (t_grad ** g + t_sync ** g) ** (1.0 / g)

    def throughput_grid(self, grid: BatchGrid, num_gpus: int,
                        num_nodes: int) -> np.ndarray:
        """Vectorized :meth:`throughput` at every point of a candidate grid
        built for ``num_gpus`` GPUs.

        The allocation shape ``(num_gpus, num_nodes)`` is fixed — the sync
        phase is one scalar — so the phases run once per distinct local
        batch size; each point then costs one multiply-add and a divide.
        """
        if grid.accum.size and grid.accum.min() < 1:
            raise ValueError("accum_steps must be >= 1")
        t_grad, overlapped = self._phases(grid, num_gpus, num_nodes)
        inv = grid.inverse
        return grid.total / ((grid.accum - 1) * t_grad[inv] + overlapped[inv])

    def single_gpu_throughput(self, grid: BatchGrid) -> np.ndarray:
        """Vectorized 1-GPU, no-accumulation :meth:`throughput` at each
        distinct local size of ``grid`` (aligned with ``grid.locals_``)."""
        _, overlapped = self._phases(grid, 1, 1)
        return grid.locals_ / overlapped


def perfect_scaling_estimate(single_gpu_throughput: float, num_gpus: int) -> float:
    """The one-time "perfect scaling" assumption from Section 3.2: before any
    multi-GPU run, throughput of N replicas is N x the single-replica rate."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    return single_gpu_throughput * num_gpus


def validate_params_finite(params: ThroughputParams) -> bool:
    """True if every parameter is finite (guards fitted models)."""
    return all(map(math.isfinite, (
        params.alpha_c, params.beta_c, params.alpha_r,
        params.beta_r, params.alpha_n, params.beta_n, params.gamma,
    )))

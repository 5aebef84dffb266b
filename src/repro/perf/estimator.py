"""Per-job Goodput Estimator (Figure 3, steps 2/7/8).

One estimator exists per job.  It owns

* the job's observations and fitted throughput parameters per GPU type,
* the job's statistical-efficiency model (one per job, shared across types),
* the profiling mode (Oracle / No-Prof / Bootstrap, Section 5.7).

The central query is :meth:`goodput`: the best achievable goodput for a
configuration, after optimizing the batch plan under the job's adaptivity
constraints.  Throughput estimates route through a dispatch that mirrors
Section 3.2:

1. Oracle mode, or a fitted model whose communication behaviour has actually
   been observed -> trust the model.
2. Multi-GPU on a type we only have a 1-GPU profile for, while some *other*
   type has multi-GPU experience -> Equation (1) bootstrap.
3. Multi-GPU with no multi-GPU experience anywhere -> the one-time perfect
   scaling assumption (zero communication time).
4. No data at all for a type (No-Prof mode) -> a type-blind prior, so the
   policy can still allocate and learn.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.core.bootstrap import bootstrap_throughput, pick_reference_type
from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.fitting import FitResult, Observation, fit_throughput_params
from repro.perf.goodput import BatchGrid, BatchPlan, GoodputModel
from repro.perf.throughput import ThroughputModel, ThroughputParams

#: Type-blind prior used when nothing at all is known (No-Prof cold start).
_PRIOR_PARAMS = ThroughputParams(alpha_c=0.05, beta_c=0.01,
                                 alpha_r=0.01, beta_r=0.001,
                                 alpha_n=0.05, beta_n=0.005)

#: Batch sizes profiled per GPU type during bootstrap (Section 3.2 profiles
#: "typically 10 batchsizes per GPU type").
PROFILE_POINTS_PER_TYPE = 10


@dataclass
class JobConstraints:
    """The submitter-declared and adaptivity-derived limits for one job."""

    min_bsz: int
    max_bsz: int
    min_gpus: int = 1
    max_gpus: int | None = None
    #: strong-scaling / rigid jobs pin the total batch size.
    fixed_total_bsz: int | None = None


@dataclass
class _TypeState:
    """What the estimator knows about one GPU type."""

    observations: list[Observation] = field(default_factory=list)
    fit: FitResult | None = None
    dirty: bool = False
    #: bumped on every new observation for this type; cache entries that
    #: depended only on this type's fit revalidate against it.
    epoch: int = 0
    #: per batch-plan key ``(num_gpus, num_nodes, local_bsz, accum_steps)``:
    #: recently *accepted* iteration times — the MAD-defense window new
    #: reports are judged against.
    recent: dict[tuple, list[float]] = field(default_factory=dict)


class JobPerfEstimator:
    """Goodput estimator for one job across all GPU types."""

    #: observation-defense knobs (gray-failure hardening; class attrs so
    #: tests and subclasses can tune them).  A report is rejected when it
    #: is non-finite/non-positive, or — once ``OUTLIER_MIN_SAMPLES``
    #: accepted reports exist for the same (gpu_type, batch-plan) key —
    #: when it deviates from the window median by more than
    #: ``OUTLIER_MAD_SIGMAS`` robust z-scores *and* more than
    #: ``OUTLIER_RATIO_CAP``x.  The ratio guard keeps the defense honest
    #: under near-zero observation noise (identical history -> MAD 0 ->
    #: every deviation is "infinite sigmas"): execution-side slowdowns
    #: like a 2x straggler must pass, while an 8x-scaled corrupt report
    #: must not.
    OUTLIER_MIN_SAMPLES = 4
    OUTLIER_MAD_SIGMAS = 6.0
    OUTLIER_RATIO_CAP = 3.0
    OUTLIER_WINDOW = 16

    def __init__(self, model_name: str, constraints: JobConstraints,
                 gpu_types: tuple[str, ...],
                 mode: ProfilingMode = ProfilingMode.BOOTSTRAP):
        self.model_name = model_name
        self.constraints = constraints
        self.gpu_types = gpu_types
        self.mode = mode
        self._types: dict[str, _TypeState] = {t: _TypeState() for t in gpu_types}
        self.profiling_gpu_seconds = 0.0
        self._efficiency = self._initial_efficiency()
        #: memoized goodput-per-configuration results with the epoch token
        #: they were computed under.  Invalidation is *per GPU type*: a new
        #: observation on one type only stales entries whose dispatch read
        #: that type's fit (or the cross-type bootstrap state), so running
        #: jobs keep cache hits on every other type between rounds.
        self._goodput_cache: dict[
            Configuration, tuple[tuple, BatchPlan | None]] = {}
        #: epoch counters backing cache validation: one per GPU type (in
        #: ``_TypeState``), one global observation epoch (cross-type
        #: bootstrap estimates read *all* types), one efficiency epoch.
        self._obs_epoch = 0
        self._eff_epoch = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: reports the input defense refused to fold into any fit.
        self.rejected_observations = 0

    # -- initialization ----------------------------------------------------

    def _initial_efficiency(self) -> EfficiencyModel:
        true_params = profiles.true_efficiency_params(self.model_name)
        if self.mode is ProfilingMode.NO_PROF:
            # Without profiling there is no gradient-noise estimate yet:
            # start pessimistic (large batches look inefficient) and learn.
            return EfficiencyModel(EfficiencyParams(
                grad_noise_scale=float(true_params.init_batch_size),
                init_batch_size=true_params.init_batch_size))
        return EfficiencyModel(EfficiencyParams(
            grad_noise_scale=true_params.grad_noise_scale,
            init_batch_size=true_params.init_batch_size))

    def profile_initial(self) -> float:
        """Run the initial profiling pass (Figure 3, step 2).

        In Bootstrap mode this measures ~10 batch sizes on one GPU of each
        type (from the ground-truth model — the simulated equivalent of
        running a few mini-batches).  Returns GPU-seconds spent, also
        accumulated on :attr:`profiling_gpu_seconds`.
        """
        if self.mode is not ProfilingMode.BOOTSTRAP:
            return 0.0
        spent = 0.0
        for gpu_type in self.gpu_types:
            cap = self.max_local_bsz(gpu_type)
            if cap < 1:
                continue
            lo = max(1, min(self.constraints.min_bsz, cap))
            sizes = sorted({max(1, int(round(lo * (cap / lo) ** (i / max(1, PROFILE_POINTS_PER_TYPE - 1)))))
                            for i in range(PROFILE_POINTS_PER_TYPE)})
            true_model = ThroughputModel(
                profiles.true_throughput_params(self.model_name, gpu_type))
            for bsz in sizes:
                iter_time = true_model.iter_time(bsz, 1, 1)
                self.add_observation(Observation(
                    gpu_type=gpu_type, num_nodes=1, num_gpus=1,
                    local_bsz=bsz, accum_steps=1, iter_time=iter_time))
                spent += iter_time
        self.profiling_gpu_seconds += spent
        return spent

    # -- observation intake --------------------------------------------------

    def add_observation(self, obs: Observation) -> bool:
        """Fold one executor report into the fit state.

        Returns True when accepted.  Input defense (gray-failure
        hardening, independent of the health layer): non-finite or
        non-positive iteration times are refused outright, and MAD-based
        outliers against the recent accepted window for the same
        (gpu_type, batch plan) are refused so one corrupt report cannot
        poison a fit.  Rejected reports bump :attr:`rejected_observations`
        and leave every cache epoch untouched.
        """
        if obs.gpu_type not in self._types:
            raise KeyError(f"estimator does not track GPU type {obs.gpu_type!r}")
        state = self._types[obs.gpu_type]
        if not self._observation_credible(state, obs):
            self.rejected_observations += 1
            return False
        key = (obs.num_gpus, obs.num_nodes, obs.local_bsz, obs.accum_steps)
        window = state.recent.setdefault(key, [])
        window.append(obs.iter_time)
        if len(window) > self.OUTLIER_WINDOW:
            del window[0]
        state.observations.append(obs)
        state.dirty = True
        # Per-type invalidation: only entries whose cache token referenced
        # this type's epoch (or the global epoch, for bootstrapped
        # estimates) fail revalidation; everything else stays warm.
        state.epoch += 1
        self._obs_epoch += 1
        return True

    def _observation_credible(self, state: _TypeState,
                              obs: Observation) -> bool:
        iter_time = obs.iter_time
        if not (isinstance(iter_time, (int, float))
                and math.isfinite(iter_time) and iter_time > 0):
            return False
        window = state.recent.get((obs.num_gpus, obs.num_nodes,
                                   obs.local_bsz, obs.accum_steps))
        if window is None or len(window) < self.OUTLIER_MIN_SAMPLES:
            return True
        median = statistics.median(window)
        mad = statistics.median(abs(x - median) for x in window)
        # Floor the MAD so an identical-history window (MAD 0) does not
        # make every deviation infinitely significant.
        floor = max(mad, 1e-3 * median)
        if abs(iter_time - median) <= self.OUTLIER_MAD_SIGMAS * floor:
            return True
        return (median / self.OUTLIER_RATIO_CAP <= iter_time
                <= median * self.OUTLIER_RATIO_CAP)

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        """Fold a reported gradient-noise-scale measurement into the
        efficiency model (Adaptive Executor reports, Section 3.5)."""
        current = self._efficiency.params.grad_noise_scale
        if abs(observed_noise_scale - current) <= 1e-9 * max(current, 1.0):
            return  # already converged; keep memoized goodputs valid
        self._efficiency.update_noise_scale(observed_noise_scale)
        self._eff_epoch += 1

    def _fit(self, gpu_type: str) -> FitResult | None:
        state = self._types[gpu_type]
        if state.dirty and state.observations:
            state.fit = fit_throughput_params(state.observations)
            state.dirty = False
        return state.fit

    # -- knowledge queries ---------------------------------------------------

    def has_profile(self, gpu_type: str) -> bool:
        return bool(self._types[gpu_type].observations)

    def has_multi_gpu_experience(self, gpu_type: str) -> bool:
        fit = self._fit(gpu_type)
        return fit is not None and fit.has_multi_gpu

    def max_local_bsz(self, gpu_type: str) -> int:
        """Per-GPU batch-size cap on this type (memory limit).

        Discovered during the profiling pass (profiling increases batch size
        until it hits GPU memory limits — Section 3.2), so it is known in
        every mode.
        """
        cap = profiles.max_local_bsz(self.model_name, gpu_type)
        return min(cap, self.constraints.max_bsz) if cap else 0

    # -- throughput dispatch --------------------------------------------------

    def _single_gpu_xput(self, gpu_type: str, local_bsz: int) -> float | None:
        """Estimated 1-GPU throughput on a type, if any data exists."""
        fit = self._fit(gpu_type)
        if fit is None or not fit.has_single_gpu:
            return None
        model = ThroughputModel(fit.params)
        return model.throughput(local_bsz, 1, 1)

    def throughput(self, gpu_type: str, local_bsz: int, num_gpus: int,
                   num_nodes: int, accum_steps: int = 1) -> float:
        """Estimated samples/second on a concrete execution plan."""
        if self.mode is ProfilingMode.ORACLE:
            true_model = ThroughputModel(
                profiles.true_throughput_params(self.model_name, gpu_type))
            return true_model.throughput(local_bsz, num_gpus, num_nodes,
                                         accum_steps)

        fit = self._fit(gpu_type)
        if fit is not None and (num_gpus == 1 or fit.has_multi_gpu):
            return ThroughputModel(fit.params).throughput(
                local_bsz, num_gpus, num_nodes, accum_steps)

        if fit is not None and fit.has_single_gpu:
            # Multi-GPU on a type we have only profiled at 1 GPU.
            estimate = self._bootstrap_multi_gpu(
                gpu_type, local_bsz, num_gpus, num_nodes, accum_steps)
            if estimate is not None:
                return estimate
            # Perfect-scaling assumption (Section 3.2): N replicas run at
            # N x the single-replica rate (accumulation scales samples and
            # time equally, so the rate is unchanged by accum_steps).
            single = self._single_gpu_xput(gpu_type, local_bsz)
            assert single is not None
            return single * num_gpus

        # Nothing known for this type (No-Prof cold start): type-blind prior.
        return ThroughputModel(_PRIOR_PARAMS).throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)

    def throughput_grid(self, gpu_type: str, grid: BatchGrid,
                        num_gpus: int, num_nodes: int) -> np.ndarray:
        """Vectorized :meth:`throughput` over a candidate grid: one
        dispatch decision per (type, shape), then one batched model
        evaluation.

        The dispatch branch taken is identical to the scalar path because
        none of the routing conditions depend on the batch plan.  Only the
        Equation (1) reference type can vary across the grid, and it
        depends on the local batch size alone, so the bootstrap picks it
        once per distinct local size.
        """
        if self.mode is ProfilingMode.ORACLE:
            true_model = ThroughputModel(
                profiles.true_throughput_params(self.model_name, gpu_type))
            return true_model.throughput_grid(grid, num_gpus, num_nodes)

        fit = self._fit(gpu_type)
        if fit is not None and (num_gpus == 1 or fit.has_multi_gpu):
            return ThroughputModel(fit.params).throughput_grid(
                grid, num_gpus, num_nodes)

        if fit is not None and fit.has_single_gpu:
            return self._bootstrap_multi_gpu_grid(fit, grid, num_gpus,
                                                  num_nodes)

        return ThroughputModel(_PRIOR_PARAMS).throughput_grid(
            grid, num_gpus, num_nodes)

    def _bootstrap_multi_gpu(self, gpu_type: str, local_bsz: int,
                             num_gpus: int, num_nodes: int,
                             accum_steps: int) -> float | None:
        """Equation (1): rescale a multi-GPU-experienced reference type."""
        experience = {t: self.has_multi_gpu_experience(t) for t in self.gpu_types}
        singles: dict[str, float] = {}
        for t in self.gpu_types:
            xput = self._single_gpu_xput(t, local_bsz)
            if xput is not None:
                singles[t] = xput
        reference = pick_reference_type(experience, singles)
        if reference is None or gpu_type not in singles:
            return None
        ref_fit = self._fit(reference)
        assert ref_fit is not None
        ref_multi = ThroughputModel(ref_fit.params).throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)
        return bootstrap_throughput(singles[gpu_type], singles[reference],
                                    ref_multi)

    def _bootstrap_multi_gpu_grid(self, fit: FitResult, grid: BatchGrid,
                                  num_gpus: int,
                                  num_nodes: int) -> np.ndarray:
        """Vectorized Equation (1) for a type with only a 1-GPU fit.

        Per distinct local size, the reference is the scalar path's
        ``pick_reference_type`` argmax: the multi-GPU-experienced type
        with the largest positive 1-GPU throughput, first listed winning
        ties.  Local sizes without one fall back to perfect scaling.
        """
        single = ThroughputModel(fit.params).single_gpu_throughput(grid)
        inv = grid.inverse
        experienced = []
        for t in self.gpu_types:
            fit_t = self._fit(t)
            if (fit_t is not None and fit_t.has_multi_gpu
                    and fit_t.has_single_gpu):
                experienced.append(ThroughputModel(fit_t.params))
        if not experienced:
            # Perfect-scaling assumption: N x the single-replica rate at
            # accumulation 1 (matching the scalar path exactly).
            return (single * num_gpus)[inv]
        if len(experienced) == 1:
            ref_model = experienced[0]
            ref_single = ref_model.single_gpu_throughput(grid)
            ref_multi = ref_model.throughput_grid(grid, num_gpus, num_nodes)
        else:
            stacked = np.stack([model.single_gpu_throughput(grid)
                                for model in experienced])
            ref_idx = np.argmax(np.where(stacked > 0, stacked, -np.inf),
                                axis=0)
            ref_single = stacked[ref_idx, np.arange(ref_idx.size)]
            multis = np.stack([model.throughput_grid(grid, num_gpus, num_nodes)
                               for model in experienced])
            ref_multi = multis[ref_idx[inv], np.arange(inv.size)]
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = (single / ref_single)[inv] * ref_multi
        valid = np.isfinite(ref_single) & (ref_single > 0)
        if valid.all():
            return estimate
        return np.where(valid[inv], estimate, (single * num_gpus)[inv])

    # -- goodput -------------------------------------------------------------

    def _cache_token(self, gpu_type: str, num_gpus: int) -> tuple:
        """The epochs a cached plan for (type, shape) depends on.

        A cached entry is valid while its token matches the current one:

        * Oracle estimates read only the (immutable) ground truth, so they
          revalidate on the efficiency epoch alone;
        * trusted fits read one type's observations, so a new observation
          on another GPU type leaves them warm (the per-type invalidation
          this cache exists for);
        * bootstrapped / perfect-scaling estimates read *all* types (the
          Equation (1) reference can change with any observation), so they
          key on the global observation epoch.
        """
        if self.mode is ProfilingMode.ORACLE:
            return ("oracle", self._eff_epoch)
        state = self._types[gpu_type]
        fit = self._fit(gpu_type)
        if fit is None:
            return ("prior", gpu_type, state.epoch, self._eff_epoch)
        if num_gpus == 1 or fit.has_multi_gpu:
            return ("fit", gpu_type, state.epoch, self._eff_epoch)
        return ("boot", self._obs_epoch, self._eff_epoch)

    def goodput(self, config: Configuration) -> float:
        """Best achievable goodput for a configuration (0 if infeasible)."""
        plan = self.best_plan(config)
        return plan.goodput if plan is not None else 0.0

    def goodput_batch(self, configs: list[Configuration]) -> np.ndarray:
        """Goodput for every configuration in one call — fills a whole
        utility row of the policy's matrix at once.  Each cache miss costs
        one batched grid evaluation instead of ~hundreds of scalar model
        calls; hits cost one dict probe."""
        out = np.empty(len(configs))
        for i, config in enumerate(configs):
            plan = self.best_plan(config)
            out[i] = plan.goodput if plan is not None else 0.0
        return out

    def best_plan(self, config: Configuration) -> BatchPlan | None:
        """Optimized batch plan for a configuration under the job's limits."""
        token = self._cache_token(config.gpu_type, config.num_gpus)
        cached = self._goodput_cache.get(config)
        if cached is not None and cached[0] == token:
            self.cache_hits += 1
            return cached[1]
        self.cache_misses += 1
        plan = self._best_plan_uncached(config)
        self._goodput_cache[config] = (token, plan)
        return plan

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of goodput queries answered from the per-type cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def _best_plan_uncached(self, config: Configuration) -> BatchPlan | None:
        cap = self.max_local_bsz(config.gpu_type)
        if cap < 1:
            return None
        adapter = _ThroughputAdapter(self, config.gpu_type)
        model = GoodputModel(adapter, self._efficiency)
        return model.optimize_batch_size(
            config.num_gpus, config.num_nodes,
            max_local_bsz=cap,
            max_total_bsz=self.constraints.max_bsz,
            min_total_bsz=self.constraints.min_bsz,
            fixed_total_bsz=self.constraints.fixed_total_bsz)

    @property
    def efficiency_model(self) -> EfficiencyModel:
        return self._efficiency


class _ThroughputAdapter:
    """Presents the estimator's dispatch as a ThroughputModel-like object so
    :class:`~repro.perf.goodput.GoodputModel` can optimize batch plans on it."""

    def __init__(self, estimator: JobPerfEstimator, gpu_type: str):
        self._estimator = estimator
        self._gpu_type = gpu_type

    def throughput(self, local_bsz: float, num_gpus: int, num_nodes: int,
                   accum_steps: int = 1) -> float:
        return self._estimator.throughput(
            self._gpu_type, int(local_bsz), num_gpus, num_nodes, accum_steps)

    def throughput_grid(self, grid: BatchGrid, num_gpus: int,
                        num_nodes: int) -> np.ndarray:
        return self._estimator.throughput_grid(
            self._gpu_type, grid, num_gpus, num_nodes)

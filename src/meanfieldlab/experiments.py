"""Replicated experiments: chaos rate, deviation tails, equilibration.

Each experiment averages independent replicas (disjoint noise namespaces,
one shared reference flow) and reports fitted exponents with uncertainty.
Constants in the underlying bounds are existential, so everything asserted
downstream is a rate, a sign or an inequality, never a constant's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import (ReferenceFlow, SimConfig, build_reference_flow,
                     simulate_coupled, simulate_particle_system)
from .errors import ValidationError
from .models import ModelSpec, Observable
from .rng import REFERENCE_NAMESPACE, NoiseGrid
from .wasserstein import sample_w1, sample_w2, _even_subsample

__all__ = [
    "RateFit",
    "DeviationTable",
    "EquilibriumCurve",
    "wilson_interval",
    "linear_fit",
    "chaos_rate_experiment",
    "observable_deviation_experiment",
    "empirical_measure_deviation",
    "equilibrium_convergence",
    "make_reference_flow",
]

_DEGENERATE_GAP = 1e-24


# ---------------------------------------------------------------------------
# small statistics helpers


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def linear_fit(x, y):
    """Least squares y = slope*x + intercept; returns slope, intercept, r^2, slope stderr."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2:
        raise ValidationError("need at least two points to fit a line")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise ValidationError("degenerate abscissa in fit")
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - slope * x - intercept
    ss_res = np.sum(resid ** 2)
    ss_tot = np.sum((y - ym) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = max(len(x) - 2, 1)
    slope_se = np.sqrt(ss_res / dof / sxx)
    return float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)), float(slope_se)


# ---------------------------------------------------------------------------
# result containers


@dataclass
class RateFit:
    n_grid: list
    mean_sq_gaps: list
    stderrs: list
    # debiased sample-W2^2 between one-particle law and reference: a signed
    # estimator, negative when the same-law floor exceeds the raw estimate
    w2_sq_estimates: list
    w2_sq_stderrs: list
    slope: float
    intercept: float
    r_squared: float
    slope_se: float
    degenerate: bool = False

    def fitted_constant(self) -> float:
        """C such that gap ~ C / N at the fitted slope -1 reading."""
        return float(np.exp(self.intercept))


@dataclass
class DeviationTable:
    r_grid: list
    empirical_probs: list
    wilson_lows: list
    wilson_highs: list
    n_replicas: int
    n_particles: int
    fitted_c: Optional[float]
    fitted_c_se: Optional[float]
    fit_window: list = field(default_factory=list)   # r values used in the tail fit
    mean_square_error: Optional[float] = None        # one-observable mean-square error
    lln_constant: Optional[float] = None             # N * mse
    threshold: Optional[float] = None                # sqrt(mse) offset inside the event
    metadata: dict = field(default_factory=dict)


@dataclass
class EquilibriumCurve:
    times: list
    w2_to_target: list
    noise_floor: float
    fitted_decay_rate: Optional[float]
    fit_window: list = field(default_factory=list)
    gap_times: list = field(default_factory=list)
    gap_means: list = field(default_factory=list)
    gap_stderrs: list = field(default_factory=list)
    gap_slope: Optional[float] = None
    gap_slope_se: Optional[float] = None


# ---------------------------------------------------------------------------
# shared plumbing


def make_reference_flow(model: ModelSpec, M: int, config: SimConfig,
                        picard_iters: int = 2) -> ReferenceFlow:
    """Reference flow in its dedicated noise namespace, disjoint from all replicas."""
    ref_cfg = replace(config, n_particles=M)
    noise = NoiseGrid(config.seed, REFERENCE_NAMESPACE + config.replica_id, config.dt)
    return build_reference_flow(model, M, ref_cfg, picard_iters=picard_iters, noise=noise)


def _replica_config(config: SimConfig, n: int, replica: int,
                    stride: Optional[int] = None) -> SimConfig:
    return replace(config, n_particles=n, replica_id=config.replica_id + replica,
                   snapshot_stride=stride or config.snapshot_stride)


def _w2sq_debiased(cloud: np.ndarray, reference: np.ndarray):
    """Sample-W2^2 between a cloud and a reference ensemble, floor-corrected.

    The raw estimator between finite same-size clouds carries an O(n^{-1/d})
    positive bias even at distance zero; subtracting the same-law floor,
    measured on disjoint equal-size reference subsamples, makes the estimate
    comparable to the coupling gap.  The estimate is signed and not clipped:
    it is negative when the floor exceeds the raw estimate, as it can when
    the true distance is below the floor's noise.  Returns (estimate, stderr).
    """
    n = len(cloud)
    n_chunks = min(len(reference) // n, 16)
    if n_chunks < 3:
        return float(sample_w2(cloud, _even_subsample(reference, min(n, len(reference)))) ** 2), 0.0
    chunks = [reference[k::n_chunks][:n] for k in range(n_chunks)]
    n_raw = max(2, n_chunks // 2)
    raws = np.array([sample_w2(cloud, chunks[k]) ** 2 for k in range(n_raw)])
    pairs = [(k, k + 1) for k in range(n_raw, n_chunks - 1, 2)]
    floors = np.array([sample_w2(chunks[i], chunks[j]) ** 2 for i, j in pairs])
    raw_se = float(raws.std(ddof=1) / np.sqrt(len(raws)))
    floor_se = float(floors.std(ddof=1) / np.sqrt(len(floors))) if len(floors) > 1 else 0.0
    est = float(raws.mean() - floors.mean()) if len(floors) else float(raws.mean())
    return est, float(np.hypot(raw_se, floor_se))


def _tail_fit(n_particles: int, r_grid, probs, replicas: int):
    """Regress -log(p) on N r^2 over the fittable probability window."""
    lo, hi = 10.0 / replicas, 0.5
    window = [(r, p) for r, p in zip(r_grid, probs) if lo <= p <= hi]
    if len(window) < 2:
        return None, None, []
    rs = np.array([r for r, _ in window])
    ps = np.array([p for _, p in window])
    slope, _, _, se = linear_fit(n_particles * rs ** 2, -np.log(ps))
    return slope, se, list(rs)


def _deviation_table(stats: np.ndarray, offset: float, r_grid, n_particles: int,
                     **extra) -> DeviationTable:
    """Tail table of P[stat > offset + r] over r_grid, Wilson intervals and tail fit."""
    replicas = len(stats)
    probs, lows, highs = [], [], []
    for r in r_grid:
        hits = int(np.sum(stats > offset + r))
        probs.append(hits / replicas)
        lo, hi = wilson_interval(hits, replicas)
        lows.append(lo)
        highs.append(hi)

    fitted_c, c_se, window = _tail_fit(n_particles, r_grid, probs, replicas)
    return DeviationTable(r_grid=list(map(float, r_grid)), empirical_probs=probs,
                          wilson_lows=lows, wilson_highs=highs, n_replicas=replicas,
                          n_particles=n_particles, fitted_c=fitted_c, fitted_c_se=c_se,
                          fit_window=window, **extra)


# ---------------------------------------------------------------------------
# experiments


def chaos_rate_experiment(model: ModelSpec, n_grid: Sequence[int], config: SimConfig,
                          replicas: int, m_reference: Optional[int] = None,
                          picard_iters: int = 2,
                          flow: Optional[ReferenceFlow] = None) -> RateFit:
    """Terminal mean-square coupling gap against N, with its log-log slope.

    One reference flow (M >= 16 max N) is shared across the whole grid so the
    reference bias cancels out of the N-comparison.  Alongside the gap, the
    sample-W2^2 between replicated one-particle draws and reference samples
    is reported: the distance-between-laws side of the chain.
    """
    n_grid = sorted(int(n) for n in n_grid)
    M = flow.m_reference if flow is not None else m_reference or 16 * max(n_grid)
    if M < 16 * max(n_grid):
        raise ValidationError(f"reference ensemble must satisfy M >= 16 max(n_grid) "
                              f"(M={M}, max(n_grid)={max(n_grid)})")
    if flow is None:
        flow = make_reference_flow(model, M, config, picard_iters)

    mean_gaps, stderrs, w2_sqs, w2_ses = [], [], [], []
    for n in n_grid:
        def one(rep, n=n):
            res = simulate_coupled(model, _replica_config(config, n, rep), flow)
            return res.mean_square_gap[-1], res.terminal_particles[0]

        results = [one(rep) for rep in range(replicas)]
        gaps = np.array([g for g, _ in results])
        first_particle = np.array([x for _, x in results])
        mean_gaps.append(float(gaps.mean()))
        stderrs.append(float(gaps.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else 0.0)

        w2sq, w2se = _w2sq_debiased(first_particle, flow.snapshots[-1])
        w2_sqs.append(w2sq)
        w2_ses.append(w2se)

    degenerate = any(g <= _DEGENERATE_GAP for g in mean_gaps)
    if degenerate or len(n_grid) < 2:
        slope = intercept = r2 = se = float("nan")
    else:
        slope, intercept, r2, se = linear_fit(np.log(n_grid), np.log(mean_gaps))
    return RateFit(n_grid=list(n_grid), mean_sq_gaps=mean_gaps, stderrs=stderrs,
                   w2_sq_estimates=w2_sqs, w2_sq_stderrs=w2_ses,
                   slope=slope, intercept=intercept, r_squared=r2, slope_se=se,
                   degenerate=degenerate)


def observable_deviation_experiment(model: ModelSpec, observable: Observable, n_particles: int,
                                    r_grid: Sequence[float], replicas: int, config: SimConfig,
                                    m_reference: Optional[int] = None,
                                    picard_iters: int = 2) -> DeviationTable:
    """Tail probabilities of the one-observable deviation of the particle average.

    The deviation event uses threshold sqrt(mse) + r, where mse is this very
    run's mean-square error (the law-of-large-numbers constant C/N), so the
    tail table and the mean-square fit are internally consistent.  The
    reference flow has m_reference points, 16 n_particles by default.
    """
    flow = make_reference_flow(model, m_reference or 16 * n_particles, config, picard_iters)
    L = observable.lipschitz_constant
    phi = observable.eval if L <= 1.0 else (lambda x: np.asarray(observable.eval(x)) / L)
    ref_value = float(np.mean(phi(flow.snapshots[-1])))

    def one(rep):
        traj = simulate_particle_system(model, _replica_config(config, n_particles, rep,
                                                               stride=config.n_steps))
        return float(np.mean(phi(traj.terminal))) - ref_value

    errors = np.array([one(rep) for rep in range(replicas)])
    mse = float(np.mean(errors ** 2))
    threshold = float(np.sqrt(mse))
    return _deviation_table(np.abs(errors), threshold, r_grid, n_particles,
                            mean_square_error=mse, lln_constant=n_particles * mse,
                            threshold=threshold,
                            metadata={"observable": observable.name,
                                      "reference_value": ref_value,
                                      "rescaled": L > 1.0})


def empirical_measure_deviation(model: ModelSpec, n_particles: int, r_grid: Sequence[float],
                                replicas: int, config: SimConfig, sup_over_time: bool = False,
                                m_reference: Optional[int] = None,
                                picard_iters: int = 2) -> DeviationTable:
    """Tail probabilities of W1 between the empirical measure and the reference flow.

    W1 is estimated by exact transport against an equal-size, evenly strided
    subsample of the reference snapshot.  With sup_over_time, the statistic
    is the maximum over the recorded snapshot grid (the discretized process
    is all we have; noted in metadata).  The reference flow has m_reference
    points, 16 n_particles by default.
    """
    flow = make_reference_flow(model, m_reference or 16 * n_particles, config, picard_iters)
    stride = config.snapshot_stride if sup_over_time else config.n_steps
    # equal-size reference subsample per recorded step
    steps_used = set(range(0, config.n_steps + 1, stride)) | {config.n_steps}
    ref_subs = {s: _even_subsample(flow.snapshots[s], n_particles) for s in steps_used}

    def one(rep):
        traj = simulate_particle_system(model, _replica_config(config, n_particles, rep,
                                                               stride=stride))
        steps = np.rint(traj.times / config.dt).astype(int)
        if sup_over_time:
            return max(sample_w1(traj.states[k], ref_subs[int(s)]) for k, s in enumerate(steps))
        return sample_w1(traj.terminal, ref_subs[config.n_steps])

    stats = np.array([one(rep) for rep in range(replicas)])
    return _deviation_table(stats, 0.0, r_grid, n_particles,
                            metadata={"statistic": "sup_t W1" if sup_over_time else "terminal W1",
                                      "time_grid": "snapshot steps only"})


def equilibrium_convergence(model: ModelSpec, n_particles: int, t_final: float,
                            config: SimConfig,
                            target_sampler: Optional[Callable[[int, int], np.ndarray]] = None,
                            replicas: int = 8, gap_times: Optional[Sequence[float]] = None,
                            m_reference: Optional[int] = None,
                            picard_iters: int = 2) -> EquilibriumCurve:
    """Sample-W2 decay toward the steady state, plus coupling-gap time-uniformity.

    target_sampler(n, salt) draws n points from the steady state; when absent
    a burned-in run at 4N particles over [0, t_final] stands in for it.  The
    decay rate is fitted log-linearly on the window above twice the Monte
    Carlo noise floor.
    """
    cfg = replace(config, t_final=t_final, n_particles=n_particles)

    if target_sampler is None:
        burn_cfg = _replica_config(cfg, 4 * n_particles, 982_451_653)
        burn = simulate_particle_system(model, burn_cfg,
                                        noise=NoiseGrid(cfg.seed, REFERENCE_NAMESPACE * 2,
                                                        cfg.dt))
        cloud = burn.terminal

        def target_sampler(n, salt):
            idx = np.random.default_rng(salt).permutation(len(cloud))[:n]
            return cloud[idx]

    target = target_sampler(n_particles, 0)
    floor_draws = [sample_w2(target_sampler(n_particles, 2 * k + 1),
                             target_sampler(n_particles, 2 * k + 2)) for k in range(3)]
    floor = float(np.mean(floor_draws))

    def one(rep):
        traj = simulate_particle_system(model, _replica_config(cfg, n_particles, rep))
        return traj.times, np.array([sample_w2(s, target) for s in traj.states])

    results = [one(rep) for rep in range(replicas)]
    times = results[0][0]
    curve = np.mean([w for _, w in results], axis=0)

    mask = curve > 2.0 * floor
    mask[0] = False  # t = 0 reflects the initial law, not the decay regime
    fitted = None
    window = list(times[mask])
    if int(mask.sum()) >= 2:
        slope, _, _, _ = linear_fit(times[mask], np.log(curve[mask]))
        fitted = -slope

    gap_times = list(gap_times) if gap_times is not None else []
    gap_means, gap_ses, gslope, gslope_se = [], [], None, None
    if gap_times:
        M = m_reference or 16 * n_particles
        flow = make_reference_flow(model, M, cfg, picard_iters)
        steps = [int(round(t / cfg.dt)) for t in gap_times]

        def one_gap(rep):
            res = simulate_coupled(model, _replica_config(cfg, n_particles, rep), flow)
            return res.mean_square_gap[steps]

        gaps = np.array([one_gap(rep) for rep in range(replicas)])  # (replicas, len(gap_times))
        gap_means = list(gaps.mean(axis=0))
        gap_ses = list(gaps.std(axis=0, ddof=1) / np.sqrt(replicas))
        tiled = np.repeat(gap_times, replicas)
        gslope, _, _, gslope_se = linear_fit(tiled, gaps.T.ravel())

    return EquilibriumCurve(times=list(times), w2_to_target=list(curve), noise_floor=floor,
                            fitted_decay_rate=fitted, fit_window=window,
                            gap_times=gap_times, gap_means=gap_means, gap_stderrs=gap_ses,
                            gap_slope=gslope, gap_slope_se=gslope_se)

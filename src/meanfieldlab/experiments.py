"""Replicated experiments: chaos rate, deviation tails, equilibration.

Each experiment averages independent replicas (disjoint noise namespaces)
against one shared reference flow, an M-particle run recorded at every step
(engine.build_reference_flow), and reports fitted exponents with
uncertainty.
Replicas run batched, in chunks along the engine's replica axis; replica r
always runs on replica id config.replica_id + r and results are reduced in
replica order, so every output is independent of the chunking.  Coupled runs
record their gap only at the steps an experiment reads, and a chunk's width
counts those gaps, not one per step.
Constants in the underlying bounds are existential, so everything asserted
downstream is a rate, a sign or an inequality, never a constant's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import (SimConfig, TrajectoryEnsemble, _record_steps, build_reference_flow,
                     equilibrium_time_errors, simulate_coupled, simulate_particle_system)
from .errors import ValidationError
from .models import ModelSpec, Observable
from .rng import BURN_IN_NAMESPACE, NoiseGrid
from .wasserstein import _even_subsample, sample_w1, sample_w2, wasserstein_1d_rows

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
]

_DEGENERATE_GAP = 1e-24

# Values (particle states and recorded gaps or snapshots, per coordinate)
# that one batched engine call holds over all its replicas: an experiment runs
# its replicas in chunks of _BATCH_VALUES // (values per replica), so memory
# stays flat in the replica count.  A step's temporaries (noise, drift,
# update) take about 100 bytes per value, a few megabytes at 2^15.  On the
# chaos_quadratic benchmark (200 replicas: 3 chunks, against 10 at 2^13) that
# raised the peak RSS from 39.6 to 40.7 MB (medians of 10 runs on a 2-CPU
# host) and, with gaps recorded only where read, cut the wall time by 38%:
# each step's fixed Python cost is shared by more replicas.  2^16 was no
# faster and raised the peak RSS by 2.4 MB over 2^13.
_BATCH_VALUES = 1 << 15


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
    """Least squares y = slope*x + intercept; returns slope, intercept, r^2, slope stderr.

    The stderr is nan for two points, which leave no degree of freedom.
    """
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
    dof = len(x) - 2
    slope_se = np.sqrt(ss_res / dof / sxx) if dof else float("nan")
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


def _replica_grids(config: SimConfig, replicas: int, values_per_replica: int):
    """Batched noise grids over consecutive chunks of range(replicas), in order.

    Replica r runs on replica id config.replica_id + r whatever the chunk
    width, which is _BATCH_VALUES // values_per_replica (at least 1).
    """
    width = max(1, _BATCH_VALUES // values_per_replica)
    ids = config.replica_id + np.arange(replicas)
    for start in range(0, replicas, width):
        yield NoiseGrid(config.seed, ids[start:start + width], config.dt)


def _coupled_grids(config: SimConfig, replicas: int, n_grid: Sequence[int]):
    """Chunks for simulate_coupled over n_grid: per replica, an (N, d) system for each
    N, the nonlinear copies at max N, and a gap for each N at each recorded step."""
    records = len(_record_steps(config.n_steps, config.snapshot_stride))
    return _replica_grids(config, replicas, sum(n_grid) + max(n_grid) + len(n_grid) * records)


def _particle_grids(config: SimConfig, replicas: int):
    """Chunks for simulate_particle_system: every recorded (N, d) snapshot per replica."""
    records = len(_record_steps(config.n_steps, config.snapshot_stride))
    return _replica_grids(config, replicas, config.n_particles * records)


def _sample_w(p: int, clouds_a, clouds_b) -> np.ndarray:
    """Sample W_p between matching clouds of two stacks of equal-size (n, d) clouds.

    The stacks broadcast against each other over their leading axes, which
    the result keeps.  In one dimension every pair goes into one batched
    quantile solve; in more, each pair is one exact assignment.
    """
    A, B = np.broadcast_arrays(clouds_a, clouds_b)
    if A.shape[-1] == 1:
        return wasserstein_1d_rows(p, A[..., 0], B[..., 0])
    sample = sample_w1 if p == 1 else sample_w2
    pairs = zip(A.reshape((-1,) + A.shape[-2:]), B.reshape((-1,) + B.shape[-2:]))
    return np.array([sample(a, b) for a, b in pairs]).reshape(A.shape[:-2])


def _w2sq_debiased(clouds: np.ndarray, reference: np.ndarray) -> list:
    """Sample-W2^2 between each of a stack of (n, d) clouds and a reference, floor-corrected.

    The raw estimator between finite same-size clouds carries an O(n^{-1/d})
    positive bias even at distance zero; subtracting the same-law floor,
    measured on disjoint equal-size reference subsamples, makes the estimate
    comparable to the coupling gap.  The estimate is signed and not clipped:
    it is negative when the floor exceeds the raw estimate, as it can when
    the true distance is below the floor's noise.  Returns one (estimate,
    stderr) per cloud.  The floor depends on the reference and n alone, so
    it is solved once for the whole stack, in the same transport call as
    every cloud's raw solves; each cloud's pair equals that of a stack of
    that one cloud, bit for bit.

    The reference splits into up to 16 disjoint chunks of the cloud's size:
    the first half (at least two) give raw estimates, the rest pair up into
    floors.  The stderr needs the spread of both, so it is nan, not 0, with
    fewer than two floor pairs (fewer than seven chunks: a cloud larger than
    a seventh of the reference).  With three chunks there is no floor pair
    and the estimate is the mean raw sample-W2^2, uncorrected; with fewer
    than three it is one raw sample-W2^2 against an even subsample of the
    reference.
    """
    n_clouds, n = clouds.shape[:2]
    n_chunks = min(len(reference) // n, 16)
    if n_chunks < 3:
        sub = _even_subsample(reference, min(n, len(reference)))
        return [(float(sample_w2(cloud, sub) ** 2), float("nan")) for cloud in clouds]
    chunks = np.stack([reference[k::n_chunks][:n] for k in range(n_chunks)])
    n_raw = max(2, n_chunks // 2)
    n_floor = (n_chunks - n_raw) // 2
    # raw solves (cloud i, chunk k < n_raw) cloud by cloud, then the floor
    # pairs (n_raw + 2j, n_raw + 2j + 1)
    lefts = np.concatenate([np.repeat(clouds, n_raw, axis=0),
                            chunks[n_raw:n_raw + 2 * n_floor:2]])
    rights = np.concatenate([np.tile(chunks[:n_raw], (n_clouds, 1, 1)),
                             chunks[n_raw + 1:n_raw + 2 * n_floor:2]])
    squares = np.array([float(w) ** 2 for w in _sample_w(2, lefts, rights)])
    floors = squares[n_clouds * n_raw:]
    floor_se = (float(floors.std(ddof=1) / np.sqrt(len(floors))) if len(floors) > 1
                else float("nan"))
    out = []
    for raws in squares[:n_clouds * n_raw].reshape(n_clouds, n_raw):
        raw_se = float(raws.std(ddof=1) / np.sqrt(len(raws)))
        est = float(raws.mean() - floors.mean()) if len(floors) else float(raws.mean())
        out.append((est, float(np.hypot(raw_se, floor_se))))
    return out


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
                          flow: Optional[TrajectoryEnsemble] = None) -> RateFit:
    """Terminal mean-square coupling gap against N, with its log-log slope.

    One reference flow (M >= 16 max N) is shared across the whole grid so the
    reference bias cancels out of the N-comparison.  Each chunk of replicas
    runs the whole grid in one coupled step loop, with the nonlinear copies
    simulated once at max N (see simulate_coupled).  Alongside the gap, the
    sample-W2^2 between replicated one-particle draws and reference samples
    is reported: the distance-between-laws side of the chain.  A gap's
    stderr is nan with one replica, which leaves no degree of freedom.
    """
    n_grid = sorted(int(n) for n in n_grid)
    M = flow.states.shape[1] if flow is not None else m_reference or 16 * max(n_grid)
    if M < 16 * max(n_grid):
        raise ValidationError(f"reference ensemble must satisfy M >= 16 max(n_grid) "
                              f"(M={M}, max(n_grid)={max(n_grid)})")
    if flow is None:
        flow = build_reference_flow(model, M, config)

    # only the terminal gap is read
    cfg = replace(config, snapshot_stride=config.n_steps)
    gaps, first_particle = [], []
    for noise in _coupled_grids(cfg, replicas, n_grid):
        runs = simulate_coupled(model, cfg, flow, noise=noise, n_grid=n_grid)
        gaps.append([res.mean_square_gap[:, -1] for res in runs])
        first_particle.append([res.terminal_particles[:, 0] for res in runs])
    # one row per N, the replicas in order along it
    gaps = np.concatenate(gaps, axis=1)
    first_particle = np.concatenate(first_particle, axis=1)

    mean_gaps = [float(g.mean()) for g in gaps]
    stderrs = [float(g.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else float("nan")
               for g in gaps]
    w2_sqs, w2_ses = (list(v) for v in zip(*_w2sq_debiased(first_particle, flow.terminal)))

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
                                    m_reference: Optional[int] = None) -> DeviationTable:
    """Tail probabilities of the one-observable deviation of the particle average.

    The deviation event uses threshold sqrt(mse) + r, where mse is this very
    run's mean-square error (the law-of-large-numbers constant C/N), so the
    tail table and the mean-square fit are internally consistent.  The
    reference flow has m_reference points, 16 n_particles by default.
    """
    flow = build_reference_flow(model, m_reference or 16 * n_particles, config)
    L = observable.lipschitz_constant
    phi = observable.eval if L <= 1.0 else (lambda x: np.asarray(observable.eval(x)) / L)
    ref_value = float(np.mean(phi(flow.terminal)))

    cfg = replace(config, n_particles=n_particles, snapshot_stride=config.n_steps)
    errors = np.concatenate([
        np.mean(phi(simulate_particle_system(model, cfg, noise=noise).terminal), axis=-1)
        - ref_value for noise in _particle_grids(cfg, replicas)])
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
                                m_reference: Optional[int] = None) -> DeviationTable:
    """Tail probabilities of W1 between the empirical measure and the reference flow.

    W1 is estimated by exact transport against an equal-size, evenly strided
    subsample of the reference snapshot.  With sup_over_time, the statistic
    is the maximum over the recorded snapshot grid (the discretized process
    is all we have; noted in metadata).  The reference flow has m_reference
    points, 16 n_particles by default.
    """
    flow = build_reference_flow(model, m_reference or 16 * n_particles, config)
    stride = config.snapshot_stride if sup_over_time else config.n_steps
    # an equal-size reference subsample per snapshot the statistic reads
    steps = _record_steps(config.n_steps, stride) if sup_over_time else [config.n_steps]
    refs = np.stack([_even_subsample(flow.states[s], n_particles) for s in steps])

    cfg = replace(config, n_particles=n_particles, snapshot_stride=stride)
    stats = np.concatenate([  # (replicas, snapshots) W1, maximized over the snapshots
        _sample_w(1, simulate_particle_system(model, cfg, noise=noise).states[:, -len(steps):],
                  refs).max(axis=1)
        for noise in _particle_grids(cfg, replicas)])
    return _deviation_table(stats, 0.0, r_grid, n_particles,
                            metadata={"statistic": "sup_t W1" if sup_over_time else "terminal W1",
                                      "time_grid": "snapshot steps only"})


def equilibrium_convergence(model: ModelSpec, n_particles: int, t_final: float,
                            config: SimConfig,
                            target_sampler: Optional[Callable[[int, int], np.ndarray]] = None,
                            replicas: int = 8, gap_times: Optional[Sequence[float]] = None,
                            m_reference: Optional[int] = None) -> EquilibriumCurve:
    """Sample-W2 decay toward the steady state, plus coupling-gap time-uniformity.

    target_sampler(n, salt) draws n points from the steady state; when absent
    a burned-in run at 4N particles over [0, t_final] stands in for it.  The
    decay rate is fitted log-linearly on the window above twice the Monte
    Carlo noise floor.
    """
    gap_times = list(gap_times) if gap_times is not None else []
    errs = equilibrium_time_errors(config.dt, t_final, gap_times)
    if errs:
        raise ValidationError("; ".join(errs))
    cfg = replace(config, t_final=t_final, n_particles=n_particles)

    if target_sampler is None:
        burn_cfg = replace(cfg, n_particles=4 * n_particles)
        burn = simulate_particle_system(model, burn_cfg,
                                        noise=NoiseGrid(cfg.seed, BURN_IN_NAMESPACE, cfg.dt))
        cloud = burn.terminal

        def target_sampler(n, salt):
            idx = np.random.default_rng(salt).permutation(len(cloud))[:n]
            return cloud[idx]

    target = target_sampler(n_particles, 0)
    # three same-law pairs, drawn at salts (1, 2), (3, 4) and (5, 6)
    draws = np.stack([target_sampler(n_particles, salt) for salt in range(1, 7)])
    floor = float(np.mean(_sample_w(2, draws[0::2], draws[1::2])))

    curves = []
    for noise in _particle_grids(cfg, replicas):
        traj = simulate_particle_system(model, cfg, noise=noise)
        curves.append(_sample_w(2, traj.states, target))  # (replicas, snapshots)
    times = traj.times
    curve = np.mean(np.concatenate(curves), axis=0)

    mask = curve > 2.0 * floor
    mask[0] = False  # t = 0 reflects the initial law, not the decay regime
    fitted = None
    window = list(times[mask])
    if int(mask.sum()) >= 2:
        slope, _, _, _ = linear_fit(times[mask], np.log(curve[mask]))
        fitted = -slope

    gap_means, gap_ses, gslope, gslope_se = [], [], None, None
    if gap_times:
        M = m_reference or 16 * n_particles
        flow = build_reference_flow(model, M, cfg)
        steps = [int(round(t / cfg.dt)) for t in gap_times]
        # a stride that divides every gap step and the last step records them all
        stride = math.gcd(cfg.n_steps, *steps)
        coupled_cfg = replace(cfg, snapshot_stride=stride)
        gaps = np.concatenate([  # (replicas, len(gap_times))
            simulate_coupled(model, coupled_cfg, flow, noise=noise)
            .mean_square_gap[:, [s // stride for s in steps]]
            for noise in _coupled_grids(coupled_cfg, replicas, [n_particles])])
        gap_means = list(gaps.mean(axis=0))
        gap_ses = list(gaps.std(axis=0, ddof=1) / np.sqrt(replicas))
        tiled = np.repeat(gap_times, replicas)
        gslope, _, _, gslope_se = linear_fit(tiled, gaps.T.ravel())

    return EquilibriumCurve(times=list(times), w2_to_target=list(curve), noise_floor=floor,
                            fitted_decay_rate=fitted, fit_window=window,
                            gap_times=gap_times, gap_means=gap_means, gap_stderrs=gap_ses,
                            gap_slope=gslope, gap_slope_se=gslope_se)

"""Euler-Maruyama time stepping, the reference flow, synchronous coupling.

All randomness flows through a NoiseGrid, so a run is a pure function of
(model, config, seed) and the particle system and its coupled nonlinear
processes literally read the same Brownian increments.  A grid over a vector
of R replica ids runs R independent replicas at once on (R, N, d) states;
replica r's results equal, bit for bit, a run on the grid of its own id.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DivergenceError, ValidationError
from .models import DiffusionSpec, ModelSpec, mean_field_batch
from .rng import INIT_STEP, REFERENCE_NAMESPACE, NoiseGrid

__all__ = [
    "SimConfig",
    "TrajectoryEnsemble",
    "CoupledEnsemble",
    "euler_step",
    "simulate_particle_system",
    "build_reference_flow",
    "simulate_coupled",
]


def time_grid_errors(dt: float, t_final: float, allow_large_dt: bool) -> list[str]:
    """Every time-grid rule that (dt, t_final) breaks, one message each."""
    errs = []
    if dt <= 0:
        errs.append("dt must be positive")
    if t_final <= 0:
        errs.append("t_final must be positive")
    if errs:
        return errs
    steps = t_final / dt
    if round(steps) < 1:
        errs.append(f"t_final must be at least dt (t_final={t_final}, dt={dt})")
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        errs.append(f"t_final must be an integer multiple of dt (t_final={t_final}, dt={dt})")
    if dt > 0.1 and not allow_large_dt:
        errs.append("dt > 0.1 rejected; set allow_large_dt = true to override")
    if round(steps) >= INIT_STEP:
        errs.append(f"step count {round(steps)} collides with the reserved init-step key "
                    f"{INIT_STEP}")
    return errs


def equilibrium_time_errors(dt: float, t_equilibrium: float, gap_times) -> list[str]:
    """Every rule that an equilibrium run breaks in its times, one message each.

    The run covers [0, t_equilibrium] at step dt, which must pass
    time_grid_errors (the rules on dt alone are the run's own and are not
    repeated here), and reads its coupling gaps at gap_times, each of which
    must be a step of that grid: in [0, t_equilibrium] and a multiple of dt.
    """
    if dt <= 0:
        return []
    errs = [e.replace("t_final", "t_equilibrium")
            for e in time_grid_errors(dt, t_equilibrium, allow_large_dt=True)]
    for t in gap_times:
        steps = t / dt
        if not 0 <= t <= t_equilibrium:
            errs.append(f"gap_times entry {t} is outside [0, t_equilibrium={t_equilibrium}]")
        elif abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            errs.append(f"gap_times entry {t} is not an integer multiple of dt={dt}")
    return errs


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_final: float
    n_particles: int
    seed: int
    replica_id: int = 0
    taming: bool = False
    snapshot_stride: int = 1
    allow_large_dt: bool = False

    def __post_init__(self):
        errs = time_grid_errors(self.dt, self.t_final, self.allow_large_dt)
        if self.n_particles < 1:
            errs.append("n_particles must be >= 1")
        if self.snapshot_stride < 1:
            errs.append("snapshot_stride must be >= 1")
        if errs:
            raise ValidationError("; ".join(errs))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def noise(self) -> NoiseGrid:
        return NoiseGrid(self.seed, self.replica_id, self.dt)


@dataclass
class TrajectoryEnsemble:
    """Recorded states of one particle-system run, or of R batched replicas."""

    times: np.ndarray           # (n_rec,)
    states: np.ndarray          # (n_rec, N, d), or (R, n_rec, N, d) when batched

    @property
    def terminal(self) -> np.ndarray:
        return self.states[..., -1, :, :]


@dataclass
class CoupledEnsemble:
    """Synchronously coupled particle system and nonlinear processes.

    The gap is recorded on the snapshot grid of the run's snapshot_stride
    (step 0, every stride-th step and the last), the steps a
    TrajectoryEnsemble records; stride 1 gives every step.  Batched runs
    carry a leading replica axis R on every field but times.
    """

    times: np.ndarray               # (n_rec,), the recorded times
    mean_square_gap: np.ndarray     # (n_rec,), (1/N) sum_i |X_i - Xbar_i|^2 at those times
    terminal_particles: np.ndarray  # (N, d)
    terminal_nonlinear: np.ndarray  # (N, d)


def _tame(drift: np.ndarray, dt: float, exponent: float) -> np.ndarray:
    """Tamed drift b / (1 + dt^q |b|), applied rowwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(drift, axis=-1, keepdims=True)
        return drift / (1.0 + dt ** exponent * norm)


def euler_step(X, drift, diffusion: DiffusionSpec, dW, dt: float,
               taming: bool = False, taming_exponent: float = 1.0,
               step: int = -1, labels=None) -> np.ndarray:
    """One explicit step: X + sigma dW - b dt (with b tamed when requested).

    States have shape (N, d) or, batched, (R, N, d).  A non-finite result
    raises DivergenceError carrying `step` and the label of the first
    diverged particle row: labels[row] when labels are given, else row.  For
    a batched state its `replica` is the position r of that row's replica.
    """
    X = np.asarray(X, dtype=np.float64)
    drift = np.asarray(drift, dtype=np.float64)
    dW = np.asarray(dW, dtype=np.float64)
    if taming:
        drift = _tame(drift, dt, taming_exponent)
    out = X + diffusion.apply(dW) - drift * dt
    if not np.isfinite(out).all():
        bad = ~np.all(np.isfinite(out), axis=-1)
        first = np.argwhere(np.atleast_1d(bad))[0]
        row = int(first[-1])
        raise DivergenceError(step=step, particle=int(labels[row]) if labels is not None else row,
                              replica=int(first[0]) if len(first) > 1 else None)
    return out


def _integrate(model: ModelSpec, config: SimConfig, noise: NoiseGrid, indices: np.ndarray,
               states: list, clouds: list, on_step: Callable[[int, list], None]) -> list:
    """The step loop shared by every simulation: all states ride the same noise.

    States have shape noise.batch_shape + (n, d) with n <= len(indices); a
    state of n rows carries the particles indices[:n].  Each step k draws
    noise.increments(indices, k, d) once for every replica and state, and a
    state of n rows reads the first n rows of it, which is exactly the draw
    for indices[:n] since every increment is keyed by its own particle.  The
    step evaluates each state's mean-field drift (against its own empirical
    measure, replica by replica, when its cloud is None, else against the
    frozen snapshot cloud[k] shared by all replicas), then advances the
    states with euler_step in list order.  on_step(k + 1, states) sees the new
    states; the terminal states are returned.  A DivergenceError is that of
    the first state in list order to diverge at the earliest step, and names
    the replica id and particle label of its diverged row.  Each initial
    state is made C-contiguous once, so every drift sees contiguous states
    and clouds, as the euler_step results of later steps already are: a
    closed-form mean may round a strided state differently.
    """
    d = model.dim
    states = [np.ascontiguousarray(X) for X in states]
    tame = config.taming and model.drift.taming_exponent > 0
    rows = [X.shape[-2] for X in states]
    cloud_sizes = [n if c is None else c.shape[1] for n, c in zip(rows, clouds)]
    weights = [np.full(m, 1.0 / m) for m in cloud_sizes]
    for k in range(config.n_steps):
        drifts = [mean_field_batch(model.drift, X, X if c is None else c[k], w)
                  for X, c, w in zip(states, clouds, weights)]
        dW = noise.increments(indices, k, d)
        try:
            states = [euler_step(X, b, model.diffusion, dW[..., :n, :], config.dt, tame,
                                 model.drift.taming_exponent, step=k, labels=indices[:n])
                      for X, b, n in zip(states, drifts, rows)]
        except DivergenceError as err:
            ids = noise.replica_id
            replica = ids if err.replica is None else ids[err.replica]
            raise DivergenceError(err.step, err.particle, replica=int(replica)) from None
        on_step(k + 1, states)
    return states


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    ks = np.arange(0, n_steps + 1, stride)
    if ks[-1] != n_steps:
        ks = np.append(ks, n_steps)
    return ks


def simulate_particle_system(model: ModelSpec, config: SimConfig,
                             noise: Optional[NoiseGrid] = None,
                             particle_indices=None) -> TrajectoryEnsemble:
    """Run the N-particle system with the exact empirical mean-field drift.

    Every step is a Jacobi update: all drifts are evaluated against the
    frozen step-start ensemble (self-interaction j=i included), then all
    particles advance simultaneously.  The ensemble is processed in
    key-sorted order internally so that relabeling particle indices permutes
    the output bit-exactly.  A batched noise grid (a vector of replica ids)
    runs one system per replica and gives states a leading replica axis.
    """
    noise = noise or config.noise()
    N, d = config.n_particles, model.dim
    if particle_indices is None:
        indices = np.arange(N)
        unsort = slice(None)
    else:
        particle_indices = np.asarray(particle_indices)
        if len(particle_indices) != N:
            raise ValidationError("particle_indices length must equal n_particles")
        order = np.argsort(particle_indices, kind="stable")
        indices = particle_indices[order]
        unsort = np.argsort(order, kind="stable")

    X = model.initial_law.sample(noise, indices)
    recs = _record_steps(config.n_steps, config.snapshot_stride)
    states = np.empty(noise.batch_shape + (len(recs), N, d))
    rec_pos = {int(k): r for r, k in enumerate(recs)}
    states[..., 0, :, :] = X[..., unsort, :]

    def record(k, Xs):
        r = rec_pos.get(k)
        if r is not None:
            states[..., r, :, :] = Xs[0][..., unsort, :]

    _integrate(model, config, noise, indices, [X], [None], record)
    return TrajectoryEnsemble(times=recs * config.dt, states=states)


def build_reference_flow(model: ModelSpec, M: int, config: SimConfig) -> TrajectoryEnsemble:
    """The nonlinear flow f_t, stood in for by an M-particle run recorded at every step.

    The run is self-consistent and draws from its own replica namespace,
    REFERENCE_NAMESPACE + config.replica_id, disjoint from every replica.  It
    is its own Picard fixed point: a pass driven by its frozen snapshots on
    the same keys rebuilds it bit for bit, step by step, so one pass is all
    there is.  Coupled runs read its state at step k from states[k].
    """
    noise = NoiseGrid(config.seed, REFERENCE_NAMESPACE + config.replica_id, config.dt)
    return simulate_particle_system(model, replace(config, n_particles=M, snapshot_stride=1),
                                    noise=noise)


def simulate_coupled(model: ModelSpec, config: SimConfig, flow: TrajectoryEnsemble,
                     noise: Optional[NoiseGrid] = None,
                     n_grid: Optional[Sequence[int]] = None):
    """Advance X^{i,N} and the nonlinear Xbar^i on identical noise increments.

    The particle system sees its own empirical measure; the nonlinear
    processes see the frozen reference flow, a run recorded at every step
    (see build_reference_flow).  Both start from the same initial samples,
    so the per-time mean-square gap is the Theorem's left-hand side.  It is
    recorded only at the snapshot steps of config.snapshot_stride (every
    step at stride 1), each value the same bits as in the stride-1 trace;
    the states are stepped alike at any stride.  A batched noise grid
    couples one system per replica against the one shared flow.  Returns
    one CoupledEnsemble.

    With n_grid, one step loop couples a particle system of every size N in
    n_grid (config.n_particles is not read) and returns a list of one
    CoupledEnsemble per N, in grid order, each equal bit for bit to the run
    at that one size.  Copy Xbar^i never sees the other copies, so its path
    does not depend on N: the copies run once, at max N, and size N reads
    the first N of them, as it reads the first N rows of the max-N noise and
    initial draws.  A one-row size keeps a copy of its own, since numpy's
    matrix product may round a single row differently from the same row of a
    larger product.  A divergence is reported for the earliest step; within
    a step the systems come in grid order and the nonlinear copies last.
    """
    if flow.states.ndim != 3:
        raise ValidationError("reference flow must be one run, without a replica axis")
    if flow.times[1] != config.dt:
        raise ValidationError(f"flow step {flow.times[1]} does not match run dt {config.dt}")
    n_steps = config.n_steps
    if n_steps + 1 > len(flow.times):
        raise ValidationError("reference flow does not cover [0, t_final] at this dt")

    noise = noise or config.noise()
    sizes = [config.n_particles] if n_grid is None else [int(n) for n in n_grid]
    top = max(sizes)
    bars = sorted({1, top} & set(sizes))  # sizes of the simulated copies
    home = [bars.index(1 if n == 1 else top) for n in sizes]
    indices = np.arange(top)
    bar0 = [model.initial_law.sample(noise, indices[:b]) for b in bars]
    recs = _record_steps(n_steps, config.snapshot_stride)
    rec_pos = {int(k): r for r, k in enumerate(recs)}
    # both sides start from the same samples, so the step-0 gap is 0
    gaps = np.zeros((len(sizes),) + noise.batch_shape + (len(recs),))

    def record(k, Xs):
        r = rec_pos.get(k)
        if r is None:
            return
        for gap, X, n, h in zip(gaps, Xs, sizes, home):
            diff = X - Xs[len(sizes) + h][..., :n, :]
            gap[..., r] = np.mean(np.einsum("...id,...id->...i", diff, diff), axis=-1)

    final = _integrate(model, config, noise, indices,
                       [bar0[h][..., :n, :] for n, h in zip(sizes, home)] + bar0,
                       [None] * len(sizes) + [flow.states] * len(bars), record)
    runs = [CoupledEnsemble(times=recs * config.dt, mean_square_gap=gap, terminal_particles=X,
                            terminal_nonlinear=final[len(sizes) + h][..., :n, :])
            for gap, X, n, h in zip(gaps, final, sizes, home)]
    return runs[0] if n_grid is None else runs

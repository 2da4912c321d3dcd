"""Euler-Maruyama time stepping, the reference flow, synchronous coupling.

All randomness flows through a NoiseGrid, so a run is a pure function of
(model, config, seed) and the particle system and its coupled nonlinear
processes literally read the same Brownian increments.  A grid over a vector
of R replica ids runs R independent replicas at once on (R, N, d) states;
replica r's results equal, bit for bit, a run on the grid of its own id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DivergenceError, ValidationError, count_errors
from .models import DiffusionSpec, ModelSpec, mean_field_batch
from .rng import INIT_STEP, REFERENCE_NAMESPACE, NoiseGrid, replica_id_errors, seed_errors

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
    for name, t in (("dt", dt), ("t_final", t_final)):
        if not math.isfinite(t):
            errs.append(f"{name} must be finite")
        elif t <= 0:
            errs.append(f"{name} must be positive")
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


def n_grid_errors(n_grid) -> list[str]:
    """Every rule that a chaos-rate grid of sizes N breaks, one message each.

    The grid's gaps are fitted against log N, so it needs a size, and its
    sizes must be >= 1 and distinct: a repeated N would count twice in the
    fit, and a grid of one N repeated leaves no abscissa to fit.
    """
    if not len(n_grid):
        return ["n_grid is required for the chaos_rate experiment"]
    if min(n_grid) < 1 or len(set(n_grid)) < len(n_grid):
        return [f"n_grid entries must be >= 1 and distinct (n_grid={list(n_grid)})"]
    return []


def reference_size_errors(m: int, n_grid) -> list[str]:
    """Every rule that a reference flow of m particles breaks, one message each.

    m is an integer, not a bool, and 0 stands for the default size.  A
    chaos-rate reference is shared by its whole grid of sizes N, so with a
    grid n_grid it needs M >= 16 max N; the other experiments pass none.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        return [f"m must be an integer, not {m!r}"]
    if m < 0:
        return [f"m must be >= 0, 0 for the default size (m={m})"]
    if m and n_grid and m < 16 * max(n_grid):
        return [f"reference ensemble must satisfy M >= 16 max(n_grid) "
                f"(M={m}, max(n_grid)={max(n_grid)})"]
    return []


def equilibrium_time_errors(dt: float, t_equilibrium: float, gap_times) -> list[str]:
    """Every rule that an equilibrium run breaks in its times, one message each.

    The run covers [0, t_equilibrium] at step dt, which must pass
    time_grid_errors (the rules on dt alone are the run's own and are not
    repeated here), and reads its coupling gaps at gap_times, each of which
    must be a step of that grid: in [0, t_equilibrium] and a multiple of dt,
    and distinct, since the gaps are fitted against time as n_grid's are against N.
    """
    if not 0 < dt < math.inf:
        return []
    errs = [e.replace("t_final", "t_equilibrium")
            for e in time_grid_errors(dt, t_equilibrium, allow_large_dt=True)]
    for t in gap_times:
        steps = t / dt
        if not 0 <= t <= t_equilibrium:
            errs.append(f"gap_times entry {t} is outside [0, t_equilibrium={t_equilibrium}]")
        elif abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            errs.append(f"gap_times entry {t} is not an integer multiple of dt={dt}")
    if len(set(gap_times)) < len(gap_times):
        errs.append(f"gap_times entries must be distinct (gap_times={list(gap_times)})")
    return errs


@dataclass(frozen=True)
class SimConfig:
    """A run's time grid, size, noise and snapshot grid, validated on construction."""

    dt: float
    t_final: float
    n_particles: int
    seed: int
    replica_id: int = 0
    taming: bool = False
    snapshot_stride: int = 1
    allow_large_dt: bool = False

    def __post_init__(self):
        errs = (time_grid_errors(self.dt, self.t_final, self.allow_large_dt)
                + count_errors("n_particles", self.n_particles)
                + count_errors("snapshot_stride", self.snapshot_stride)
                + seed_errors(self.seed) + replica_id_errors(self.replica_id))
        if errs:
            raise ValidationError("; ".join(errs))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def record_steps(self) -> np.ndarray:
        """The snapshot grid: step 0, every snapshot_stride-th step and the last."""
        ks = np.arange(0, self.n_steps + 1, self.snapshot_stride)
        return ks if ks[-1] == self.n_steps else np.append(ks, self.n_steps)

    def noise(self) -> NoiseGrid:
        return NoiseGrid(self.seed, self.replica_id)


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

    The gap is recorded at the run's record_steps, the steps a
    TrajectoryEnsemble records.  Batched runs carry a leading replica axis R
    on every field but times.
    """

    times: np.ndarray               # (n_rec,), the recorded times
    mean_square_gap: np.ndarray     # (n_rec,), (1/N) sum_i |X_i - Xbar_i|^2 at those times
    terminal_particles: np.ndarray  # (N, d)
    terminal_nonlinear: np.ndarray  # (N, d)


def _tame(drift: np.ndarray, dt: float) -> np.ndarray:
    """Tamed drift b / (1 + dt |b|), applied rowwise, as a new array.

    |b| is |b_1| in 1-D, the same bits as the root of b_1^2 wherever that
    square does not overflow.  In d > 1 it is the root of the summed
    squares, taken again on b / max_i |b_i| in a row whose sum overflows.
    So a huge finite drift tames to about 1/dt in norm, not to 0.
    """
    drift = np.asarray(drift, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if drift.shape[-1] == 1:
            r = np.abs(drift)
        else:
            r = np.add.reduce(drift * drift, axis=-1, keepdims=True)
            np.sqrt(r, out=r)
            huge = np.isinf(r[..., 0])
            if huge.any():
                b = drift[huge]
                top = np.max(np.abs(b), axis=-1, keepdims=True)
                b /= top
                r[huge] = top * np.sqrt(np.add.reduce(b * b, axis=-1, keepdims=True))
        r *= dt
        r += 1.0
        return drift / r


def euler_step(X, drift, diffusion: DiffusionSpec, dW, dt: float, taming: bool = False,
               step: int = -1) -> np.ndarray:
    """One explicit step: X + sigma dW - b dt (with b tamed when requested).

    States have shape (N, d) or, batched, (R, N, d), and dW has the shape of
    X.  The update is built in place on sigma dW, with the bits of the
    expression.  A non-finite result raises DivergenceError carrying `step`
    and, as its `particle`, the first diverged row: row i is particle i of
    the step's draw.  For a batched state its `replica` is the position r of
    that row's replica.
    """
    X = np.asarray(X, dtype=np.float64)
    drift = np.asarray(drift, dtype=np.float64)
    dW = np.asarray(dW, dtype=np.float64)
    if taming:
        drift = _tame(drift, dt)
        drift *= dt
    else:
        drift = drift * dt
    out = diffusion.apply(dW)
    out += X
    out -= drift
    if not np.isfinite(out).all():
        bad = ~np.all(np.isfinite(out), axis=-1)
        first = np.argwhere(np.atleast_1d(bad))[0]
        row = int(first[-1])
        raise DivergenceError(step=step, particle=row,
                              replica=int(first[0]) if len(first) > 1 else None)
    return out


def _integrate(model: ModelSpec, config: SimConfig, noise: NoiseGrid, states: list,
               clouds: list, on_record: Callable[[int, list], None]) -> list:
    """The step loop shared by every simulation: all states ride the same noise.

    States have shape noise.batch_shape + (n, d); row i of a state is
    particle i.  Each step k draws the particles of the largest state once
    for every replica and state and scales the draw in place by
    sqrt(config.dt), the one place a draw meets dt; a state of n rows reads
    the first n rows, the draw of particles 0..n-1 since every value is
    keyed by its own particle.  The step evaluates each
    state's mean-field drift (against the state itself, replica by replica,
    when its cloud is None, else against the frozen snapshot cloud[k] (M, d)
    shared by all replicas), then advances the states with euler_step in
    list order.  After the step that reaches config.record_steps[r], r >= 1,
    on_record(r, states) sees the new states (step 0 is the caller's); the
    terminal states are returned.  A DivergenceError is that of the first
    state in list order to diverge at the earliest step, and names the
    replica id and the particle of its diverged row.  Each initial state is made
    C-contiguous once, so every drift sees contiguous states and clouds, as
    the euler_step results of later steps already are: a closed-form mean
    may round a strided state differently.
    """
    d = model.dim
    states = [np.ascontiguousarray(X) for X in states]
    tame = config.taming and model.drift.superlinear
    rows = [X.shape[-2] for X in states]
    scale = np.sqrt(config.dt)
    rec_pos = {int(k): r for r, k in enumerate(config.record_steps)}
    for k in range(config.n_steps):
        drifts = [mean_field_batch(model.drift, X, X if c is None else c[k])
                  for X, c in zip(states, clouds)]
        dW = noise.normals(max(rows), k, d)
        dW *= scale
        try:
            states = [euler_step(X, b, model.diffusion, dW[..., :n, :], config.dt, tame, step=k)
                      for X, b, n in zip(states, drifts, rows)]
        except DivergenceError as err:
            ids = noise.replica_id
            replica = ids if err.replica is None else ids[err.replica]
            raise DivergenceError(err.step, err.particle, replica=int(replica)) from None
        r = rec_pos.get(k + 1)
        if r is not None:
            on_record(r, states)
    return states


def simulate_particle_system(model: ModelSpec, config: SimConfig,
                             noise: Optional[NoiseGrid] = None) -> TrajectoryEnsemble:
    """Run the N-particle system with the exact empirical mean-field drift.

    Every step is a Jacobi update: all drifts are evaluated against the
    frozen step-start ensemble (self-interaction j=i included), then all
    particles advance simultaneously.  The states are recorded at
    config.record_steps.  Row i is particle i of the noise grid, for i < N.
    A batched noise grid (a vector of replica ids) runs one system per
    replica and gives states a leading replica axis.
    """
    noise = noise or config.noise()
    N, d = config.n_particles, model.dim
    X = model.initial_law.sample(noise, N)
    recs = config.record_steps
    states = np.empty(noise.batch_shape + (len(recs), N, d))
    states[..., 0, :, :] = X

    def record(r, Xs):
        states[..., r, :, :] = Xs[0]

    _integrate(model, config, noise, [X], [None], record)
    return TrajectoryEnsemble(times=recs * config.dt, states=states)


def build_reference_flow(model: ModelSpec, M: int, config: SimConfig) -> TrajectoryEnsemble:
    """The nonlinear flow f_t, stood in for by an M-particle run recorded at every step.

    M = 0 stands for the default size, 16 config.n_particles.  The run is
    self-consistent and draws from its own replica namespace,
    REFERENCE_NAMESPACE + config.replica_id, disjoint from every replica.  It
    is its own Picard fixed point: a pass driven by its frozen snapshots on
    the same keys rebuilds it bit for bit, step by step, so one pass is all
    there is.  Coupled runs read its state at step k from states[k].  An M
    that reference_size_errors refuses raises a ValidationError naming it.
    """
    errs = reference_size_errors(M, ())
    if errs:
        raise ValidationError(f"reference flow: {'; '.join(errs)}")
    return simulate_particle_system(model, replace(
        config, n_particles=M or 16 * config.n_particles, snapshot_stride=1,
        replica_id=REFERENCE_NAMESPACE + config.replica_id))


def simulate_coupled(model: ModelSpec, config: SimConfig, flow: TrajectoryEnsemble,
                     noise: Optional[NoiseGrid] = None,
                     n_grid: Optional[Sequence[int]] = None):
    """Advance X^{i,N} and the nonlinear Xbar^i on identical noise increments.

    The particle system sees its own empirical measure; the nonlinear
    processes see the frozen reference flow, a run recorded at every step
    (see build_reference_flow).  Both start from the same initial samples,
    so the per-time mean-square gap is the Theorem's left-hand side.  It is
    recorded only at config.record_steps (every step at stride 1), each
    value the same bits as in the stride-1 trace; the states are stepped
    alike at any stride.  The step-0 gap is 0 and is not computed.  A
    batched noise grid couples one system per replica against the one
    shared flow.  Returns one CoupledEnsemble.

    With n_grid, one step loop couples a particle system of every size N in
    n_grid (config.n_particles is not read) and returns a list of one
    CoupledEnsemble per N, in grid order, each equal bit for bit to the run
    at that one size.  Copy Xbar^i never sees the other copies, and no step
    rounds a row by the number of rows, so its path does not depend on N:
    the copies run once, at max N, and size N reads the first N of them, as
    it reads the first N rows of the max-N noise and initial draw.  A
    divergence is reported for the earliest step; within a step the systems
    come in grid order and the nonlinear copies last.
    """
    if flow.states.ndim != 3:
        raise ValidationError("reference flow must be one run, without a replica axis")
    if flow.times[1] != config.dt:
        raise ValidationError(f"flow step {flow.times[1]} does not match run dt {config.dt}")
    if config.n_steps + 1 > len(flow.times):
        raise ValidationError("reference flow does not cover [0, t_final] at this dt")

    noise = noise or config.noise()
    sizes = [config.n_particles] if n_grid is None else [int(n) for n in n_grid]
    X0 = model.initial_law.sample(noise, max(sizes))
    recs = config.record_steps
    # both sides start from the same samples, so the step-0 gap is 0
    gaps = np.zeros((len(sizes),) + noise.batch_shape + (len(recs),))

    def record(r, Xs):
        for gap, X, n in zip(gaps, Xs, sizes):
            diff = X - Xs[-1][..., :n, :]
            gap[..., r] = np.mean(np.einsum("...id,...id->...i", diff, diff), axis=-1)

    final = _integrate(model, config, noise, [X0[..., :n, :] for n in sizes] + [X0],
                       [None] * len(sizes) + [flow.states], record)
    runs = [CoupledEnsemble(times=recs * config.dt, mean_square_gap=gap, terminal_particles=X,
                            terminal_nonlinear=final[-1][..., :n, :])
            for gap, X, n in zip(gaps, final, sizes)]
    return runs[0] if n_grid is None else runs

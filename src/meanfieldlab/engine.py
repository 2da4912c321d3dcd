"""Euler-Maruyama time stepping, Picard reference flow, synchronous coupling.

All randomness flows through a NoiseGrid, so a run is a pure function of
(model, config, seed) and the particle system and its coupled nonlinear
processes literally read the same Brownian increments.  A grid over a vector
of R replica ids runs R independent replicas at once on (R, N, d) states;
replica r's results equal, bit for bit, a run on the grid of its own id.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, ValidationError
from .models import DiffusionSpec, ModelSpec, mean_field_batch
from .rng import INIT_STEP, NoiseGrid

__all__ = [
    "SimConfig",
    "TrajectoryEnsemble",
    "ReferenceFlow",
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
    model: ModelSpec
    config: SimConfig

    @property
    def terminal(self) -> np.ndarray:
        return self.states[..., -1, :, :]

    def to_csv(self) -> str:
        """One row per recorded step: t, then particle coordinates flattened."""
        n_rec, n, d = self.states.shape
        header = "t," + ",".join(f"p{i}_x{c}" for i in range(n) for c in range(d))
        lines = [header]
        flat = self.states.reshape(n_rec, n * d)
        for t, row in zip(self.times, flat):
            lines.append(format(t, ".17g") + "," + ",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class ReferenceFlow:
    """Approximation of the nonlinear flow f_t by M-point snapshots at every step."""

    times: np.ndarray           # (n_steps + 1,)
    snapshots: np.ndarray       # (n_steps + 1, M, d)
    picard_iterations: int
    dt: float
    iterate_gaps: list = field(default_factory=list)  # terminal W2 between successive iterates

    @property
    def m_reference(self) -> int:
        return self.snapshots.shape[1]


@dataclass
class CoupledEnsemble:
    """Synchronously coupled particle system and nonlinear processes.

    Batched runs carry a leading replica axis R on every field but times.
    """

    times: np.ndarray               # (n_steps + 1,)
    mean_square_gap: np.ndarray     # (n_steps + 1,), (1/N) sum_i |X_i - Xbar_i|^2
    terminal_particles: np.ndarray  # (N, d)
    terminal_nonlinear: np.ndarray  # (N, d)

    def gap_to_csv(self) -> str:
        """One row per step: t, mean-square coupling gap."""
        lines = ["t,mean_sq_gap"]
        for t, g in zip(self.times, self.mean_square_gap):
            lines.append(f"{format(t, '.17g')},{format(g, '.17g')}")
        return "\n".join(lines) + "\n"


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
    bad = ~np.all(np.isfinite(out), axis=-1)
    if np.any(bad):
        first = np.argwhere(np.atleast_1d(bad))[0]
        row = int(first[-1])
        raise DivergenceError(step=step, particle=int(labels[row]) if labels is not None else row,
                              replica=int(first[0]) if len(first) > 1 else None)
    return out


def _integrate(model: ModelSpec, config: SimConfig, noise: NoiseGrid, indices: np.ndarray,
               states: list, clouds: list, on_step: Callable[[int, list], None]) -> list:
    """The step loop shared by every simulation: all states ride the same noise.

    States have shape noise.batch_shape + (N, d).  Each step k draws
    noise.increments(indices, k, d) once for every replica, evaluates each
    state's mean-field drift (against its own empirical measure, replica by
    replica, when its cloud is None, else against the frozen snapshot
    cloud[k] shared by all replicas), then advances every state with
    euler_step.  on_step(k + 1, states) sees the new states; the terminal
    states are returned.  A DivergenceError names the replica id of the
    diverged row.
    """
    d = model.dim
    tame = config.taming and model.drift.taming_exponent > 0
    sizes = [X.shape[-2] if c is None else c.shape[1] for X, c in zip(states, clouds)]
    weights = [np.full(n, 1.0 / n) for n in sizes]
    for k in range(config.n_steps):
        drifts = [mean_field_batch(model.drift, X, X if c is None else c[k], w)
                  for X, c, w in zip(states, clouds, weights)]
        dW = noise.increments(indices, k, d)
        try:
            states = [euler_step(X, b, model.diffusion, dW, config.dt, tame,
                                 model.drift.taming_exponent, step=k, labels=indices)
                      for X, b in zip(states, drifts)]
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
    return TrajectoryEnsemble(times=recs * config.dt, states=states, model=model, config=config)


def build_reference_flow(model: ModelSpec, M: int, config: SimConfig,
                         picard_iters: int = 2,
                         noise: Optional[NoiseGrid] = None) -> ReferenceFlow:
    """Fixed-point construction of the nonlinear flow.

    Pass 0 simulates an M-particle system self-consistently; each later pass
    re-simulates the same noise keys against the previous pass's frozen
    snapshot flow.  Snapshots are stored at every step so coupled runs can do
    piecewise-constant lookups.
    """
    if M < 1 or picard_iters < 1:
        raise ValidationError("M and picard_iters must be >= 1")
    from .wasserstein import sample_w2  # local import: metrics layer sits above models

    noise = noise or config.noise()
    n_steps = config.n_steps
    indices = np.arange(M)
    X0 = model.initial_law.sample(noise, indices)

    prev = None
    iterate_gaps = []
    for it in range(picard_iters):
        snaps = np.empty((n_steps + 1, M, model.dim))
        snaps[0] = X0

        def record(k, Xs):
            snaps[k] = Xs[0]

        _integrate(model, config, noise, indices, [X0], [prev], record)
        if prev is not None:
            iterate_gaps.append(sample_w2(prev[-1], snaps[-1]))
            if len(iterate_gaps) >= 2 and iterate_gaps[-1] > iterate_gaps[-2] + 1e-12:
                warnings.warn(
                    "Picard iterates stopped contracting "
                    f"(terminal W2 {iterate_gaps[-2]:.3e} -> {iterate_gaps[-1]:.3e})",
                    RuntimeWarning,
                )
        prev = snaps

    return ReferenceFlow(times=np.arange(n_steps + 1) * config.dt, snapshots=prev,
                         picard_iterations=picard_iters, dt=config.dt,
                         iterate_gaps=iterate_gaps)


def simulate_coupled(model: ModelSpec, config: SimConfig, flow: ReferenceFlow,
                     noise: Optional[NoiseGrid] = None) -> CoupledEnsemble:
    """Advance X^{i,N} and the nonlinear Xbar^i on identical noise increments.

    The particle system sees its own empirical measure; the nonlinear
    processes see the frozen reference flow.  Both start from the same
    initial samples, so the per-time mean-square gap is the Theorem's
    left-hand side.  A batched noise grid couples one system per replica
    against the one shared flow.
    """
    if flow.dt != config.dt:
        raise ValidationError(f"flow dt {flow.dt} does not match run dt {config.dt}")
    n_steps = config.n_steps
    if n_steps + 1 > flow.snapshots.shape[0]:
        raise ValidationError("reference flow does not cover [0, t_final] at this dt")

    noise = noise or config.noise()
    indices = np.arange(config.n_particles)
    X0 = model.initial_law.sample(noise, indices)
    gap = np.zeros(noise.batch_shape + (n_steps + 1,))

    def record(k, Xs):
        diff = Xs[0] - Xs[1]
        gap[..., k] = np.mean(np.einsum("...id,...id->...i", diff, diff), axis=-1)

    X, Xbar = _integrate(model, config, noise, indices, [X0, X0], [None, flow.snapshots],
                         record)
    return CoupledEnsemble(times=np.arange(n_steps + 1) * config.dt, mean_square_gap=gap,
                           terminal_particles=X, terminal_nonlinear=Xbar)

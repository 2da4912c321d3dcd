from dataclasses import replace

import numpy as np
import pytest

from meanfieldlab import (DiffusionSpec, DivergenceError, InitialLaw, SimConfig,
                          TrajectoryEnsemble, ValidationError, build_reference_flow, engine,
                          euler_step, granular_media_model, linear_test_model, power_potential,
                          quadratic_potential, simulate_coupled, simulate_particle_system,
                          sample_w2, vlasov_fokker_planck_model, zero_potential)
from meanfieldlab.models import DriftKernel, ModelSpec
from meanfieldlab.rng import NoiseGrid, REFERENCE_NAMESPACE


def _static_model(d=1):
    """b = 0, sigma = 0: nothing moves."""
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
                          mean_field=lambda x, points, weights: np.zeros_like(x)),
        diffusion=DiffusionSpec(np.zeros((d, d))),
        initial_law=InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name="static",
    )


def _pure_diffusion_model(d=1):
    """b = 0 but sigma = sqrt(2) I."""
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
                          mean_field=lambda x, points, weights: np.zeros_like(x)),
        diffusion=DiffusionSpec.isotropic(d),
        initial_law=InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name="pure-diffusion",
    )


def _ref_noise(cfg):
    return NoiseGrid(cfg.seed, REFERENCE_NAMESPACE, cfg.dt)


# ---------------------------------------------------------------------------
# euler_step


def test_euler_step_fixed_point():
    diff = DiffusionSpec.isotropic(1)
    out = euler_step(np.zeros(1), np.zeros(1), diff, np.zeros(1), dt=0.01)
    assert np.array_equal(out, np.zeros(1))


def test_euler_step_pure_drift():
    out = euler_step(np.ones(1), np.ones(1), DiffusionSpec.isotropic(1), np.zeros(1), dt=0.5)
    assert out[0] == pytest.approx(0.5)


def test_euler_step_pure_diffusion():
    out = euler_step(np.zeros(1), np.zeros(1), DiffusionSpec.isotropic(1),
                     np.array([0.3]), dt=0.25)
    assert out[0] == pytest.approx(0.3 * np.sqrt(2.0))


def test_euler_step_taming_shrinks_large_drift():
    big = np.array([1e8])
    tamed = euler_step(np.zeros(1), big, DiffusionSpec.isotropic(1), np.zeros(1),
                       dt=0.01, taming=True)
    untamed = euler_step(np.zeros(1), big, DiffusionSpec.isotropic(1), np.zeros(1),
                         dt=0.01, taming=False)
    assert abs(tamed[0]) < abs(untamed[0]) / 1e4
    assert abs(tamed[0]) <= 1.0 + 1e-9  # |b dt / (1 + dt |b|)| < 1


def test_euler_step_nonfinite_raises():
    with pytest.raises(DivergenceError):
        euler_step(np.array([np.inf]), np.zeros(1), DiffusionSpec.isotropic(1),
                   np.zeros(1), dt=0.01)


# ---------------------------------------------------------------------------
# SimConfig validation


def test_config_requires_integer_step_count():
    with pytest.raises(ValidationError):
        SimConfig(dt=0.3, t_final=1.0, n_particles=4, seed=1)


def test_config_rejects_zero_step_time_grid():
    with pytest.raises(ValidationError, match="t_final must be at least dt"):
        SimConfig(dt=0.01, t_final=1e-12, n_particles=4, seed=1)


def test_config_dt_guard_and_override():
    with pytest.raises(ValidationError):
        SimConfig(dt=0.2, t_final=1.0, n_particles=4, seed=1)
    cfg = SimConfig(dt=0.2, t_final=1.0, n_particles=4, seed=1, allow_large_dt=True)
    assert cfg.n_steps == 5


# ---------------------------------------------------------------------------
# particle system


def test_static_model_states_constant():
    traj = simulate_particle_system(_static_model(), SimConfig(dt=0.1, t_final=1.0,
                                                               n_particles=16, seed=2))
    assert np.array_equal(traj.states[0], traj.states[-1])


def test_single_particle_drift_is_self_interaction():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=0.05, n_particles=1, seed=3)
    traj = simulate_particle_system(m, cfg)
    # with N=1 the empirical drift is b(X, X) = V'(X) (since grad W(0) = 0)
    noise = cfg.noise()
    x = m.initial_law.sample(noise, np.arange(1))
    for k in range(cfg.n_steps):
        drift = m.drift.eval(x, x)
        x = x + m.diffusion.apply(noise.increments(np.arange(1), k, 1)) - drift * cfg.dt
    assert np.allclose(traj.terminal, x, atol=1e-14)


def test_determinism_bit_exact():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=0.2, n_particles=32, seed=11)
    a = simulate_particle_system(m, cfg)
    b = simulate_particle_system(m, cfg)
    assert np.array_equal(a.states, b.states)


def test_exchangeability_under_index_permutation():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=0.1, n_particles=8, seed=13)
    base = simulate_particle_system(m, cfg, particle_indices=np.arange(8))
    perm = np.array([3, 1, 7, 0, 5, 2, 6, 4])
    shuffled = simulate_particle_system(m, cfg, particle_indices=perm)
    assert np.array_equal(shuffled.states, base.states[:, perm, :])


def test_ou_ensemble_mean_and_variance():
    # closed-form oracle: mean m0 e^{-t}, variance 1/r + (v0 - 1/r) e^{-2rt}
    m = linear_test_model(1.0, 1, mean0=1.0, var0=1.0)
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=512, seed=17)
    samples = []
    for rep in range(20):
        traj = simulate_particle_system(
            m, SimConfig(dt=0.01, t_final=1.0, n_particles=512, seed=17, replica_id=rep,
                         snapshot_stride=100))
        samples.append(traj.terminal.ravel())
    x = np.concatenate(samples)
    se_mean = x.std() / np.sqrt(len(x))
    assert abs(x.mean() - np.exp(-1.0)) < 3 * se_mean + 0.01  # 0.01 covers dt bias
    assert abs(x.var() - 1.0) < 3 * x.var() * np.sqrt(2 / len(x)) + 0.01


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_error_reports_step():
    m = granular_media_model(quadratic_potential(1.0), power_potential(3.0, 10.0), 1,
                             initial_law=InitialLaw.gaussian([30.0], [[1.0]]), validate=False)
    cfg = SimConfig(dt=0.1, t_final=10.0, n_particles=8, seed=1, taming=False,
                    allow_large_dt=True)
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg)
    assert exc.value.step >= 0


def test_divergence_error_reports_caller_label():
    # a law-free kernel that blows up exactly one particle: the one that starts highest
    labels = np.array([40, 10, 70, 30, 60, 20, 50])
    cfg = SimConfig(dt=0.1, t_final=0.5, n_particles=len(labels), seed=5)
    start = InitialLaw.gaussian(np.zeros(1), np.eye(1)).sample(cfg.noise(), labels)
    top = start.max()
    m = ModelSpec(
        drift=DriftKernel(dim=1, eval=lambda x, y: np.where(x >= top, np.inf, 0.0),
                          mean_field=lambda x, points, weights: np.where(x >= top, np.inf, 0.0)),
        diffusion=DiffusionSpec(np.zeros((1, 1))),
        initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)),
        name="one-blows-up",
    )
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg, particle_indices=labels)
    assert exc.value.step == 0
    assert exc.value.particle == labels[int(np.argmax(start[:, 0]))]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def _blows_up_above(threshold):
    """A law-free kernel that blows up every particle at or above the threshold."""
    def blow_up(x, *_):
        return np.where(x >= threshold, np.inf, 0.0)

    return ModelSpec(
        drift=DriftKernel(dim=1, eval=blow_up, mean_field=blow_up),
        diffusion=DiffusionSpec.isotropic(1),
        initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)),
        name=f"blows-up-above-{threshold}",
    )


def test_batched_divergence_names_the_replica_of_the_per_replica_run():
    cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=4, seed=71)
    labels = np.array([30, 10, 20, 0])
    ids = np.array([105, 101, 108, 102, 104])
    # The scenario is read off the draws: below the threshold the drift is 0,
    # so each replica follows its calm path until the step at which one of
    # its particles first reaches the threshold.  Take the highest threshold
    # that every replica reaches and that a replica other than the batch's
    # first reaches first.
    calm = simulate_particle_system(_blows_up_above(np.inf), cfg,
                                    noise=NoiseGrid(cfg.seed, ids, cfg.dt),
                                    particle_indices=labels)
    highs = calm.states[:, :-1, :, 0].max(axis=-1)  # (replica, step): drift is read there

    def first_to_cross(t):
        return min((int(np.argmax(h >= t)), pos) for pos, h in enumerate(highs))

    reached = np.unique(highs[highs <= highs.max(axis=1).min()])
    threshold = max(t for t in reached if first_to_cross(t)[1] > 0)
    m = _blows_up_above(threshold)
    alone = []
    for pos, rid in enumerate(ids):
        with pytest.raises(DivergenceError) as exc:
            simulate_particle_system(m, cfg, noise=NoiseGrid(cfg.seed, int(rid), cfg.dt),
                                     particle_indices=labels)
        assert exc.value.replica == rid
        alone.append((exc.value.step, pos, exc.value.particle))
    step, pos, particle = min(alone)
    assert pos > 0  # the first replica to diverge is not the first in the batch
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg, noise=NoiseGrid(cfg.seed, ids, cfg.dt),
                                 particle_indices=labels)
    assert (exc.value.replica, exc.value.step, exc.value.particle) == (ids[pos], step, particle)
    assert f"replica {ids[pos]}, step {step}, particle {particle}" in str(exc.value)

    # every particle of every replica starts above the threshold, so all
    # diverge at step 0: the batch names the first replica and, like the
    # per-replica run, the first particle in key order
    m = replace(m, initial_law=InitialLaw.point([threshold + 1.0]))
    errs = []
    for noise in (NoiseGrid(cfg.seed, ids, cfg.dt), NoiseGrid(cfg.seed, int(ids[0]), cfg.dt)):
        with pytest.raises(DivergenceError) as exc:
            simulate_particle_system(m, cfg, noise=noise, particle_indices=labels)
        errs.append((exc.value.replica, exc.value.step, exc.value.particle))
    assert errs[0] == errs[1] == (ids[0], 0, labels.min())


def test_vfp_position_update_is_exactly_v_dt():
    m = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: v, B=lambda x: x,
                                   d_prime=1)
    cfg = SimConfig(dt=0.01, t_final=0.3, n_particles=64, seed=19)
    traj = simulate_particle_system(m, cfg)
    x, v = traj.states[:, :, 0], traj.states[:, :, 1]
    assert np.array_equal(x[1:], x[:-1] + v[:-1] * cfg.dt)


# ---------------------------------------------------------------------------
# reference flow


def test_reference_flow_matches_ou_moments():
    m = linear_test_model(1.0, 1, mean0=1.0, var0=1.0)
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=29)
    flow = build_reference_flow(m, 8192, cfg)
    term = flow.states[-1].ravel()
    assert abs(term.mean() - np.exp(-1.0)) < 3 * term.std() / np.sqrt(len(term)) + 0.01
    assert abs(term.var() - 1.0) < 0.05


def test_granular_reference_mean_decays():
    # exact mean ODE dm/dt = -m for V = v^2/2, W = z^2/2 (interaction averages out)
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1,
                             initial_law=InitialLaw.gaussian([1.0], [[1.0]]))
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=37)
    flow = build_reference_flow(m, 4096, cfg)
    means = flow.states.mean(axis=(1, 2))
    expect = np.exp(-flow.times)
    assert np.max(np.abs(means - expect)) < 0.05
    # monotone decay within MC noise
    assert np.all(np.diff(means) < 0.02)


PICARD_CASES = {
    "pure-diffusion": (_pure_diffusion_model(), False),
    "quadratic": (granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1),
                  False),
    "tamed-cubic-1d": (granular_media_model(quadratic_potential(1.0), power_potential(3.0, 1.0),
                                            1), True),
    "tamed-cubic-2d": (granular_media_model(quadratic_potential(1.0), power_potential(3.0, 1.0),
                                            2), True),
    "vfp": (vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: 0.5 * v,
                                       B=lambda x: x, d_prime=1), False),
}


@pytest.mark.parametrize("passes", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(PICARD_CASES))
def test_one_reference_pass_equals_the_picard_loop(case, passes):
    # an explicit Picard loop: pass 0 against its own cloud, each later pass
    # re-simulating the same keys against the frozen previous pass
    m, taming = PICARD_CASES[case]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=1, seed=79, taming=taming)
    M = 48
    noise = _ref_noise(cfg)
    indices = np.arange(M)
    X0 = m.initial_law.sample(noise, indices)
    prev, gaps = None, []
    for _ in range(passes):
        snaps = np.empty((cfg.n_steps + 1, M, m.dim))
        snaps[0] = X0

        def record(k, Xs, snaps=snaps):
            snaps[k] = Xs[0]

        engine._integrate(m, cfg, noise, indices, [X0], [prev], record)
        if prev is not None:
            gaps.append(sample_w2(prev[-1], snaps[-1]))
        prev = snaps

    flow = build_reference_flow(m, M, cfg)
    assert np.array_equal(flow.states, prev)
    assert np.array_equal(flow.times, np.arange(cfg.n_steps + 1) * cfg.dt)
    assert gaps == [0.0] * (passes - 1)


# ---------------------------------------------------------------------------
# synchronous coupling


def test_coupling_null_for_zero_drift():
    m = _pure_diffusion_model()
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=64, seed=41)
    flow = build_reference_flow(m, 256, cfg)
    res = simulate_coupled(m, cfg, flow)
    assert np.array_equal(res.mean_square_gap, np.zeros_like(res.mean_square_gap))
    assert np.array_equal(res.terminal_particles, res.terminal_nonlinear)


def test_coupling_null_for_law_free_drift():
    m = linear_test_model(1.0, 1, mean0=0.5)
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=64, seed=43)
    flow = build_reference_flow(m, 256, cfg)
    res = simulate_coupled(m, cfg, flow)
    assert np.all(res.mean_square_gap == 0.0)


def test_coupling_gap_scales_inversely_with_n():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=47)
    flow = build_reference_flow(m, 4096, cfg)
    gaps = {}
    for n in (64, 256):
        vals = []
        for rep in range(60):
            c = SimConfig(dt=0.01, t_final=1.0, n_particles=n, seed=47, replica_id=rep)
            vals.append(simulate_coupled(m, c, flow).mean_square_gap[-1])
        gaps[n] = np.mean(vals)
    ratio = gaps[64] / gaps[256]
    assert 2.0 < ratio < 8.0  # C/N scaling: expect ~4 within a factor 2


def test_coupled_consumes_identical_noise():
    # reconstruct the nonlinear path by hand from the same keys
    m = linear_test_model(2.0, 1)
    cfg = SimConfig(dt=0.01, t_final=0.1, n_particles=4, seed=53)
    flow = build_reference_flow(m, 64, cfg)
    res = simulate_coupled(m, cfg, flow)
    noise = cfg.noise()
    x = m.initial_law.sample(noise, np.arange(4))
    for k in range(cfg.n_steps):
        drift = 2.0 * x
        x = x + m.diffusion.apply(noise.increments(np.arange(4), k, 1)) - drift * cfg.dt
    assert np.array_equal(res.terminal_nonlinear, x)


@pytest.mark.parametrize("cubic", [False, True])
def test_reference_pass_and_coupled_particles_match_particle_system(cubic):
    # all three simulations run the same step loop, so on the same keys they agree bit for bit
    W = power_potential(3.0, 1.0) if cubic else quadratic_potential(1.0)
    m = granular_media_model(quadratic_potential(1.0), W, 1)
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=64, seed=67, taming=cubic)
    flow = build_reference_flow(m, 64, cfg)
    traj = simulate_particle_system(m, cfg, noise=_ref_noise(cfg))
    assert np.array_equal(flow.states, traj.states)

    small = SimConfig(dt=0.02, t_final=0.2, n_particles=8, seed=67, taming=cubic)
    res = simulate_coupled(m, small, flow)
    assert np.array_equal(res.terminal_particles, simulate_particle_system(m, small).terminal)


def test_coupled_rejects_mismatched_flow():
    m = linear_test_model(1.0, 1)
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=4, seed=59)
    flow = build_reference_flow(m, 32, cfg)
    longer = SimConfig(dt=0.01, t_final=1.0, n_particles=4, seed=59)
    with pytest.raises(ValidationError):
        simulate_coupled(m, longer, flow)
    other_dt = SimConfig(dt=0.005, t_final=0.5, n_particles=4, seed=59)
    with pytest.raises(ValidationError, match="does not match run dt"):
        simulate_coupled(m, other_dt, flow)
    # a flow on another dt, or recorded at a stride, would be read at the wrong times
    coarse = build_reference_flow(m, 32, replace(cfg, dt=0.02))
    strided = simulate_particle_system(m, replace(cfg, n_particles=32, snapshot_stride=2))
    for other in (coarse, strided):
        with pytest.raises(ValidationError, match="does not match run dt"):
            simulate_coupled(m, cfg, other)
    batched = simulate_particle_system(m, replace(cfg, n_particles=32),
                                       noise=NoiseGrid(cfg.seed, np.arange(3), cfg.dt))
    with pytest.raises(ValidationError, match="without a replica axis"):
        simulate_coupled(m, cfg, batched)


# ---------------------------------------------------------------------------
# batched replicas: one (R, N, d) run equals R runs of one replica each


def _kinetic_non_diagonal():
    vfp = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: 0.5 * v,
                                     B=lambda x: x, d_prime=1)
    return ModelSpec(drift=vfp.drift, diffusion=DiffusionSpec([[0.3, 0.0], [0.8, 1.2]]),
                     initial_law=InitialLaw.uniform_box([-1.0, 0.0], [1.0, 2.0]),
                     name="kinetic, non-diagonal sigma")


_MIXTURE = InitialLaw.mixture([InitialLaw.point([-2.0]), InitialLaw.gaussian([1.0], [[0.5]])],
                              [0.3, 0.7])
BATCH_CASES = {
    "quadratic-gaussian": (granular_media_model(quadratic_potential(1.0),
                                                quadratic_potential(1.0), 1), False),
    "quadratic-point": (granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0),
                                             1, initial_law=InitialLaw.point([0.5])), False),
    "quadratic-uniform": (granular_media_model(quadratic_potential(1.0),
                                               quadratic_potential(1.0), 1,
                                               initial_law=InitialLaw.uniform_box([-1.0],
                                                                                  [2.0])),
                          False),
    "quadratic-mixture": (granular_media_model(quadratic_potential(1.0),
                                               quadratic_potential(1.0), 1,
                                               initial_law=_MIXTURE), False),
    "tamed-cubic-pairwise": (granular_media_model(quadratic_potential(1.0),
                                                  power_potential(3.0, 1.0), 1), True),
    "kinetic-non-diagonal": (_kinetic_non_diagonal(), False),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_simulations_equal_per_replica_runs(case):
    m, taming = BATCH_CASES[case]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=12, seed=73, taming=taming,
                    snapshot_stride=3)
    flow = build_reference_flow(m, 64, cfg)
    ids = np.array([6, 2, 11, REFERENCE_NAMESPACE + 1])
    labels = np.array([7, 3, 30, 1, 12, 9, 0, 4, 5, 2, 8, 6])
    batch_noise = NoiseGrid(cfg.seed, ids, cfg.dt)

    coupled = simulate_coupled(m, cfg, flow, noise=batch_noise)
    traj = simulate_particle_system(m, cfg, noise=batch_noise, particle_indices=labels)
    assert coupled.mean_square_gap.shape == (len(ids), len(engine._record_steps(cfg.n_steps, 3)))
    assert traj.states.shape == (len(ids), 5, 12, m.dim)
    for r, rid in enumerate(ids):
        noise = NoiseGrid(cfg.seed, int(rid), cfg.dt)
        one = simulate_coupled(m, cfg, flow, noise=noise)
        assert np.array_equal(coupled.mean_square_gap[r], one.mean_square_gap)
        assert np.array_equal(coupled.terminal_particles[r], one.terminal_particles)
        assert np.array_equal(coupled.terminal_nonlinear[r], one.terminal_nonlinear)
        one_traj = simulate_particle_system(m, cfg, noise=noise, particle_indices=labels)
        assert np.array_equal(traj.states[r], one_traj.states)
        assert np.array_equal(traj.terminal[r], one_traj.terminal)
    assert np.array_equal(traj.times, one_traj.times)


# ---------------------------------------------------------------------------
# one step loop over an n_grid: each size gets the bits of its own run

GRID_CASES = dict(BATCH_CASES, **{
    "quadratic-2d-gaussian": (granular_media_model(
        quadratic_potential(1.0), quadratic_potential(1.0), 2,
        initial_law=InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]])), False),
})


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_call_equals_per_size_runs(case, batched):
    # sizes out of order, not nested in powers of 2, and a one-row size (whose
    # matrix products numpy may round differently from a row of a larger one)
    m, taming = GRID_CASES[case]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=3, seed=83, taming=taming)
    flow = build_reference_flow(m, 64, cfg)
    noise = NoiseGrid(cfg.seed, np.array([6, 2, 11]) if batched else 4, cfg.dt)
    n_grid = [12, 1, 5, 7]
    runs = simulate_coupled(m, cfg, flow, noise=noise, n_grid=n_grid)
    assert len(runs) == len(n_grid)
    for n, res in zip(n_grid, runs):
        one = simulate_coupled(m, replace(cfg, n_particles=n), flow, noise=noise)
        assert res.terminal_particles.shape == noise.batch_shape + (n, m.dim)
        assert np.array_equal(res.times, one.times)
        assert np.array_equal(res.mean_square_gap, one.mean_square_gap)
        assert np.array_equal(res.terminal_particles, one.terminal_particles)
        assert np.array_equal(res.terminal_nonlinear, one.terminal_nonlinear)


@pytest.mark.parametrize("stride", [1, 3, "n_steps"])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_strided_gap_is_the_full_trace_at_the_recorded_steps(case, batched, stride):
    # a run recorded at a stride steps the same states and records the bits of
    # the stride-1 trace at its snapshot steps, for one size and for a grid
    m, taming = GRID_CASES[case]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=5, seed=83, taming=taming)
    stride = cfg.n_steps if stride == "n_steps" else stride
    flow = build_reference_flow(m, 64, cfg)
    noise = NoiseGrid(cfg.seed, np.array([6, 2, 11]) if batched else 4, cfg.dt)
    steps = engine._record_steps(cfg.n_steps, stride)
    for n_grid in (None, [12, 1, 5]):
        full = simulate_coupled(m, cfg, flow, noise=noise, n_grid=n_grid)
        part = simulate_coupled(m, replace(cfg, snapshot_stride=stride), flow, noise=noise,
                                n_grid=n_grid)
        pairs = [(full, part)] if n_grid is None else zip(full, part)
        for one, strided in pairs:
            assert np.array_equal(strided.times, one.times[steps])
            assert np.array_equal(strided.mean_square_gap, one.mean_square_gap[..., steps])
            assert np.array_equal(strided.terminal_particles, one.terminal_particles)
            assert np.array_equal(strided.terminal_nonlinear, one.terminal_nonlinear)
            assert np.any(one.mean_square_gap[..., -1] > 0)


def test_every_drift_call_sees_contiguous_states():
    # the sizes of a grid start as the first rows of the max-N draw, and a
    # relabeled system as a permutation of its draw; each reaches the drift
    # as a C-contiguous state against a C-contiguous cloud
    calls = []

    def mean_field(X, points, weights):
        calls.append((X.shape, X.flags.c_contiguous and points.flags.c_contiguous))
        return X - (weights @ points)[..., None, :]

    m = ModelSpec(drift=DriftKernel(dim=1, eval=lambda x, y: x - y, mean_field=mean_field),
                  diffusion=DiffusionSpec.isotropic(1),
                  initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)), name="spy")
    cfg = SimConfig(dt=0.05, t_final=0.2, n_particles=6, seed=97)
    flow = build_reference_flow(m, 64, cfg)
    noise = NoiseGrid(cfg.seed, np.array([3, 1, 8]), cfg.dt)
    calls.clear()
    simulate_coupled(m, cfg, flow, noise=noise, n_grid=[4, 8, 16])
    simulate_particle_system(m, cfg, noise=noise, particle_indices=[5, 0, 9, 2, 7, 1])
    shapes = {shape for shape, _ in calls}
    assert {(3, 4, 1), (3, 8, 1), (3, 16, 1), (3, 6, 1)} <= shapes
    assert len(calls) == cfg.n_steps * (3 + 1 + 1)
    assert all(contiguous for _, contiguous in calls)


def _threshold_model(levels):
    """No noise, drift -1 (every row climbs dt per step), and an infinite drift on
    rows at or above levels[size of the cloud the state sees]."""
    def mean_field(X, points, weights):
        return np.where(X >= levels.get(len(weights), np.inf), np.inf, -1.0)

    return ModelSpec(drift=DriftKernel(dim=1, eval=lambda x, y: -np.ones_like(x),
                                       mean_field=mean_field),
                     diffusion=DiffusionSpec(np.zeros((1, 1))),
                     initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)),
                     name="climbs-then-blows-up")


def test_grid_divergence_is_earliest_step_then_grid_order_then_nonlinear_side():
    cfg = SimConfig(dt=0.1, t_final=2.0, n_particles=1, seed=89)
    M, n_grid = 64, [5, 12, 20]
    flow = TrajectoryEnsemble(times=np.arange(cfg.n_steps + 1) * cfg.dt,
                              states=np.zeros((cfg.n_steps + 1, M, 1)))
    ids = np.array([105, 101, 108])
    noise = NoiseGrid(cfg.seed, ids, cfg.dt)
    start = InitialLaw.gaussian(np.zeros(1), np.eye(1)).sample(noise, np.arange(20))

    def level(rows, step):  # the highest of the first `rows` rows reaches it at `step`
        return float(start[:, :rows].max()) + (step - 0.5) * cfg.dt

    def error(levels, n=None):  # of the run at size n alone, or of the grid call
        with pytest.raises(DivergenceError) as exc:
            simulate_coupled(_threshold_model(levels), replace(cfg, n_particles=n or 1), flow,
                             noise=noise, n_grid=None if n else n_grid)
        return exc.value.step, exc.value.replica, exc.value.particle

    # (divergence step of the systems 5, 12, 20 and of the nonlinear copies; the winner)
    scenarios = [((6, 3, 5, 4), 1),   # the earliest step wins over grid order
                 ((4, 4, 4, 4), 0),   # a tie goes to the first size in the grid
                 ((None, None, 3, 3), 2),  # and a system goes before the copies
                 ((5, 5, 5, 2), 3)]   # the copies at max N, with their own labels
    for steps, winner in scenarios:
        alone = [error({n: level(n, s)}, n) for n, s in zip(n_grid, steps[:3]) if s]
        alone.append(error({M: level(20, steps[3])}, 20))
        order = [i for i, s in enumerate(steps) if s]
        expected = min(zip(alone, order), key=lambda e: (e[0][0], e[1]))
        assert expected[1] == winner
        levels = {n: level(n, s) for n, s in zip(n_grid, steps[:3]) if s}
        levels[M] = level(20, steps[3])
        got = error(levels)
        assert got == expected[0]
        assert got[1] in ids

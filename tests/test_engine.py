from dataclasses import replace

import numpy as np
import pytest

from meanfieldlab import (DiffusionSpec, DivergenceError, InitialLaw, SimConfig,
                          ValidationError, build_reference_flow, euler_step,
                          granular_media_model, linear_test_model, power_potential,
                          quadratic_potential, simulate_coupled, simulate_particle_system,
                          vlasov_fokker_planck_model, zero_potential)
from meanfieldlab.models import DriftKernel, ModelSpec
from meanfieldlab.rng import NoiseGrid, REFERENCE_NAMESPACE


def _static_model(d=1):
    """b = 0, sigma = 0: nothing moves."""
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
                          lipschitz_bound=0.0, law_free=True),
        diffusion=DiffusionSpec(np.zeros((d, d))),
        initial_law=InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name="static",
    )


def _pure_diffusion_model(d=1):
    """b = 0 but sigma = sqrt(2) I."""
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
                          lipschitz_bound=0.0, law_free=True),
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
                          lipschitz_bound=0.0, law_free=True),
        diffusion=DiffusionSpec(np.zeros((1, 1))),
        initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)),
        name="one-blows-up",
    )
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg, particle_indices=labels)
    assert exc.value.step == 0
    assert exc.value.particle == labels[int(np.argmax(start[:, 0]))]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_batched_divergence_names_the_replica_of_the_per_replica_run():
    # a law-free kernel that blows up every particle that wanders above 2
    m = ModelSpec(
        drift=DriftKernel(dim=1, eval=lambda x, y: np.where(x >= 2.0, np.inf, 0.0),
                          lipschitz_bound=0.0, law_free=True),
        diffusion=DiffusionSpec.isotropic(1),
        initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)),
        name="blows-up-above-2",
    )
    cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=4, seed=71)
    labels = np.array([30, 10, 20, 0])
    ids = np.array([105, 101, 108, 102, 104])
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

    # every particle of every replica starts above 2, so all diverge at step 0:
    # the batch names the first replica and, like the per-replica run, the
    # first particle in key order
    m = replace(m, initial_law=InitialLaw.point([3.0]))
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


def test_reference_flow_law_independent_iterates_identical():
    m = _pure_diffusion_model()
    cfg = SimConfig(dt=0.01, t_final=0.2, n_particles=1, seed=23)
    f1 = build_reference_flow(m, 64, cfg, picard_iters=1, noise=_ref_noise(cfg))
    f3 = build_reference_flow(m, 64, cfg, picard_iters=3, noise=_ref_noise(cfg))
    assert np.array_equal(f1.snapshots, f3.snapshots)
    assert all(g == 0.0 for g in f3.iterate_gaps)


def test_reference_flow_matches_ou_moments():
    m = linear_test_model(1.0, 1, mean0=1.0, var0=1.0)
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=29)
    flow = build_reference_flow(m, 8192, cfg, picard_iters=1, noise=_ref_noise(cfg))
    term = flow.snapshots[-1].ravel()
    assert abs(term.mean() - np.exp(-1.0)) < 3 * term.std() / np.sqrt(len(term)) + 0.01
    assert abs(term.var() - 1.0) < 0.05


def test_picard_iterates_contract():
    # successive-iterate W2 at t_final is nonincreasing (here: the fixed point
    # is reached at the first pass, so all gaps sit at the zero floor)
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=31)
    flow = build_reference_flow(m, 4096, cfg, picard_iters=3, noise=_ref_noise(cfg))
    gaps = flow.iterate_gaps
    assert len(gaps) == 2
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    assert gaps[-1] <= max(gaps[0] / 2, 1e-9)  # at least factor-2 contraction or at floor


def test_granular_reference_mean_decays():
    # exact mean ODE dm/dt = -m for V = v^2/2, W = z^2/2 (interaction averages out)
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1,
                             initial_law=InitialLaw.gaussian([1.0], [[1.0]]))
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=37)
    flow = build_reference_flow(m, 4096, cfg, picard_iters=2, noise=_ref_noise(cfg))
    means = flow.snapshots.mean(axis=(1, 2))
    expect = np.exp(-flow.times)
    assert np.max(np.abs(means - expect)) < 0.05
    # monotone decay within MC noise
    assert np.all(np.diff(means) < 0.02)


# ---------------------------------------------------------------------------
# synchronous coupling


def test_coupling_null_for_zero_drift():
    m = _pure_diffusion_model()
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=64, seed=41)
    flow = build_reference_flow(m, 256, cfg, picard_iters=1, noise=_ref_noise(cfg))
    res = simulate_coupled(m, cfg, flow)
    assert np.array_equal(res.mean_square_gap, np.zeros_like(res.mean_square_gap))
    assert np.array_equal(res.terminal_particles, res.terminal_nonlinear)


def test_coupling_null_for_law_free_drift():
    m = linear_test_model(1.0, 1, mean0=0.5)
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=64, seed=43)
    flow = build_reference_flow(m, 256, cfg, picard_iters=1, noise=_ref_noise(cfg))
    res = simulate_coupled(m, cfg, flow)
    assert np.all(res.mean_square_gap == 0.0)


def test_coupling_gap_scales_inversely_with_n():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=1, seed=47)
    flow = build_reference_flow(m, 4096, cfg, picard_iters=2, noise=_ref_noise(cfg))
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
    flow = build_reference_flow(m, 64, cfg, picard_iters=1, noise=_ref_noise(cfg))
    res = simulate_coupled(m, cfg, flow)
    noise = cfg.noise()
    x = m.initial_law.sample(noise, np.arange(4))
    for k in range(cfg.n_steps):
        drift = 2.0 * x
        x = x + m.diffusion.apply(noise.increments(np.arange(4), k, 1)) - drift * cfg.dt
    assert np.array_equal(res.terminal_nonlinear, x)


def test_trajectory_and_gap_csv_round_values():
    m = linear_test_model(1.0, 1)
    cfg = SimConfig(dt=0.1, t_final=0.2, n_particles=2, seed=61)
    traj = simulate_particle_system(m, cfg)
    lines = traj.to_csv().strip().splitlines()
    assert lines[0] == "t,p0_x0,p1_x0"
    assert len(lines) == cfg.n_steps + 2
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states[:, :, 0])

    flow = build_reference_flow(m, 32, cfg, picard_iters=1, noise=_ref_noise(cfg))
    res = simulate_coupled(m, cfg, flow)
    gap_lines = res.gap_to_csv().strip().splitlines()
    assert gap_lines[0] == "t,mean_sq_gap"
    assert len(gap_lines) == cfg.n_steps + 2


@pytest.mark.parametrize("cubic", [False, True])
def test_reference_pass_and_coupled_particles_match_particle_system(cubic):
    # all three simulations run the same step loop, so on the same keys they agree bit for bit
    W = power_potential(3.0, 1.0) if cubic else quadratic_potential(1.0)
    m = granular_media_model(quadratic_potential(1.0), W, 1)
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=64, seed=67, taming=cubic)
    flow = build_reference_flow(m, 64, cfg, picard_iters=1, noise=_ref_noise(cfg))
    traj = simulate_particle_system(m, cfg, noise=_ref_noise(cfg))
    assert np.array_equal(flow.snapshots, traj.states)

    small = SimConfig(dt=0.02, t_final=0.2, n_particles=8, seed=67, taming=cubic)
    res = simulate_coupled(m, small, flow)
    assert np.array_equal(res.terminal_particles, simulate_particle_system(m, small).terminal)


def test_coupled_rejects_mismatched_flow():
    m = linear_test_model(1.0, 1)
    cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=4, seed=59)
    flow = build_reference_flow(m, 32, cfg, picard_iters=1, noise=_ref_noise(cfg))
    longer = SimConfig(dt=0.01, t_final=1.0, n_particles=4, seed=59)
    with pytest.raises(ValidationError):
        simulate_coupled(m, longer, flow)
    other_dt = SimConfig(dt=0.005, t_final=0.5, n_particles=4, seed=59)
    with pytest.raises(ValidationError):
        simulate_coupled(m, other_dt, flow)


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
    flow = build_reference_flow(m, 64, cfg, picard_iters=1, noise=_ref_noise(cfg))
    ids = np.array([6, 2, 11, REFERENCE_NAMESPACE + 1])
    labels = np.array([7, 3, 30, 1, 12, 9, 0, 4, 5, 2, 8, 6])
    batch_noise = NoiseGrid(cfg.seed, ids, cfg.dt)

    coupled = simulate_coupled(m, cfg, flow, noise=batch_noise)
    traj = simulate_particle_system(m, cfg, noise=batch_noise, particle_indices=labels)
    assert coupled.mean_square_gap.shape == (len(ids), cfg.n_steps + 1)
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

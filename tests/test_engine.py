import re
from dataclasses import replace

import numpy as np
import pytest

from meanfieldlab import (DiffusionSpec, DivergenceError, InitialLaw, SimConfig,
                          TrajectoryEnsemble, ValidationError, build_reference_flow, engine,
                          euler_step, granular_media_model, power_potential,
                          quadratic_potential, simulate_coupled, simulate_particle_system,
                          sample_w2, vlasov_fokker_planck_model, zero_potential)
from meanfieldlab.models import DriftKernel, ModelSpec
from meanfieldlab.rng import NoiseGrid, REFERENCE_NAMESPACE


def _ou_model(rate=1.0, mean0=0.0, var0=1.0, d=1):
    """dX = sqrt(2) dB - rate X dt: granular media with V = rate |x|^2 / 2 and W = 0."""
    return granular_media_model(quadratic_potential(rate), zero_potential(), d,
                                initial_law=InitialLaw.gaussian(np.full(d, mean0), var0))


def _static_model(d=1):
    """b = 0, sigma = 0: nothing moves."""
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
                          mean_field=lambda x, points: np.zeros_like(x)),
        diffusion=DiffusionSpec(np.zeros((d, d))),
        initial_law=InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name="static",
    )


def _pure_diffusion_model(d=1):
    """b = 0 but sigma = sqrt(2) I."""
    return ModelSpec(
        drift=DriftKernel(dim=d, eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
                          mean_field=lambda x, points: np.zeros_like(x)),
        diffusion=DiffusionSpec.isotropic(d),
        initial_law=InitialLaw.gaussian(np.zeros(d), np.eye(d)),
        name="pure-diffusion",
    )


def _ref_noise(cfg):
    return NoiseGrid(cfg.seed, REFERENCE_NAMESPACE)


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


@pytest.mark.parametrize("dim", [1, 3])
def test_euler_step_tames_to_b_over_one_plus_dt_norm_b(dim):
    # the one taming rule, row by row: b / (1 + dt |b|), bit for bit
    rng = np.random.default_rng(dim)
    X, b, dW = (rng.normal(scale=s, size=(2, 5, dim)) for s in (1.0, 1e3, 0.1))
    diff = DiffusionSpec.isotropic(dim)
    for dt in (0.01, 0.03, 0.1):
        tamed = b / (1.0 + dt * np.sqrt(np.sum(b * b, axis=-1, keepdims=True)))
        want = X + dW * np.sqrt(2.0) - tamed * dt
        assert np.array_equal(euler_step(X, b, diff, dW, dt, taming=True), want)


def _same_bits(a, b):
    """Equal element for element down to the sign of zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _old_tame(drift, dt):
    """The tamed drift as written before it was built in place."""
    return drift / (1.0 + dt * np.linalg.norm(drift, axis=-1, keepdims=True))


def _wide_drifts(rng, shape):
    """Signed drifts whose squares do not overflow, from 1e-200 to 1e153, with zeros."""
    b = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-200.0, 153.0, size=shape)
    b[rng.random(shape) < 0.05] = 0.0
    return b


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tame_has_the_bits_of_the_norm_expression(dim):
    rng = np.random.default_rng(40 + dim)
    for shape in [(dim,), (7, dim), (20, 64, dim)]:
        b = _wide_drifts(rng, shape)
        for dt in (0.01, 0.02, 0.1):
            assert _same_bits(engine._tame(b, dt), _old_tame(b, dt)), (shape, dt)


@pytest.mark.parametrize("drift, want", [
    ([[1e200]], [[100.0]]),
    ([[-1e200]], [[-100.0]]),
    ([[1e200, 1e200]], [[100.0 / np.sqrt(2.0)] * 2]),
    ([[1e200, -1e300, 3.0]], [[1e-98, -100.0, 3e-298]]),
    ([1e308, 1e308, 1e308], [100.0 / np.sqrt(3.0)] * 3),
], ids=["1d", "1d-negative", "2d", "3d-mixed", "3d-one-state"])
def test_a_drift_whose_square_overflows_tames_to_one_over_dt(drift, want):
    # the root of squares overflows to inf, which once tamed these drifts to 0
    got = engine._tame(np.array(drift), 0.01)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0), got


def test_tame_rescales_only_the_rows_that_overflow():
    rng = np.random.default_rng(5)
    b = rng.normal(scale=1e3, size=(4, 6, 2))
    huge = b.copy()
    huge[1, 2] = [1e200, -2e200]
    got = engine._tame(huge, 0.02)
    rest = np.ones(b.shape[:-1], dtype=bool)
    rest[1, 2] = False
    assert _same_bits(got[rest], _old_tame(b, 0.02)[rest])
    assert np.allclose(got[1, 2], [1.0, -2.0] / (0.02 * np.sqrt(5.0)), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("taming", [False, True])
@pytest.mark.parametrize("sigma", ["isotropic", "kinetic", "full"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_euler_step_has_the_bits_of_the_update_expression(dim, sigma, taming):
    # the step built in place on sigma dW against X + sigma dW - b dt, with b
    # tamed by the norm expression
    rng = np.random.default_rng([dim, int(taming), len(sigma)])
    if sigma == "isotropic":
        diffusion = DiffusionSpec.isotropic(dim)
    elif sigma == "kinetic":
        diffusion = DiffusionSpec(np.diag(rng.choice([0.0, np.sqrt(2.0)], size=dim)))
    else:
        diffusion = DiffusionSpec(rng.normal(size=(dim, dim)))
    for shape in [(9, dim), (4, 9, dim)]:
        X, dW = rng.normal(size=shape), 0.1 * rng.normal(size=shape)
        b = _wide_drifts(rng, shape) if taming else rng.normal(scale=1e3, size=shape)
        for dt in (0.01, 0.1):
            drift = _old_tame(b, dt) if taming else b
            want = X + diffusion.apply(dW) - drift * dt
            got = euler_step(X, b, diffusion, dW, dt, taming=taming)
            assert _same_bits(got, want), (shape, dt)


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


@pytest.mark.parametrize("field", ["dt", "t_final"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_names_a_non_finite_time(field, value):
    # nan once raised numpy's unlabelled "cannot convert float NaN to
    # integer", t_final = inf an OverflowError, and dt = inf "t_final must be
    # at least dt"
    times = {"dt": 0.1, "t_final": 1.0, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
        SimConfig(**times, n_particles=4, seed=1, allow_large_dt=True)
    assert engine.time_grid_errors(**times, allow_large_dt=True) == [f"{field} must be finite"]


@pytest.mark.parametrize("field, value", [("snapshot_stride", 2.5), ("snapshot_stride", 2.0),
                                          ("n_particles", 4.5), ("n_particles", "4"),
                                          ("n_particles", True), ("snapshot_stride", True)])
def test_config_names_a_non_integer_run_setting(field, value):
    # snapshot_stride = 2.5 once ran, labelling step 2's state t = 0.25 at
    # dt = 0.1, and n_particles = 4.5 failed only at the first draw;
    # n_particles = True validated, and the run died in numpy with an
    # unlabelled "an integer is required"
    settings = {"n_particles": 4, "snapshot_stride": 1, field: value}
    with pytest.raises(ValidationError, match=re.escape(f"{field} must be an integer, "
                                                        f"not {value!r}")):
        SimConfig(dt=0.1, t_final=1.0, seed=1, **settings)


@pytest.mark.parametrize("stride, steps", [(1, list(range(11))), (3, [0, 3, 6, 9, 10]),
                                           (5, [0, 5, 10]), (10, [0, 10]), (25, [0, 10])])
def test_the_snapshot_grid_is_step_0_every_stride_th_step_and_the_last(stride, steps):
    cfg = SimConfig(dt=0.1, t_final=1.0, n_particles=1, seed=1, snapshot_stride=stride)
    assert cfg.record_steps.tolist() == steps
    m = _ou_model()
    assert simulate_particle_system(m, cfg).times.tolist() == [k * 0.1 for k in steps]
    # the step loop hands over each recorded step after step 0, by its place in the grid
    seen = []
    engine._integrate(m, cfg, cfg.noise(), [np.zeros((1, 1))], [None],
                      lambda r, Xs: seen.append(r))
    assert seen == list(range(1, len(steps)))


@pytest.mark.parametrize("field, value, rule", [
    ("seed", -1, "seed must be a 64-bit unsigned integer, not -1"),
    ("seed", 1.5, "seed must be a 64-bit unsigned integer, not 1.5"),
    ("seed", 2 ** 64, "seed must be a 64-bit unsigned integer"),
    ("replica_id", -2, "replica_id must be nonnegative, not -2"),
    ("replica_id", 2.5, "replica_id must be an integer or a nonempty 1-D integer array, "
                        "not 2.5")],
    ids=["seed-negative", "seed-float", "seed-too-large", "replica-negative", "replica-float"])
def test_config_names_a_bad_seed_or_replica_id(field, value, rule):
    # each once constructed, and the run failed at its first draw with the
    # grid's plain ValueError
    with pytest.raises(ValidationError, match=re.escape(rule)):
        SimConfig(dt=0.1, t_final=1.0, n_particles=4, **{"seed": 1, field: value})


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
    x = m.initial_law.sample(noise, 1)
    for k in range(cfg.n_steps):
        drift = m.drift.eval(x, x)
        dW = noise.normals(1, k, 1) * np.sqrt(cfg.dt)
        x = x + m.diffusion.apply(dW) - drift * cfg.dt
    assert np.allclose(traj.terminal, x, atol=1e-14)


def test_determinism_bit_exact():
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=0.2, n_particles=32, seed=11)
    a = simulate_particle_system(m, cfg)
    b = simulate_particle_system(m, cfg)
    assert np.array_equal(a.states, b.states)


SIGMAS = {"diagonal-1d": [[0.7]], "diagonal-3d": np.diag([0.5, 1.5, 2.0]),
          "full-2d": [[0.3, 0.0], [0.8, 1.2]]}


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("sigma", sorted(SIGMAS))
def test_one_step_is_the_point_plus_sigma_sqrt_dt_normals(sigma, batched):
    # the step loop alone turns a grid's unit normals into Brownian increments:
    # one zero-drift step from a point law is x0 + sigma (sqrt(dt) z) bit for
    # bit, z the normals of each particle's own key at step 0
    sigma = np.asarray(SIGMAS[sigma], dtype=np.float64)
    d = len(sigma)
    x0 = np.linspace(-1.0, 2.0, d)
    m = ModelSpec(drift=_pure_diffusion_model(d).drift, diffusion=DiffusionSpec(sigma),
                  initial_law=InitialLaw.gaussian(x0, 0.0), name="one-step")
    cfg = SimConfig(dt=0.03, t_final=0.03, n_particles=5, seed=29)
    noise = NoiseGrid(cfg.seed, np.array([3, 0, REFERENCE_NAMESPACE]) if batched else 3)
    traj = simulate_particle_system(m, cfg, noise=noise)
    z = noise.normals(5, 0, d)
    assert np.array_equal(traj.states[..., 1, :, :], x0 + (z * np.sqrt(cfg.dt)) @ sigma.T)


@pytest.mark.parametrize("run", ["particle_system", "coupled"])
def test_a_grid_of_the_runs_own_key_gives_the_default_run(run):
    # a grid carries no dt, so passing the run's own grid cannot change its
    # diffusion: it once silently stepped unit-variance increments at dt = 0.01
    m = granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1)
    cfg = SimConfig(dt=0.01, t_final=0.2, n_particles=16, seed=31, replica_id=3)
    own = NoiseGrid(cfg.seed, cfg.replica_id)
    if run == "particle_system":
        assert np.array_equal(simulate_particle_system(m, cfg, noise=own).states,
                              simulate_particle_system(m, cfg).states)
    else:
        flow = build_reference_flow(m, 64, cfg)
        given, default = simulate_coupled(m, cfg, flow, noise=own), simulate_coupled(m, cfg, flow)
        assert np.array_equal(given.mean_square_gap, default.mean_square_gap)
        assert np.array_equal(given.terminal_particles, default.terminal_particles)
        assert np.array_equal(given.terminal_nonlinear, default.terminal_nonlinear)
    assert not hasattr(own, "dt") and not hasattr(NoiseGrid, "increments")


def test_ou_ensemble_mean_and_variance():
    # closed-form oracle: mean m0 e^{-t}, variance 1/r + (v0 - 1/r) e^{-2rt}
    m = _ou_model(mean0=1.0)
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
                             initial_law=InitialLaw.gaussian([30.0], [[1.0]]))
    cfg = SimConfig(dt=0.1, t_final=10.0, n_particles=8, seed=1, taming=False,
                    allow_large_dt=True)
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg)
    assert exc.value.step >= 0


def test_divergence_error_reports_the_particle():
    # a law-free kernel that blows up exactly one particle: the one that starts highest
    cfg = SimConfig(dt=0.1, t_final=0.5, n_particles=7, seed=5)
    start = InitialLaw.gaussian(np.zeros(1), np.eye(1)).sample(cfg.noise(), 7)
    top = start.max()
    m = ModelSpec(
        drift=DriftKernel(dim=1, eval=lambda x, y: np.where(x >= top, np.inf, 0.0),
                          mean_field=lambda x, points: np.where(x >= top, np.inf, 0.0)),
        diffusion=DiffusionSpec(np.zeros((1, 1))),
        initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)),
        name="one-blows-up",
    )
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg)
    assert exc.value.step == 0
    assert exc.value.particle == int(np.argmax(start[:, 0])) > 0


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
    ids = np.array([105, 101, 108, 102, 104])
    # The scenario is read off the draws: below the threshold the drift is 0,
    # so each replica follows its calm path until the step at which one of
    # its particles first reaches the threshold.  Take the highest threshold
    # that every replica reaches and that some replicas reach later than
    # others, and put one of the late ones first in the batch (a replica's
    # path does not depend on its place in the batch).
    calm = simulate_particle_system(_blows_up_above(np.inf), cfg,
                                    noise=NoiseGrid(cfg.seed, ids))
    highs = calm.states[:, :-1, :, 0].max(axis=-1)  # (replica, step): drift is read there
    reached = np.unique(highs[highs <= highs.max(axis=1).min()])
    crossing = {t: [int(np.argmax(h >= t)) for h in highs] for t in reached}
    threshold = max(t for t, steps in crossing.items() if len(set(steps)) > 1)
    ids = np.roll(ids, -int(np.argmax(crossing[threshold])))
    m = _blows_up_above(threshold)
    alone = []
    for pos, rid in enumerate(ids):
        with pytest.raises(DivergenceError) as exc:
            simulate_particle_system(m, cfg, noise=NoiseGrid(cfg.seed, int(rid)))
        assert exc.value.replica == rid
        alone.append((exc.value.step, pos, exc.value.particle))
    step, pos, particle = min(alone)
    assert pos > 0  # the first replica to diverge is not the first in the batch
    with pytest.raises(DivergenceError) as exc:
        simulate_particle_system(m, cfg, noise=NoiseGrid(cfg.seed, ids))
    assert (exc.value.replica, exc.value.step, exc.value.particle) == (ids[pos], step, particle)
    assert f"replica {ids[pos]}, step {step}, particle {particle}" in str(exc.value)

    # every particle of every replica starts above the threshold, so all
    # diverge at step 0: the batch names the first replica and, like the
    # per-replica run, its first particle
    m = replace(m, initial_law=InitialLaw.gaussian([threshold + 1.0], 0.0))
    errs = []
    for noise in (NoiseGrid(cfg.seed, ids), NoiseGrid(cfg.seed, int(ids[0]))):
        with pytest.raises(DivergenceError) as exc:
            simulate_particle_system(m, cfg, noise=noise)
        errs.append((exc.value.replica, exc.value.step, exc.value.particle))
    assert errs[0] == errs[1] == (ids[0], 0, 0)


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
    m = _ou_model(mean0=1.0)
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
    X0 = m.initial_law.sample(noise, M)
    prev, gaps = None, []
    for _ in range(passes):
        snaps = np.empty((cfg.n_steps + 1, M, m.dim))
        snaps[0] = X0

        def record(k, Xs, snaps=snaps):
            snaps[k] = Xs[0]

        engine._integrate(m, cfg, noise, [X0], [prev], record)
        if prev is not None:
            gaps.append(sample_w2(prev[-1], snaps[-1]))
        prev = snaps

    flow = build_reference_flow(m, M, cfg)
    assert np.array_equal(flow.states, prev)
    assert np.array_equal(flow.times, np.arange(cfg.n_steps + 1) * cfg.dt)
    assert gaps == [0.0] * (passes - 1)


def test_a_reference_flow_of_size_zero_has_the_default_16_n_particles():
    # build_reference_flow(model, 0, cfg) once raised "n_particles must be >= 1, not 0"
    m = _ou_model()
    cfg = SimConfig(dt=0.05, t_final=0.2, n_particles=3, seed=5)
    flow = build_reference_flow(m, 0, cfg)
    assert flow.states.shape == (cfg.n_steps + 1, 48, 1)
    assert np.array_equal(flow.states, build_reference_flow(m, 48, cfg).states)


@pytest.mark.parametrize("M", [2.5, True, np.float64(64.0)], ids=["float", "bool", "numpy-float"])
def test_a_reference_size_that_is_no_integer_is_named_by_the_flow(M):
    # 2.5 was reported as "n_particles must be an integer", a field the
    # caller never set, and True died in numpy with an unlabelled TypeError
    cfg = SimConfig(dt=0.05, t_final=0.2, n_particles=3, seed=5)
    with pytest.raises(ValidationError, match=re.escape(
            f"reference flow: m must be an integer, not {M!r}")):
        build_reference_flow(_ou_model(), M, cfg)


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
    m = _ou_model(mean0=0.5)
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
    m = _ou_model(rate=2.0)
    cfg = SimConfig(dt=0.01, t_final=0.1, n_particles=4, seed=53)
    flow = build_reference_flow(m, 64, cfg)
    res = simulate_coupled(m, cfg, flow)
    noise = cfg.noise()
    x = m.initial_law.sample(noise, 4)
    for k in range(cfg.n_steps):
        drift = 2.0 * x
        dW = noise.normals(4, k, 1) * np.sqrt(cfg.dt)
        x = x + m.diffusion.apply(dW) - drift * cfg.dt
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
    m = _ou_model()
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
                                       noise=NoiseGrid(cfg.seed, np.arange(3)))
    with pytest.raises(ValidationError, match="without a replica axis"):
        simulate_coupled(m, cfg, batched)


# ---------------------------------------------------------------------------
# batched replicas: one (R, N, d) run equals R runs of one replica each


def _kinetic_non_diagonal():
    vfp = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: 0.5 * v,
                                     B=lambda x: x, d_prime=1)
    return ModelSpec(drift=vfp.drift, diffusion=DiffusionSpec([[0.3, 0.0], [0.8, 1.2]]),
                     initial_law=InitialLaw.gaussian([0.0, 1.0], [0.3, 1.3]),
                     name="kinetic, non-diagonal sigma")


BATCH_CASES = {
    "quadratic-gaussian": (granular_media_model(quadratic_potential(1.0),
                                                quadratic_potential(1.0), 1), False),
    "quadratic-point": (granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0),
                                             1, initial_law=InitialLaw.gaussian([0.5], 0.0)),
                        False),
    "quadratic-shifted-gaussian": (granular_media_model(
        quadratic_potential(1.0), quadratic_potential(1.0), 1,
        initial_law=InitialLaw.gaussian([1.0], 0.5)), False),
    "quadratic-2d-gaussian": (granular_media_model(
        quadratic_potential(1.0), quadratic_potential(1.0), 2,
        initial_law=InitialLaw.gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]])), False),
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
    batch_noise = NoiseGrid(cfg.seed, ids)

    coupled = simulate_coupled(m, cfg, flow, noise=batch_noise)
    traj = simulate_particle_system(m, cfg, noise=batch_noise)
    assert coupled.mean_square_gap.shape == (len(ids), len(cfg.record_steps))
    assert traj.states.shape == (len(ids), 5, 12, m.dim)
    for r, rid in enumerate(ids):
        noise = NoiseGrid(cfg.seed, int(rid))
        one = simulate_coupled(m, cfg, flow, noise=noise)
        assert np.array_equal(coupled.mean_square_gap[r], one.mean_square_gap)
        assert np.array_equal(coupled.terminal_particles[r], one.terminal_particles)
        assert np.array_equal(coupled.terminal_nonlinear[r], one.terminal_nonlinear)
        one_traj = simulate_particle_system(m, cfg, noise=noise)
        assert np.array_equal(traj.states[r], one_traj.states)
        assert np.array_equal(traj.terminal[r], one_traj.terminal)
    assert np.array_equal(traj.times, one_traj.times)


# ---------------------------------------------------------------------------
# one step loop over an n_grid: each size gets the bits of its own run


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_grid_call_equals_per_size_runs(case, batched):
    # sizes out of order, not nested in powers of 2, and a one-row size, whose
    # copies are the first row of those at max N (no step rounds a row by the
    # number of rows, a non-diagonal sigma's product included)
    m, taming = BATCH_CASES[case]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=3, seed=83, taming=taming)
    flow = build_reference_flow(m, 64, cfg)
    noise = NoiseGrid(cfg.seed, np.array([6, 2, 11]) if batched else 4)
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


def test_a_grid_with_a_one_row_size_draws_and_steps_one_set_of_copies(monkeypatch):
    # the copies and their initial draw are those of max N, with N = 1 in the
    # grid as without it
    m, taming = BATCH_CASES["kinetic-non-diagonal"]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=3, seed=83, taming=taming)
    flow = build_reference_flow(m, 64, cfg)
    draws, stepped = [], []
    sample, step = InitialLaw.sample, engine.euler_step
    monkeypatch.setattr(InitialLaw, "sample",
                        lambda law, grid, n: draws.append(n) or sample(law, grid, n))
    monkeypatch.setattr(engine, "euler_step",
                        lambda X, *args, **kw: stepped.append(X.shape) or step(X, *args, **kw))
    for n_grid in ([12, 1, 5], [12, 5], [1]):
        draws.clear()
        stepped.clear()
        simulate_coupled(m, cfg, flow, noise=NoiseGrid(cfg.seed, np.array([6, 2])),
                         n_grid=n_grid)
        assert draws == [max(n_grid)]
        assert len(stepped) == cfg.n_steps * (len(n_grid) + 1)
        assert stepped[-1] == (2, max(n_grid), m.dim)


@pytest.mark.parametrize("stride", [1, 3, "n_steps"])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_strided_gap_is_the_full_trace_at_the_recorded_steps(case, batched, stride):
    # a run recorded at a stride steps the same states and records the bits of
    # the stride-1 trace at its snapshot steps, for one size and for a grid
    m, taming = BATCH_CASES[case]
    cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=5, seed=83, taming=taming)
    stride = cfg.n_steps if stride == "n_steps" else stride
    flow = build_reference_flow(m, 64, cfg)
    noise = NoiseGrid(cfg.seed, np.array([6, 2, 11]) if batched else 4)
    steps = replace(cfg, snapshot_stride=stride).record_steps
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
    # the sizes of a grid start as the first rows of the max-N draw; each
    # reaches the drift as a C-contiguous state against a C-contiguous cloud
    calls = []

    def mean_field(X, points):
        calls.append((X.shape, X.flags.c_contiguous and points.flags.c_contiguous))
        return X - points.mean(axis=-2)[..., None, :]

    m = ModelSpec(drift=DriftKernel(dim=1, eval=lambda x, y: x - y, mean_field=mean_field),
                  diffusion=DiffusionSpec.isotropic(1),
                  initial_law=InitialLaw.gaussian(np.zeros(1), np.eye(1)), name="spy")
    cfg = SimConfig(dt=0.05, t_final=0.2, n_particles=6, seed=97)
    flow = build_reference_flow(m, 64, cfg)
    noise = NoiseGrid(cfg.seed, np.array([3, 1, 8]))
    calls.clear()
    simulate_coupled(m, cfg, flow, noise=noise, n_grid=[4, 8, 16])
    simulate_particle_system(m, cfg, noise=noise)
    shapes = {shape for shape, _ in calls}
    assert {(3, 4, 1), (3, 8, 1), (3, 16, 1), (3, 6, 1)} <= shapes
    assert len(calls) == cfg.n_steps * (3 + 1 + 1)
    assert all(contiguous for _, contiguous in calls)


def _threshold_model(levels):
    """No noise, drift -1 (every row climbs dt per step), and an infinite drift on
    rows at or above levels[size of the cloud the state sees]."""
    def mean_field(X, points):
        return np.where(X >= levels.get(points.shape[-2], np.inf), np.inf, -1.0)

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
    noise = NoiseGrid(cfg.seed, ids)
    start = InitialLaw.gaussian(np.zeros(1), np.eye(1)).sample(noise, 20)

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

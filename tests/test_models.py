import numpy as np
import pytest

from meanfieldlab import (DiffusionSpec, EmpiricalMeasure, InitialLaw, Observable,
                          ValidationError, granular_media_model, linear_test_model,
                          mean_field_drift, ou_mean, ou_variance, power_potential,
                          quadratic_potential, vlasov_fokker_planck_model, zero_potential)
from meanfieldlab.models import DriftKernel, Potential
from meanfieldlab.rng import NoiseGrid


def _fd_grad(value, z, h=1e-6):
    z = np.asarray(z, dtype=np.float64)
    g = np.zeros_like(z)
    for c in range(len(z)):
        step = h * (1 + abs(z[c]))
        up, dn = z.copy(), z.copy()
        up[c] += step
        dn[c] -= step
        g[c] = (value(up) - value(dn)) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# mean_field_drift


def test_mean_field_drift_symmetry():
    k = DriftKernel(dim=1, eval=lambda x, y: x - y, lipschitz_bound=1.0)
    assert mean_field_drift(k, [0.0], EmpiricalMeasure.dirac([0.0])) == pytest.approx(0.0)


def test_mean_field_drift_mean_cancellation():
    k = DriftKernel(dim=1, eval=lambda x, y: x - y, lipschitz_bound=1.0)
    mu = EmpiricalMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert mean_field_drift(k, [1.0], mu)[0] == pytest.approx(0.0, abs=1e-15)


def test_mean_field_drift_cubic_gradient():
    # grad of W(z) = |z|^3 in 1D is 3|z| z; oracle: finite differences of |z|^3
    k = DriftKernel(dim=1, eval=lambda x, y: 3 * np.abs(x - y) * (x - y), lipschitz_bound=None)
    got = mean_field_drift(k, [1.0], EmpiricalMeasure.dirac([0.0]))[0]
    fd = _fd_grad(lambda z: abs(z[0]) ** 3, [1.0])[0]
    assert got == pytest.approx(3.0)
    assert got == pytest.approx(fd, rel=1e-6)


def test_mean_field_drift_dimension_mismatch():
    k = DriftKernel(dim=2, eval=lambda x, y: x - y, lipschitz_bound=1.0)
    with pytest.raises(ValueError):
        mean_field_drift(k, [1.0], EmpiricalMeasure.dirac([0.0, 0.0]))
    with pytest.raises(ValueError):
        mean_field_drift(k, [1.0, 0.0], EmpiricalMeasure.dirac([0.0]))


def test_mean_field_drift_linear_in_measure():
    k = DriftKernel(dim=1, eval=lambda x, y: np.sin(x - y) + y ** 2, lipschitz_bound=None)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 1))
    b = rng.normal(size=(8, 1))
    mix = EmpiricalMeasure(np.vstack([a, b]), np.full(16, 1 / 16))
    half_a = mean_field_drift(k, [0.3], EmpiricalMeasure.uniform(a))
    half_b = mean_field_drift(k, [0.3], EmpiricalMeasure.uniform(b))
    whole = mean_field_drift(k, [0.3], mix)
    assert np.all(np.abs(whole - 0.5 * (half_a + half_b)) < 1e-12)


# ---------------------------------------------------------------------------
# granular media family


def test_granular_no_interaction_is_ou():
    m = granular_media_model(quadratic_potential(1.0), zero_potential(), 1)
    v = np.array([1.7])
    assert m.drift.eval(v, np.array([99.0]))[0] == pytest.approx(1.7)


def test_granular_quadratic_interaction_kernel():
    m = granular_media_model(zero_potential(), quadratic_potential(1.0), 1)
    assert m.drift.eval(np.array([2.0]), np.array([0.5]))[0] == pytest.approx(1.5)


def test_granular_cubic_kernel_matches_finite_differences():
    m = granular_media_model(quadratic_potential(1.0), power_potential(3.0), 1)
    for v, w in [(1.0, 0.0), (-0.7, 0.4), (2.0, -1.0)]:
        got = m.drift.eval(np.array([v]), np.array([w]))[0]
        expect = v + 3 * abs(v - w) * (v - w)
        fd = v + _fd_grad(lambda z: abs(z[0]) ** 3, [v - w])[0]
        assert got == pytest.approx(expect)
        assert got == pytest.approx(fd, rel=1e-5)
    assert m.drift.taming_exponent == 1.0
    assert m.drift.lipschitz_bound is None


def test_granular_rejects_odd_interaction():
    odd = Potential(value=lambda z: np.asarray(z)[..., 0] ** 3,
                    grad=lambda z: 3 * np.asarray(z) ** 2,
                    grad_lipschitz=None, name="odd")
    with pytest.raises(ValidationError):
        granular_media_model(quadratic_potential(1.0), odd, 1)


def test_gradient_oracle_validation_catches_sign_error():
    wrong = Potential(value=lambda z: 0.5 * np.sum(np.asarray(z) ** 2, axis=-1),
                      grad=lambda z: -np.asarray(z),  # inverted sign
                      grad_lipschitz=1.0, name="bad")
    with pytest.raises(ValidationError):
        granular_media_model(wrong, zero_potential(), 1)


def test_interaction_gradient_antisymmetry():
    rng = np.random.default_rng(4)
    for W in (quadratic_potential(0.7), power_potential(3.0), power_potential(4.0, 0.2)):
        z = rng.normal(size=(200, 2))
        assert np.allclose(W.grad(z), -np.asarray(W.grad(-z)), atol=1e-12)


def test_kernel_lipschitz_sampled():
    # declared bound holds on 1e4 random quadruples in a bounded box
    models = [
        granular_media_model(quadratic_potential(1.0), quadratic_potential(1.0), 1),
        granular_media_model(quadratic_potential(0.5), quadratic_potential(2.0), 2),
        linear_test_model(1.0, 2),
    ]
    rng = np.random.default_rng(10)
    for m in models:
        L = m.drift.lipschitz_bound
        assert L is not None
        d = m.dim
        X, Xp, Y, Yp = (rng.uniform(-3, 3, size=(10_000, d)) for _ in range(4))
        lhs = np.linalg.norm(m.drift.eval(X, Y) - m.drift.eval(Xp, Yp), axis=1)
        rhs = L * (np.linalg.norm(X - Xp, axis=1) + np.linalg.norm(Y - Yp, axis=1))
        assert np.all(lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# kinetic family


def test_vfp_kinetic_ou_kernel():
    m = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    out = m.drift.eval(np.array([1.0, 2.0]), np.array([5.0, -3.0]))
    assert out[0] == pytest.approx(-2.0)   # dx/dt block = -(-v) after the global minus
    assert out[1] == pytest.approx(3.0)    # A(v) + B(x) = 2 + 1


def test_vfp_interaction_term():
    m = vlasov_fokker_planck_model(quadratic_potential(1.0), A=lambda v: v, B=lambda x: x,
                                   d_prime=1)
    base = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    x, y = 1.5, 0.25
    full = m.drift.eval(np.array([x, 0.0]), np.array([y, 9.0]))
    noint = base.drift.eval(np.array([x, 0.0]), np.array([y, 9.0]))
    assert full[1] - noint[1] == pytest.approx(x - y)


def test_vfp_degenerate_diffusion_matrix():
    m = vlasov_fokker_planck_model(zero_potential(), A=lambda v: v, B=lambda x: x, d_prime=1)
    assert m.diffusion.sigma[0, 0] == 0.0
    assert m.diffusion.a[0, 0] == 0.0
    assert m.diffusion.a[1, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# linear test model and diffusion/initial-law plumbing


def test_linear_model_closed_form_values():
    assert ou_mean(1.0, 1.0, 1.0) == pytest.approx(np.exp(-1.0))
    assert ou_variance(0.0, 1.0, 1.0) == pytest.approx(1.0)   # stationary at v0 = 1/rate
    assert ou_variance(50.0, 0.0, 1.0) == pytest.approx(1.0)  # relaxes to 1/rate
    m = linear_test_model(1.0, 1)
    assert m.drift.law_free
    assert m.drift.eval(np.array([2.0]), np.array([-1.0]))[0] == pytest.approx(2.0)


def test_diffusion_a_is_half_sigma_sigma_t():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sig = rng.normal(size=(3, 3))
        spec = DiffusionSpec(sig)
        assert np.array_equal(spec.a, spec.sigma @ spec.sigma.T / 2.0)


def test_diffusion_rejects_non_square():
    with pytest.raises(ValidationError):
        DiffusionSpec(np.ones((2, 3)))


def test_initial_law_second_moments():
    grid = NoiseGrid(seed=6, replica_id=0)
    laws = {
        InitialLaw.point([1.0, 2.0]): 5.0,
        InitialLaw.gaussian([1.0], [[4.0]]): 5.0,
        InitialLaw.uniform_box([0.0], [1.0]): 1.0 / 3.0,
    }
    laws[InitialLaw.mixture([InitialLaw.point([0.0]), InitialLaw.point([2.0])], [0.5, 0.5])] = 2.0
    for law, m2 in laws.items():
        assert law.second_moment == pytest.approx(m2)
        sample = law.sample(grid, np.arange(200_000 if law.kind != "point" else 10))
        emp = np.mean(np.sum(sample ** 2, axis=1))
        assert emp == pytest.approx(m2, rel=0.02, abs=0.02)


def test_mixture_selector_honors_weights():
    grid = NoiseGrid(seed=8, replica_id=0)
    law = InitialLaw.mixture([InitialLaw.point([-1.0]), InitialLaw.point([1.0])], [0.25, 0.75])
    s = law.sample(grid, np.arange(100_000)).ravel()
    assert np.mean(s > 0) == pytest.approx(0.75, abs=0.01)


def test_observable_lipschitz_sample_check():
    obs = Observable(eval=lambda x: np.sin(np.asarray(x)[..., 0]), lipschitz_constant=1.0)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(500, 1))
    b = rng.normal(size=(500, 1))
    quot = np.abs(obs.eval(a) - obs.eval(b)) / np.maximum(np.abs(a - b).ravel(), 1e-12)
    assert np.all(quot <= obs.lipschitz_constant + 1e-9)


def test_initial_laws_sample_a_leading_replica_axis():
    ids = np.array([4, 1, 9])
    laws = [InitialLaw.point([1.0, 2.0]),
            InitialLaw.gaussian([1.0, 0.0], [[2.0, 0.5], [0.5, 1.0]]),
            InitialLaw.uniform_box([0.0, -1.0], [1.0, 3.0]),
            InitialLaw.mixture([InitialLaw.point([0.0, 0.0]),
                                InitialLaw.gaussian([2.0, 2.0], np.eye(2)),
                                InitialLaw.uniform_box([-3.0, -3.0], [-2.0, -2.0])],
                               [0.2, 0.5, 0.3])]
    particles = np.array([3, 0, 8, 5, 1])
    for law in laws:
        batch = law.sample(NoiseGrid(seed=12, replica_id=ids), particles)
        assert batch.shape == (len(ids), len(particles), 2)
        for r, rid in enumerate(ids):
            assert np.array_equal(batch[r], law.sample(NoiseGrid(seed=12, replica_id=int(rid)),
                                                       particles))
